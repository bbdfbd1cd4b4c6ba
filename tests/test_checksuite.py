"""The gradient-check catalog itself: coverage, determinism, failure paths."""

from __future__ import annotations

import numpy as np
import pytest

from piareid import checksuite, diffcore as dc
from piareid.checksuite import (
    CATALOG,
    CheckSuiteError,
    run_all,
    run_check,
)


class TestCatalog:
    def test_covers_every_registered_primitive(self):
        assert set(dc.registered_kinds()) <= set(CATALOG)

    def test_includes_every_loss(self):
        assert {
            "cross_entropy", "classification_loss", "orthogonality_loss",
            "intra_loss", "inter_loss", "stage1_loss", "stage2_loss",
        } <= set(CATALOG)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_factories_produce_deterministic_closures(self, name):
        # run_check itself raises on nondeterministic closures; here every
        # factory is built twice from the same stream and evaluated twice
        build_a, params_a, names = CATALOG[name](np.random.default_rng(5))
        build_b, params_b, _ = CATALOG[name](np.random.default_rng(5))
        value_1 = float(build_a(params_a).data)
        assert float(build_a(params_a).data) == value_1
        assert float(build_b(params_b).data) == value_1
        assert len(names) == len(params_a)
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_build_reads_the_params_it_is_given(self, name):
        build, params, _ = CATALOG[name](np.random.default_rng(5))
        before = float(build(params).data)
        noise = np.random.default_rng(6)
        moved = [dc.parameter(p.data + 0.01 * noise.normal(size=p.shape)) for p in params]
        assert float(build(moved).data) != before


class TestSplitMaxTies:
    @pytest.mark.parametrize("axis", [1, -1])
    def test_every_slice_clears_its_runner_up(self, axis):
        rng = np.random.default_rng(8)
        for _ in range(50):
            values = rng.normal(size=(2, 4, 3, 3))
            # plant exact ties along the checked axis
            values[0, 0] = values[0, 1]
            values[..., 2] = values[..., 0]
            out = checksuite._split_max_ties(values, axis)
            assert out is values
            ordered = np.sort(np.moveaxis(values, axis, -1), axis=-1)
            gaps = ordered[..., -1] - ordered[..., -2]
            assert (gaps >= checksuite.KINK_MARGIN - 1e-12).all()


class TestRunCheck:
    def test_single_primitive_passes(self):
        result = run_check("relu", configs=3)
        assert result.passed
        assert result.max_rel_error < 1e-4
        assert result.configs == 3

    def test_loss_check_passes(self):
        assert run_check("orthogonality_loss", configs=3).passed

    def test_unknown_name(self):
        with pytest.raises(CheckSuiteError, match="unknown check"):
            run_check("no_such_op")

    def test_seed_changes_problems_not_verdict(self):
        a = run_check("linear", configs=2, seed=0)
        b = run_check("linear", configs=2, seed=1)
        assert a.passed and b.passed
        assert a.max_rel_error != b.max_rel_error

    def test_catalog_edit_keeps_other_rows(self, monkeypatch):
        before = run_check("sum", configs=3)
        monkeypatch.setattr(
            checksuite, "CATALOG", {k: v for k, v in CATALOG.items() if k != "conv2d"}
        )
        assert run_check("sum", configs=3) == before

    @pytest.mark.parametrize("settings, match", [
        (dict(configs=0), "configs"),
        (dict(configs=-3), "configs"),
        (dict(step=0.0), "step"),
        (dict(step=-1e-5), "step"),
        (dict(step=float("nan")), "step"),
        (dict(tol=0.0), "tol"),
        (dict(tol=float("inf")), "tol"),
    ])
    def test_unusable_settings_are_rejected(self, settings, match):
        with pytest.raises(CheckSuiteError, match=match):
            run_check("relu", **settings)

    def test_absurd_step_fails_honestly(self):
        # a huge step makes the difference quotient useless; the check must
        # report failure rather than mask it
        result = run_check("sigmoid", configs=2, step=0.5)
        assert not result.passed


# ``run_all(configs=2)`` at seed 0: each row's name, ``repr(max_rel_error)``
# and worst parameter
PINNED_TABLE = [
    ('conv2d', '3.326302395905823e-09', 'x'),
    ('relu', '1.4118434859112676e-11', 'x'),
    ('sigmoid', '5.144048709911484e-09', 'x'),
    ('abs', '1.7615743814415013e-10', 'x'),
    ('add', '4.686020266632009e-10', 'b'),
    ('sub', '8.707163634152396e-10', 'b'),
    ('mul', '1.1864805417893688e-08', 'a'),
    ('scale', '5.0066547155295694e-11', 'x'),
    ('channel_max_pool', '8.674499688260583e-11', 'x'),
    ('channel_avg_pool', '8.967300318054856e-11', 'x'),
    ('global_avg_pool', '4.6090109006769185e-11', 'x'),
    ('global_max_pool', '3.057409854437861e-10', 'x'),
    ('concat', '2.288290309719866e-10', 'b'),
    ('linear', '1.5451140497006166e-08', 'weight'),
    ('batch_norm', '1.0443959121617553e-09', 'x'),
    ('log_softmax', '9.288380451551743e-10', 'x'),
    ('l2_normalize', '7.127546085361658e-10', 'x'),
    ('mean', '1.0741907445482517e-11', 'x'),
    ('sum', '3.22874654849366e-11', 'x'),
    ('cross_entropy', '5.961345409241475e-09', 'embeddings'),
    ('classification_loss', '5.437882981044191e-09', 'id_weight'),
    ('orthogonality_loss', '5.122180641155609e-09', 'f'),
    ('intra_loss', '5.879251480844067e-08', 'features'),
    ('inter_loss', '1.3334751306011679e-08', 'features'),
    ('stage1_loss', '3.4608307937550226e-08', 'f'),
    ('stage2_loss', '4.1847370208877024e-08', 'f_c'),
    ('pia_stage1', '2.1524449562498065e-07', 'backbone.conv1.weight'),
    ('pia_stage2', '3.973261005732286e-08', 'backbone.conv0.weight'),
]


class TestRunAll:
    def test_subset_and_table(self):
        result = run_all(["relu", "abs"], configs=2)
        assert result.passed
        assert [c.name for c in result.results] == ["relu", "abs"]
        table = result.format_table()
        assert "relu" in table and "abs" in table and "PASS" in table

    def test_every_check_passes(self):
        result = run_all(configs=2)
        assert [c.name for c in result.results] == list(CATALOG)
        assert result.passed, result.format_table()
        # every row to the bit: a change to a rule's arithmetic that moves
        # any row's error fails here, not only in a by-hand diff of the table
        assert [(c.name, repr(c.max_rel_error), c.worst_param)
                for c in result.results] == PINNED_TABLE

    def test_unknown_name_in_list(self):
        with pytest.raises(CheckSuiteError):
            run_all(["relu", "bogus"])
