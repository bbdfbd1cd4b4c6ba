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

    def test_unknown_name_in_list(self):
        with pytest.raises(CheckSuiteError):
            run_all(["relu", "bogus"])
