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

    def test_factories_produce_deterministic_closures(self):
        # run_check itself raises on nondeterministic closures; spot-check a
        # couple of factories by building twice from the same stream
        for name in ("conv2d", "intra_loss", "stage2_loss"):
            factory = CATALOG[name]
            build_a, params_a, _ = factory(np.random.default_rng(5))
            value_1 = float(build_a(params_a).data)
            value_2 = float(build_a(params_a).data)
            assert value_1 == value_2


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
