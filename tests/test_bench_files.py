"""Committed ``BENCH_<pr>.json`` files: each holds the final JSON line of
``perfbench/run.py`` for every ``BENCHMARK.json`` workload, untraced and
traced, before and after its change, with no failed operation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_holds_every_workload_at_both_trace_levels(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    names = {
        "trace0": {m["name"] for m in BENCHMARK["end_to_end"]},
        "trace1": {m["name"] for m in BENCHMARK["per_layer"]},
    }
    for workload in BENCHMARK["workloads"]:
        for trace in ("trace0", "trace1"):
            for side in ("before", "after"):
                line = runs[workload["name"]][trace][side]
                where = f"{workload['name']} {trace} {side}"
                assert line["failed"] == 0, where
                assert line["correct"] is True, where
                assert line["attempted"] > 0, where
                assert set(line["metrics"]) == names[trace], where
