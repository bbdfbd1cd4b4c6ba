"""Smoke test of the benchmark at tiny sizes.

Runs each workload once, traced and untraced, and checks that every metric
named in BENCHMARK.json is reported, that the run passes its own gate, and
that the gate rejects an output digest that differs from the stored one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from gate import DigestStore, digest_mismatches
from workloads import END_TO_END, WORKLOADS, per_layer_names, unit_of

ROOT = Path(__file__).resolve().parent.parent


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, tmp_path):
    record = run.run_benchmark(ROOT, workload, 3, 0.0, True, tiny=True,
                               out_dir=tmp_path, min_samples=1)
    assert record["failed"] == 0, [s["failures"] for s in record["samples"]]
    assert record["attempted"] == 2
    assert set(record["end_to_end"]) == set(END_TO_END)
    assert list(record["per_layer"]) == per_layer_names()
    assert all(summary["median"] > 0 for summary in record["end_to_end"].values())
    # traced and untraced calls wrote the same bits
    digests = {s["digest"] for s in record["samples"]}
    assert digests == {record["digest"]}


def test_gate_flags_digests_that_differ():
    reference, bad = digest_mismatches(["a", "a", "b"], None)
    assert reference == "a" and bad == [False, False, True]
    assert digest_mismatches(["a"], "b") == ("b", [True])


def test_run_fails_on_a_stored_digest_mismatch(tmp_path):
    first = run.run_benchmark(ROOT, "gen_data", 3, 0.0, False, tiny=True,
                              out_dir=tmp_path, min_samples=1)
    assert first["failed"] == 0
    store = DigestStore(tmp_path / "digests.json")
    (key,) = store.entries
    store.put(key, "0" * 64)
    second = run.run_benchmark(ROOT, "gen_data", 3, 0.0, False, tiny=True,
                               out_dir=tmp_path, min_samples=1)
    assert second["failed"] == second["attempted"] == 1
    assert "output digest" in second["samples"][0]["failures"][0]
