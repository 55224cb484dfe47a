"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_harness.py``.
It checks the harness, not dpminimax's speed: every metric BENCHMARK.json
names is emitted with its unit, every span lies inside its parent's
interval, every self time is non-negative, and traced counts repeat.
"""

import json
import os

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 0.01


def _assert_metrics(result, declared):
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, rec, _, env = run.measure(workload, seed=3, seconds=0, trace=False, scale=TINY)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"], rec.failures
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert env["nproc"] >= 1 and env["kernel_backend"] in ("numpy", "numba")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_split(workload):
    result, rec, tracer, _ = run.measure(workload, seed=3, seconds=0, trace=True, scale=TINY)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"], rec.failures
    spans = list(tracer.spans())
    assert spans
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, parent_start, parent_end, _ = spans[parent]
            assert parent_start <= start and end <= parent_end, name
    for name, value in tracer.snapshot().items():
        if name.endswith(".self_s"):
            assert value >= 0, name
    for name, metric in result["metrics"].items():
        if name.endswith(".self_s"):
            assert metric["value"] >= 0, name
    assert result["metrics"]["cli.main.s"]["value"] > 0


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        result, _, _, _ = run.measure("exact_checks", seed=5, seconds=0, trace=True, scale=TINY)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["verify.events_enumerated"] > 0 and counts[0]["verify.test_maps_enumerated"] > 0
