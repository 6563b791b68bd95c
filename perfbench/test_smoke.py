"""Smoke test of the benchmark: two timed iterations of every workload."""

from __future__ import annotations

import json
import math

import pytest

from perfbench import bench
from perfbench.run import WORKLOADS, run_workload

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_smoke(workload, trace, tmp_path, monkeypatch):
    """Every named metric is present, finite and has a unit."""
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    with bench.HostSpeed() as speed:
        result = run_workload(workload, seed=0, seconds=1.0, trace=trace,
                              speed=speed, iterations=2)
    line = result.line()
    assert line["correct"], result.failures
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(line["metrics"]) == set(expected)
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == expected[name]
    if trace:
        assert (result.out_dir() / "trace.json").is_file()
        assert (result.out_dir() / "layers.md").is_file()


def test_failed_requests_are_counted(tmp_path, monkeypatch):
    """A server whose every request fails gives a result that is not
    correct, not an exception."""
    from repro.serving import InferenceServer

    async def fail(self, payload):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setattr(InferenceServer, "infer", fail)
    with bench.HostSpeed() as speed:
        result = run_workload("serve-zipf-churn", seed=0, seconds=1.0,
                              trace=False, speed=speed, iterations=2)
    line = result.line()
    assert not line["correct"] and line["failed"] > 0


def test_benchmark_json_names_what_the_benchmark_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == bench.PER_LAYER
