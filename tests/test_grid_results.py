"""Tests for the shared grid machinery and results JSON round-trips.

Covers the contracts both sweep families rely on: deterministic grid
expansion, pool/in-process equivalence of the executor, and
``save() -> load -> summary()`` equality for :class:`SweepResults` and
:class:`FunctionalSweepResults`, including the schema marker that keeps
the two file families apart.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.functional_sweep import (
    FUNCTIONAL_RESULT_KEYS,
    FunctionalPoint,
    FunctionalSweepResults,
    build_functional_grid,
    run_functional_sweep,
)
from repro.analysis.grid import GridResults, expand_grid, run_grid
from repro.analysis.sweep import RESULT_KEYS, SweepResults, build_grid, \
    run_sweep


def test_expand_grid_order_and_size():
    combos = expand_grid({"a": [1, 2], "b": "xy", "c": [True]})
    assert len(combos) == 4
    # First axis varies slowest, and ordering is fully deterministic.
    assert combos == [{"a": 1, "b": "x", "c": True},
                      {"a": 1, "b": "y", "c": True},
                      {"a": 2, "b": "x", "c": True},
                      {"a": 2, "b": "y", "c": True}]
    assert expand_grid({}) == [{}]


def _square(value: int) -> dict:
    return {"value": value, "square": value * value}


def test_run_grid_pool_matches_in_process():
    points = list(range(5))
    serial_rows, serial_elapsed = run_grid(points, _square, processes=0)
    pooled_rows, pooled_elapsed = run_grid(points, _square, processes=2)
    assert serial_rows == pooled_rows
    assert [row["value"] for row in serial_rows] == points
    assert serial_elapsed >= 0.0 and pooled_elapsed >= 0.0


def test_grid_results_filters_and_geomean():
    results = GridResults(rows=[{"kind": "a", "speed": 2.0},
                                {"kind": "a", "speed": 8.0},
                                {"kind": "b", "speed": 3.0}])
    assert len(results.matching_rows(kind="a")) == 2
    assert results.geomean("speed", kind="a") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        results.geomean("speed", kind="missing")


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cycle_results() -> SweepResults:
    points = build_grid(["vgg13"], organizations=[(512, 8), (1024, 16)])
    return run_sweep(points, processes=0)


@pytest.fixture(scope="module")
def functional_results() -> FunctionalSweepResults:
    points = build_functional_grid(["squeezenet"], signature_bits=(12, 20),
                                   epochs=1)
    return run_functional_sweep(points, processes=0)


def test_cycle_round_trip_summary_equality(cycle_results, tmp_path):
    path = tmp_path / "cycle.json"
    cycle_results.save(path)
    reloaded = SweepResults.load(path)
    assert reloaded.rows == cycle_results.rows
    assert reloaded.summary() == cycle_results.summary()
    assert json.loads(path.read_text())["schema"] == "cycle-sweep"


def test_functional_round_trip_summary_equality(functional_results, tmp_path):
    path = tmp_path / "functional.json"
    functional_results.save(path)
    reloaded = FunctionalSweepResults.load(path)
    assert reloaded.rows == functional_results.rows
    assert reloaded.summary() == functional_results.summary()
    assert json.loads(path.read_text())["schema"] == "functional-sweep"


def test_schema_marker_rejects_wrong_family(cycle_results, functional_results,
                                            tmp_path):
    cycle_path = tmp_path / "cycle.json"
    functional_path = tmp_path / "functional.json"
    cycle_results.save(cycle_path)
    functional_results.save(functional_path)
    with pytest.raises(ValueError, match="cycle-sweep"):
        FunctionalSweepResults.load(cycle_path)
    with pytest.raises(ValueError, match="functional-sweep"):
        SweepResults.load(functional_path)


def test_legacy_payload_without_schema_still_loads(cycle_results, tmp_path):
    payload = json.loads(cycle_results.to_json())
    del payload["schema"]
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(payload))
    assert SweepResults.load(path).rows == cycle_results.rows


def test_result_keys_contract(cycle_results, functional_results):
    for results in (cycle_results, functional_results):
        assert all(results.result_keys <= set(row) for row in results.rows)
    # The two schema families stay aligned on the shared metric names.
    shared = RESULT_KEYS & FUNCTIONAL_RESULT_KEYS
    assert {"model", "speedup", "signature_fraction", "baseline_cycles",
            "mercury_cycles", "elapsed_s"} <= shared


def test_functional_point_validates_axes():
    with pytest.raises(ValueError, match="dataset_scale"):
        FunctionalPoint(model="squeezenet", dataset_scale="huge")
    with pytest.raises(ValueError, match="adaptation"):
        FunctionalPoint(model="squeezenet", adaptation="sometimes")
    with pytest.raises(ValueError, match="seed"):
        FunctionalPoint(model="squeezenet", seed=-1)
