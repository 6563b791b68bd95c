"""Smoke and reproducibility tests for the functional sweep subsystem.

The smoke test drives ``examples/functional_sweep.py`` exactly as the
acceptance scenario describes: a 4-point grid (2 models x 2 configs)
through the multiprocessing pool, JSON written to disk, and
accuracy-delta/speedup fields populated for every point.

The reproducibility tests pin the seed-plumbing contract: a
:class:`FunctionalPoint` fully determines its run — repeated in-process
evaluations are identical, the baseline/reuse pair shares the data
order, and distinct seed streams decorrelate data, weights and
shuffling.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.functional_sweep import (
    DATA_STREAM,
    FUNCTIONAL_RESULT_KEYS,
    MODEL_STREAM,
    SHUFFLE_STREAM,
    SPLIT_STREAM,
    FunctionalPoint,
    baseline_key,
    build_functional_grid,
    derive_seed,
    evaluate_functional_point,
    load_point_data,
    run_functional_sweep,
    train_point,
)
from repro.analysis.grid import run_grid

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
import functional_sweep as functional_sweep_example  # noqa: E402


# ----------------------------------------------------------------------
# Acceptance smoke: the example CLI end to end.
# ----------------------------------------------------------------------
def test_example_runs_four_point_grid_in_parallel(tmp_path, capsys):
    output = tmp_path / "functional.json"
    functional_sweep_example.main([
        "--models", "squeezenet", "transformer",
        "--signature-bits", "12", "20",
        "--epochs", "1", "--processes", "2",
        "--output", str(output)])
    printed = capsys.readouterr().out
    assert "4 functional scenarios" in printed

    payload = json.loads(output.read_text())
    assert payload["schema"] == "functional-sweep"
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        assert FUNCTIONAL_RESULT_KEYS <= set(row)
        # Accuracy-delta and speedup are populated and consistent.
        assert row["accuracy_delta"] == pytest.approx(
            row["reuse_accuracy"] - row["baseline_accuracy"])
        assert 0.0 <= row["baseline_accuracy"] <= 1.0
        assert 0.0 <= row["reuse_accuracy"] <= 1.0
        assert row["speedup"] > 0.0
        assert row["baseline_cycles"] > 0.0
        assert row["mercury_cycles"] > 0.0
        assert 0.0 <= row["hit_fraction"] <= 1.0
        assert row["elapsed_s"] >= 0.0
        assert row["layer_stats"], "per-layer reuse stats missing"


def test_build_functional_grid_order_and_passthrough():
    points = build_functional_grid(["squeezenet", "transformer"],
                                   signature_bits=(12, 20), epochs=5)
    assert len(points) == 4
    assert [p.model for p in points] == ["squeezenet", "squeezenet",
                                        "transformer", "transformer"]
    assert [p.signature_bits for p in points] == [12, 20, 12, 20]
    assert all(p.epochs == 5 for p in points)


def test_pool_matches_in_process_rows():
    points = build_functional_grid(["squeezenet"], signature_bits=(12, 20),
                                   epochs=1)
    serial = run_functional_sweep(points, processes=0)
    pooled = run_functional_sweep(points, processes=2)
    for serial_row, pooled_row in zip(serial.rows, pooled.rows):
        for key in FUNCTIONAL_RESULT_KEYS - {"elapsed_s"}:
            assert serial_row[key] == pooled_row[key]


# ----------------------------------------------------------------------
# Baseline memoization: one exact run per (model, scale, training, seed)
# group, shared across every MercuryConfig/adaptation variant.
# ----------------------------------------------------------------------
def _count_train_calls(monkeypatch):
    from repro.analysis import functional_sweep as fs
    from repro.core.reuse import ExactCountingEngine

    counts = {"baseline": 0, "reuse": 0}
    real_train_point = fs.train_point

    def counting_train_point(point, engine, data=None):
        if isinstance(engine, ExactCountingEngine):
            counts["baseline"] += 1
        elif engine is not None:
            counts["reuse"] += 1
        return real_train_point(point, engine, data)

    monkeypatch.setattr(fs, "train_point", counting_train_point)
    return counts


def test_baseline_trained_exactly_once_per_group(monkeypatch):
    """Four MercuryConfig/adaptation variants of one (model, scale,
    training config, seed) group trigger exactly one baseline run."""
    counts = _count_train_calls(monkeypatch)
    points = build_functional_grid(["squeezenet"],
                                   adaptations=("full", "off"),
                                   signature_bits=(12, 20), epochs=1)
    assert len(points) == 4
    assert len({baseline_key(p) for p in points}) == 1
    results = run_functional_sweep(points, processes=0)
    assert counts == {"baseline": 1, "reuse": 4}
    assert len(results.rows) == 4


def test_baseline_runs_scale_with_groups_not_points(monkeypatch):
    """Distinct seeds (and training configs) are distinct groups."""
    counts = _count_train_calls(monkeypatch)
    points = build_functional_grid(["squeezenet"], signature_bits=(12, 20),
                                   seeds=(0, 1), epochs=1)
    assert len(points) == 4
    assert len({baseline_key(p) for p in points}) == 2
    run_functional_sweep(points, processes=0)
    assert counts == {"baseline": 2, "reuse": 4}


def test_shared_baseline_rows_match_paired_runs():
    """Memoized rows are bit-identical to per-point paired training."""
    points = build_functional_grid(["squeezenet"], signature_bits=(12, 20),
                                   epochs=1)
    shared = run_functional_sweep(points, processes=0)
    paired, _ = run_grid(points, evaluate_functional_point, processes=0)
    for shared_row, paired_row in zip(shared.rows, paired):
        for key in FUNCTIONAL_RESULT_KEYS - {"elapsed_s"}:
            assert shared_row[key] == paired_row[key], key


# ----------------------------------------------------------------------
# Seed plumbing: a FunctionalPoint fully determines the run.
# ----------------------------------------------------------------------
def test_repeated_evaluation_is_identical():
    point = FunctionalPoint(model="squeezenet", epochs=2, seed=5)
    first = evaluate_functional_point(point)
    second = evaluate_functional_point(point)
    for key in FUNCTIONAL_RESULT_KEYS - {"elapsed_s"}:
        assert first[key] == second[key], key


def test_repeated_training_is_bit_identical():
    point = FunctionalPoint(model="transformer", epochs=2, seed=4)
    first_result, first_model = train_point(point, None)
    second_result, second_model = train_point(point, None)
    assert first_result.iteration_losses == second_result.iteration_losses
    assert first_result.final_validation_accuracy == \
        second_result.final_validation_accuracy
    for a, b in zip(first_model.parameters(), second_model.parameters()):
        assert np.array_equal(a.value, b.value)


def test_seed_changes_the_run():
    base = evaluate_functional_point(
        FunctionalPoint(model="squeezenet", epochs=1, seed=0))
    other = evaluate_functional_point(
        FunctionalPoint(model="squeezenet", epochs=1, seed=1))
    assert base["baseline_losses"] != other["baseline_losses"]


def test_derived_streams_are_distinct_and_stable():
    all_streams = (DATA_STREAM, MODEL_STREAM, SHUFFLE_STREAM, SPLIT_STREAM)
    streams = [derive_seed(0, s) for s in all_streams]
    assert len(set(streams)) == len(all_streams)
    assert streams == [derive_seed(0, s) for s in all_streams]
    # Neighbouring base seeds do not collide either.
    assert derive_seed(0, DATA_STREAM) != derive_seed(1, DATA_STREAM)


def test_incompatible_model_scale_fails_at_build_time():
    with pytest.raises(ValueError, match="at least 32px"):
        FunctionalPoint(model="alexnet", dataset_scale="tiny")
    with pytest.raises(ValueError, match="at least 16px"):
        FunctionalPoint(model="vgg19", dataset_scale="tiny")
    with pytest.raises(ValueError, match="unknown model"):
        FunctionalPoint(model="not-a-model")
    # Compatible pairings and the transformer construct fine.
    FunctionalPoint(model="vgg19", dataset_scale="small")
    FunctionalPoint(model="alexnet", dataset_scale="paper")
    FunctionalPoint(model="transformer", dataset_scale="tiny")


def test_evaluation_is_exact_and_leaves_no_trace():
    """Validation runs engine-detached: accuracy is exact, the engine's
    statistics cover only training batches, and the engine is
    reattached afterwards."""
    from repro.core.reuse import ReuseEngine
    from repro.analysis.functional_sweep import (load_point_data,
                                                 mercury_config_for)
    from repro.models import build_model
    from repro.training import Trainer

    point = FunctionalPoint(model="squeezenet", epochs=1, seed=0)
    xtr, ytr, xte, yte, num_outputs = load_point_data(point)
    engine = ReuseEngine(mercury_config_for(point))
    model = build_model(point.model, num_classes=num_outputs, seed=0)
    trainer = Trainer(model, engine=engine)

    trainer.train_step(xtr[:4], ytr[:4])
    vectors_after_training = engine.stats.total_vectors
    accuracy = trainer.evaluate(xte, yte)
    assert engine.stats.total_vectors == vectors_after_training
    assert all(module.engine is engine for module in model.modules())
    assert 0.0 <= accuracy <= 1.0

    # Engine-attached measurement stays available on request.
    trainer.evaluate(xte, yte, use_engine=True)
    assert engine.stats.total_vectors > vectors_after_training


def test_point_data_is_deterministic_and_split():
    point = FunctionalPoint(model="squeezenet", seed=2)
    xtr1, ytr1, xte1, yte1, classes1 = load_point_data(point)
    xtr2, ytr2, xte2, yte2, classes2 = load_point_data(point)
    assert classes1 == classes2
    assert np.array_equal(xtr1, xtr2) and np.array_equal(ytr1, ytr2)
    assert np.array_equal(xte1, xte2) and np.array_equal(yte1, yte2)
    assert len(xte1) > 0 and len(xtr1) > len(xte1)
