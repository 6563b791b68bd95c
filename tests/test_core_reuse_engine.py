"""Tests for the MERCURY reuse engine and its configuration."""

import numpy as np
import pytest

from repro.core.config import MercuryConfig
from repro.core.reuse import ExactCountingEngine, ReuseEngine
from repro.core.signature import SignatureTable

RNG = np.random.default_rng(11)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_config_defaults_match_paper():
    config = MercuryConfig()
    assert config.signature_bits == 20
    assert config.mcache_entries == 1024
    assert config.mcache_ways == 16
    assert config.mcache_entries // config.mcache_ways == 64
    assert config.dataflow == "row_stationary"
    assert config.num_pes == 168


def test_config_validation():
    with pytest.raises(ValueError):
        MercuryConfig(signature_bits=0)
    with pytest.raises(ValueError):
        MercuryConfig(signature_bits=100, max_signature_bits=64)
    with pytest.raises(ValueError):
        MercuryConfig(mcache_entries=100, mcache_ways=16)
    with pytest.raises(ValueError):
        MercuryConfig(dataflow="systolic")


def test_config_replace():
    config = MercuryConfig().replace(signature_bits=24)
    assert config.signature_bits == 24
    assert config.mcache_entries == 1024


# ----------------------------------------------------------------------
# Exact engines
# ----------------------------------------------------------------------
def test_exact_counting_engine_matches_numpy():
    engine = ExactCountingEngine()
    a = RNG.normal(size=(6, 4))
    b = RNG.normal(size=(4, 3))
    np.testing.assert_allclose(engine.matmul(a, b, layer="l"), a @ b)
    record = engine.stats.get("l", "forward")
    assert record.total_vectors == 6
    assert record.baseline_macs == 6 * 4 * 3


# ----------------------------------------------------------------------
# Reuse engine core behaviour
# ----------------------------------------------------------------------
def test_identical_rows_are_merged_exactly():
    engine = ReuseEngine(MercuryConfig(signature_bits=16,
                                       adaptive_stoppage=False))
    row = RNG.normal(size=9)
    vectors = np.vstack([row, row, row + 1.0])
    weights = RNG.normal(size=(9, 4))
    out = engine.matmul(vectors, weights, layer="conv", phase="forward")
    np.testing.assert_allclose(out[0], out[1])
    record = engine.stats.get("conv", "forward")
    assert record.hits == 1
    assert record.mau >= 1


def test_result_is_close_to_exact_for_similar_rows():
    engine = ReuseEngine(MercuryConfig(signature_bits=24,
                                       adaptive_stoppage=False))
    base = RNG.normal(size=(40, 9))
    vectors = np.vstack([base, base + RNG.normal(0, 1e-6, size=base.shape)])
    weights = RNG.normal(size=(9, 8))
    approx = engine.matmul(vectors, weights, layer="conv")
    exact = vectors @ weights
    assert np.max(np.abs(approx - exact)) < 1e-3


def test_shape_validation():
    engine = ReuseEngine()
    with pytest.raises(ValueError):
        engine.matmul(np.ones((2, 3)), np.ones((4, 2)), layer="x")
    with pytest.raises(ValueError):
        engine.matmul(np.ones(3), np.ones((3, 2)), layer="x")


def test_disabled_forward_reuse_is_exact():
    engine = ReuseEngine(MercuryConfig(adaptive_stoppage=True))
    engine.stoppage.force_disable("fc", "forward")
    vectors = RNG.normal(size=(10, 5))
    weights = RNG.normal(size=(5, 3))
    out = engine.matmul(vectors, weights, layer="fc", phase="forward")
    np.testing.assert_allclose(out, vectors @ weights)
    record = engine.stats.get("fc", "forward")
    assert record.hits == 0
    assert not record.similarity_detection_on


def test_backward_reuses_forward_signatures_when_shapes_match():
    engine = ReuseEngine(MercuryConfig(signature_bits=16,
                                       adaptive_stoppage=False))
    vectors = RNG.normal(size=(20, 9))
    weights = RNG.normal(size=(9, 9))
    engine.matmul(vectors, weights, layer="conv", phase="forward")
    engine.matmul(vectors, weights, layer="conv", phase="backward")
    backward = engine.stats.get("conv", "backward")
    assert backward.signature_reloaded_vectors == 20
    assert backward.signature_computed_vectors == 0


def test_backward_recomputes_when_shapes_differ():
    engine = ReuseEngine(MercuryConfig(signature_bits=16,
                                       adaptive_stoppage=False))
    engine.matmul(RNG.normal(size=(20, 9)), RNG.normal(size=(9, 4)),
                  layer="conv", phase="forward")
    engine.matmul(RNG.normal(size=(20, 4)), RNG.normal(size=(4, 9)),
                  layer="conv", phase="backward")
    backward = engine.stats.get("conv", "backward")
    assert backward.signature_computed_vectors == 20
    assert backward.signature_reloaded_vectors == 0


def test_signature_table_records_forward_layers():
    engine = ReuseEngine(MercuryConfig(adaptive_stoppage=False))
    engine.matmul(RNG.normal(size=(5, 9)), RNG.normal(size=(9, 2)),
                  layer="conv1")
    assert "conv1" in engine.signature_table
    assert isinstance(engine.signature_table, SignatureTable)


def test_mcache_capacity_limits_hits():
    tiny = MercuryConfig(signature_bits=8, mcache_entries=2, mcache_ways=1,
                         adaptive_stoppage=False)
    engine = ReuseEngine(tiny)
    vectors = RNG.normal(size=(200, 6))
    engine.matmul(vectors, RNG.normal(size=(6, 3)), layer="conv")
    record = engine.stats.get("conv", "forward")
    assert record.mnu > 0
    assert record.mau <= 2


def test_stoppage_disables_unprofitable_layer():
    config = MercuryConfig(signature_bits=20, stoppage_batches=2,
                           adaptive_signature_length=False)
    engine = ReuseEngine(config)
    # Few filters (2) so signature cost dwarfs any saving.
    vectors = RNG.normal(size=(50, 9))
    weights = RNG.normal(size=(9, 2))
    for _ in range(3):
        engine.matmul(vectors, weights, layer="small", phase="forward")
        engine.end_iteration(loss=1.0)
    assert not engine.stoppage.is_enabled_for("small", "forward")
    # Once disabled the engine computes exactly and records detection off.
    engine.matmul(vectors, weights, layer="small", phase="forward")
    assert not engine.batch_stats.get("small", "forward").similarity_detection_on


def test_signature_length_grows_on_plateau():
    config = MercuryConfig(signature_bits=10, plateau_iterations=3,
                           loss_plateau_tolerance=1e-2,
                           adaptive_stoppage=False)
    engine = ReuseEngine(config)
    for _ in range(10):
        engine.end_iteration(loss=1.0)
    assert engine.signature_bits > 10


def test_end_iteration_clears_batch_stats():
    engine = ReuseEngine(MercuryConfig(adaptive_stoppage=False))
    engine.matmul(RNG.normal(size=(5, 4)), RNG.normal(size=(4, 2)), layer="l")
    assert engine.batch_stats.total_vectors == 5
    engine.end_iteration(loss=1.0)
    assert engine.batch_stats.total_vectors == 0
    assert engine.stats.total_vectors == 5
