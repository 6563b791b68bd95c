"""Tests for the adaptation policies, signature table and statistics."""

import numpy as np
import pytest

from repro.core.adaptation import SignatureLengthScheduler, SimilarityStoppage
from repro.core.signature import SignatureTable
from repro.core.stats import LayerReuseStats, ReuseStats


# ----------------------------------------------------------------------
# Signature length scheduler
# ----------------------------------------------------------------------
def test_scheduler_grows_after_plateau():
    scheduler = SignatureLengthScheduler(initial_bits=20, plateau_iterations=3,
                                         tolerance=1e-3)
    for _ in range(4):
        bits = scheduler.observe_loss(1.0)
    assert bits == 21
    assert scheduler.growth_events


def test_scheduler_resets_on_improvement():
    scheduler = SignatureLengthScheduler(initial_bits=20, plateau_iterations=3,
                                         tolerance=1e-3)
    losses = [1.0, 1.0, 0.8, 0.8, 0.6, 0.6]
    for loss in losses:
        bits = scheduler.observe_loss(loss)
    assert bits == 20


def test_scheduler_respects_max_bits():
    scheduler = SignatureLengthScheduler(initial_bits=20, max_bits=21,
                                         plateau_iterations=1, tolerance=1.0)
    for _ in range(10):
        bits = scheduler.observe_loss(1.0)
    assert bits == 21


def test_scheduler_validation():
    with pytest.raises(ValueError):
        SignatureLengthScheduler(initial_bits=0)
    with pytest.raises(ValueError):
        SignatureLengthScheduler(initial_bits=20, max_bits=10)


# ----------------------------------------------------------------------
# Stoppage
# ----------------------------------------------------------------------
def _record(hits, vectors=100, vector_length=9, filters=64, bits=20):
    record = LayerReuseStats(layer="conv", phase="forward")
    record.merge_call(vectors=vectors, hits=hits, mau=vectors - hits, mnu=0,
                      vector_length=vector_length, num_filters=filters,
                      signature_bits=bits, unique_signatures=vectors - hits,
                      detection_on=True)
    return record


def test_stoppage_disables_after_consecutive_costly_batches():
    stoppage = SimilarityStoppage(stoppage_batches=2)
    costly = _record(hits=1, filters=2)   # almost nothing saved
    assert stoppage.observe_batch(costly)
    assert not stoppage.observe_batch(costly)
    assert not stoppage.is_enabled_for("conv", "forward")
    assert "conv::forward" in stoppage.disabled_layers()


def test_stoppage_keeps_profitable_layer_enabled():
    stoppage = SimilarityStoppage(stoppage_batches=2)
    profitable = _record(hits=60, filters=256)
    for _ in range(10):
        assert stoppage.observe_batch(profitable)
    assert stoppage.is_enabled_for("conv", "forward")


def test_stoppage_consecutive_counter_resets():
    stoppage = SimilarityStoppage(stoppage_batches=2)
    costly = _record(hits=1, filters=2)
    profitable = _record(hits=60, filters=256)
    stoppage.observe_batch(costly)
    stoppage.observe_batch(profitable)   # breaks the streak
    stoppage.observe_batch(costly)
    assert stoppage.is_enabled_for("conv", "forward")


def test_stoppage_cost_model_pipelining_halves_cost():
    pipelined = SimilarityStoppage(pipelined_signatures=True)
    plain = SimilarityStoppage(pipelined_signatures=False)
    kwargs = dict(num_vectors=100, vector_length=9, signature_bits=20)
    assert plain.signature_cost_cycles(**kwargs) == \
        2 * pipelined.signature_cost_cycles(**kwargs)


def test_force_disable_and_reset():
    stoppage = SimilarityStoppage()
    stoppage.force_disable("conv", "forward")
    assert not stoppage.is_enabled_for("conv", "forward")
    stoppage.reset()
    assert stoppage.is_enabled_for("conv", "forward")


# ----------------------------------------------------------------------
# Signature table
# ----------------------------------------------------------------------
def test_signature_table_store_and_lookup():
    table = SignatureTable()
    sigs = np.array([1, 2, 3])
    table.store("conv", vector_length=9, signature_bits=20, signatures=sigs)
    record = table.lookup("conv", vector_length=9, num_vectors=3)
    assert record is not None
    assert list(record.signatures) == [1, 2, 3]


def test_signature_table_lookup_rejects_mismatched_shapes():
    table = SignatureTable()
    table.store("conv", 9, 20, np.array([1, 2, 3]))
    assert table.lookup("conv", vector_length=4, num_vectors=3) is None
    assert table.lookup("conv", vector_length=9, num_vectors=5) is None
    assert table.lookup("other", vector_length=9, num_vectors=3) is None


def test_signature_table_discard_and_clear():
    table = SignatureTable()
    table.store("a", 9, 20, np.array([1]))
    table.store("b", 9, 20, np.array([2]))
    table.discard("a")
    assert "a" not in table and "b" in table
    table.clear()
    assert len(table) == 0


# ----------------------------------------------------------------------
# ReuseStats
# ----------------------------------------------------------------------
def test_layer_stats_derived_quantities():
    record = _record(hits=30, vectors=100, vector_length=9, filters=10)
    assert record.hit_fraction == 0.3
    assert record.computed_vectors == 70
    assert record.skipped_macs == 30 * 9 * 10
    assert record.baseline_macs == 100 * 9 * 10
    assert record.computed_vectors * 9 * 10 + record.skipped_macs == \
        record.baseline_macs


def test_reuse_stats_aggregation():
    stats = ReuseStats()
    for layer, hits in (("a", 10), ("b", 20)):
        record = stats.record_for(layer, "forward")
        record.merge_call(vectors=50, hits=hits, mau=50 - hits, mnu=0,
                          vector_length=9, num_filters=4, signature_bits=20,
                          unique_signatures=50 - hits, detection_on=True)
    assert stats.total_vectors == 100
    assert stats.total_hits == 30
    assert stats.overall_hit_fraction == 0.3
    assert 0 < stats.mac_reduction() < 1
    assert set(stats.layers()) == {"a", "b"}
    summary = stats.summary()
    assert summary["layers"] == 2


def test_reuse_stats_empty_edge_cases():
    stats = ReuseStats()
    assert stats.overall_hit_fraction == 0.0
    assert stats.mac_reduction() == 0.0
    assert stats.get("missing", "forward") is None


def test_record_for_is_idempotent():
    stats = ReuseStats()
    first = stats.record_for("x", "forward")
    second = stats.record_for("x", "forward")
    assert first is second
