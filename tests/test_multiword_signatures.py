"""End-to-end coverage of the >62-bit (multi-word) signature path.

Signatures longer than 62 bits pack into ``(n_vectors, n_words)``
``uint64`` rows (:mod:`repro.core.rpq`).  These tests drive that
representation through every Hitmap path — the stateless group-by
simulation, the training signature phase's classify and a serving
cache's probe-and-admit step over the batch MCACHE — against the line-level
oracle, and assert bit-identity throughout, then smoke a real training
run whose signature length crosses the multi-word boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.mcache_vec import VectorizedMCache
from repro.core.reuse import ReuseEngine
from repro.core.rpq import RPQHasher, signature_words, words_mod
from repro.core.session import ReuseSession
from repro.serving.cache import SignatureResultCache
from repro.serving.engine import ServingPolicy
from tests.oracles.differential import (probe_and_admit_rows,
                                        run_differential,
                                        run_serve_differential,
                                        scalar_reference_simulation)
from tests.oracles.engine import scalar_engine
from tests.oracles.mcache import MCache
from tests.oracles.signatures import ints_to_words, signatures_to_ints

GEOMETRIES = [(8, 1), (8, 2), (16, 4), (64, 16), (4, 4)]

# Pools of signature values that exercise 1..3-word rows and collide in
# both the set index and the full value.
wide_values = st.integers(0, (1 << 100) - 1)


def wide_trace(draw_values, picks):
    pool = np.array(draw_values, dtype=object)
    return pool[np.array(picks) % len(pool)]


@settings(deadline=None)
@given(values=st.lists(wide_values, min_size=1, max_size=25),
       picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=80),
       geometry=st.sampled_from(GEOMETRIES))
def test_multiword_simulations_match_oracle(values, picks, geometry):
    """Fresh-cache Hitmaps agree with the line-level oracle."""
    entries, ways = geometry
    trace_ints = wide_trace(values, picks)
    trace_words = ints_to_words(trace_ints)

    oracle = scalar_reference_simulation(trace_ints,
                                         num_sets=entries // ways, ways=ways)
    groupby = simulate_hitmap(trace_words, num_sets=entries // ways,
                              ways=ways)
    vectorized = ReuseSession(entries, ways).classify(trace_words)

    for simulation in (groupby, vectorized):
        assert list(simulation.states) == list(oracle.states)
        assert list(simulation.representative) == list(oracle.representative)
        assert (simulation.hits, simulation.mau, simulation.mnu,
                simulation.unique_signatures) == \
            (oracle.hits, oracle.mau, oracle.mnu, oracle.unique_signatures)


@settings(deadline=None)
@given(values=st.lists(wide_values, min_size=1, max_size=15),
       picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
       chunks=st.lists(st.integers(1, 13), min_size=1, max_size=4),
       geometry=st.sampled_from(GEOMETRIES))
def test_multiword_persistent_replay_property(values, picks, chunks,
                                              geometry):
    """Chunked replay against persistent state, data phase included."""
    entries, ways = geometry
    trace_words = ints_to_words(wide_trace(values, picks))
    for replay in (run_differential, run_serve_differential):
        report = replay(trace_words, entries=entries, ways=ways,
                        chunk_sizes=chunks)
        assert report.identical, report.describe()


def test_uint64_signatures_beyond_int63_stay_exact():
    """Values >= 2^63 must not wrap through int64: a 1-D uint64 batch is
    refused, and the multi-word form keeps oracle bit-identity."""
    values = [(1 << 63) + 7, 5, (1 << 64) - 1, 5, (1 << 63) + 7]
    cache = SignatureResultCache(ServingPolicy(entries=8, ways=2))
    with pytest.raises(ValueError):
        cache.mcache.insert(np.array(values, dtype=np.uint64))
    states, entry_ids = probe_and_admit_rows(cache, ints_to_words(values))

    oracle = MCache(entries=8, ways=2)
    for offset, value in enumerate(values):
        state, entry_id = oracle.lookup_or_insert(value)
        assert state.code == states[offset]
        assert oracle.slot(entry_id) == int(entry_ids[offset])


def test_non_integral_float_signatures_are_rejected():
    """Float batches that do not round-trip through int64 must fail
    loudly instead of truncating 0.5 and 0.0 into the same signature."""
    with pytest.raises(ValueError, match="not an exact integer"):
        ints_to_words([0.5, 0.0])
    cache = VectorizedMCache(entries=8, ways=2)
    for floats in ([0.5, 0.0], [3.0, 3.0]):
        with pytest.raises(ValueError, match="1-D int64 or 2-D uint64"):
            cache.insert(np.array(floats))
    assert cache.occupancy() == 0


def test_probe_batch_is_non_mutating_across_representations():
    """Read-only probes never fix the tag format and never claim a
    line; once an insert has fixed it, a probe in the other format is
    refused."""
    cache = VectorizedMCache(entries=8, ways=2)
    cache.insert([5])
    cache.clear()                          # leaves the cache clean
    assert cache.occupancy() == 0

    wide = ints_to_words([(1 << 70) + 3, 5, (1 << 64) - 5])
    present, entry_ids = cache.probe_batch(wide)
    # Cache was cleared: everything misses, nothing mutates.
    assert not present.any() and (entry_ids == -1).all()
    assert cache.occupancy() == 0

    cache.insert([5])                      # fixes the int64 format
    with pytest.raises(ValueError, match="one signature length"):
        cache.probe_batch(wide)
    assert cache.probe_batch([5])[0].tolist() == [True]
    cache.clear()
    cache.insert(ints_to_words([(1 << 70) + 3, 9]))
    with pytest.raises(ValueError, match="one signature length"):
        cache.probe_batch(np.array([9, 10], dtype=np.int64))
    present, _ = cache.probe_batch(ints_to_words([9, 10], num_words=2))
    assert list(present) == [True, False]


def test_probe_batch_uint64_beyond_int63_is_exact():
    """Probes >= 2^63 must not wrap through int64: the exact resident
    value matches, its neighbour does not, and a 1-D uint64 probe is
    refused."""
    cache = VectorizedMCache(entries=8, ways=2)
    cache.insert(ints_to_words([(1 << 63) + 7]))
    present, entry_ids = cache.probe_batch(
        ints_to_words([(1 << 63) + 7, (1 << 63) + 8]))
    assert list(present) == [True, False]
    assert entry_ids[0] >= 0
    with pytest.raises(ValueError):
        cache.probe_batch(np.array([(1 << 63) + 7], dtype=np.uint64))


def test_signature_words_round_trip_representations():
    values = [0, 1, (1 << 62) - 1, 1 << 63, (1 << 100) + 12345]
    words = signature_words(ints_to_words(values))
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(
        signature_words(np.array(values[:3], dtype=np.int64)),
        ints_to_words(values[:3]))
    assert [int(v) for v in signatures_to_ints(words)] == values
    # Padding preserves value.
    padded = signature_words(words, num_words=4)
    assert padded.shape[1] == 4
    assert [int(v) for v in signatures_to_ints(padded)] == values


@settings(deadline=None, max_examples=30)
@given(values=st.lists(wide_values, min_size=1, max_size=30),
       modulus=st.integers(1, 1 << 20))
def test_words_mod_matches_python_ints(values, modulus):
    words = ints_to_words(values)
    expected = [value % modulus for value in values]
    assert list(words_mod(words, modulus)) == expected


def test_hasher_emits_multiword_beyond_62_bits():
    hasher = RPQHasher(seed=3)
    vectors = np.random.default_rng(0).normal(size=(20, 9))
    sigs = hasher.signatures(vectors, 70)
    assert sigs.ndim == 2 and sigs.shape == (20, 2)
    assert sigs.dtype == np.uint64
    # Similarity analyses accept the representation directly.
    assert 0.0 <= hasher.similarity_fraction(vectors, 70) <= 1.0
    assert 1 <= hasher.unique_vector_count(vectors, 70) <= 20


def test_reuse_engine_backends_identical_at_96_bits(rng):
    config = MercuryConfig(signature_bits=96, max_signature_bits=96,
                           mcache_entries=32, mcache_ways=4,
                           adaptive_stoppage=False,
                           adaptive_signature_length=False)
    centers = rng.normal(size=(10, 9))
    picks = rng.integers(0, 10, size=50)
    vectors = centers[picks] + rng.normal(0, 1e-9, size=(50, 9))
    weights = rng.normal(size=(9, 4))
    outputs = []
    for build in (ReuseEngine, scalar_engine):
        engine = build(config)
        outputs.append(engine.matmul(vectors, weights, layer="conv"))
        record = engine.stats.get("conv", "forward")
        assert record.hits > 0          # wide signatures still find reuse
    np.testing.assert_array_equal(outputs[0], outputs[1])


def test_functional_training_smoke_beyond_62_bits():
    """A real (tiny) training run at a 70-bit signature length."""
    from repro.analysis.functional_sweep import (FunctionalPoint,
                                                 evaluate_functional_point)
    point = FunctionalPoint(model="squeezenet", signature_bits=70,
                            epochs=1, seed=0)
    row = evaluate_functional_point(point)
    assert row["final_signature_bits"] >= 70
    assert np.isfinite(row["reuse_final_loss"])
    assert 0.0 <= row["reuse_accuracy"] <= 1.0
    assert 0.0 <= row["hit_fraction"] <= 1.0


def test_functional_backends_bit_identical_beyond_62_bits():
    """Production and line-level Hitmaps train bit-identically at 70 bits
    end to end."""
    from repro.analysis.functional_sweep import (FunctionalPoint,
                                                 mercury_config_for,
                                                 train_point)
    point = FunctionalPoint(model="squeezenet", signature_bits=70,
                            epochs=1, seed=1)
    runs = [train_point(point, build(mercury_config_for(point)))[0]
            for build in (ReuseEngine, scalar_engine)]
    assert runs[0].iteration_losses == runs[1].iteration_losses
    assert runs[0].final_validation_accuracy == \
        runs[1].final_validation_accuracy
