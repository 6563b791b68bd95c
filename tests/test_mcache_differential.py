"""Differential tests: the line-level MCACHE oracle vs production.

The line-level :class:`~tests.oracles.mcache.MCache` is the reference
model; every test replays a trace through it and through a flash
:class:`~repro.core.session.ReuseSession` (``classify``), a serving
:class:`~repro.serving.cache.SignatureResultCache` (its probe-and-admit
step, or ``serve``) or a ``ReuseEngine`` and
requires bit-identical Hitmap states, representatives, entry ids, stats
counters and served results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.reuse import ReuseEngine
from repro.core.rpq import RPQHasher
from repro.core.session import ReuseSession
from repro.nn.im2col import im2col
from tests.helpers import assert_simulations_equal, capture_classified
from tests.oracles.differential import (run_differential,
                                        run_serve_differential,
                                        scalar_reference_simulation)
from tests.oracles.engine import scalar_engine
from tests.oracles.signatures import ints_to_words

GEOMETRIES = [(8, 1, 1), (8, 2, 1), (16, 4, 2), (64, 16, 1), (4, 4, 3)]


def classify(trace, entries: int, ways: int):
    """The training engine's Hitmap: the signature phase's classify."""
    return ReuseSession(entries, ways).classify(trace)


# ----------------------------------------------------------------------
# Signature phase: fresh-cache simulation equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entries,ways,versions", GEOMETRIES)
def test_simulation_matches_oracle_on_random_traces(entries, ways, versions,
                                                    make_trace):
    for seed, pool in ((0, 5), (1, 40), (2, 500)):
        trace = make_trace(300, pool_size=pool, seed=seed)
        ours = classify(trace, entries, ways)
        oracle = scalar_reference_simulation(trace,
                                             num_sets=entries // ways,
                                             ways=ways)
        assert_simulations_equal(ours, oracle)


@settings(deadline=None)
@given(signatures=st.lists(st.integers(0, 300), max_size=120),
       geometry=st.sampled_from(GEOMETRIES))
def test_simulation_matches_oracle_property(signatures, geometry):
    entries, ways, _ = geometry
    trace = np.array(signatures, dtype=np.int64)
    assert_simulations_equal(
        classify(trace, entries, ways),
        scalar_reference_simulation(trace, num_sets=entries // ways,
                                    ways=ways))


@settings(deadline=None)
@given(signatures=st.lists(st.integers(0, 60), min_size=1, max_size=100),
       chunks=st.lists(st.integers(1, 17), min_size=1, max_size=5),
       geometry=st.sampled_from(GEOMETRIES))
def test_persistent_chunked_replay_property(signatures, chunks, geometry):
    """Batched replay against persistent state equals probe-at-a-time."""
    entries, ways, _ = geometry
    report = run_differential(np.array(signatures, dtype=np.int64),
                              entries=entries, ways=ways,
                              chunk_sizes=chunks)
    assert report.identical, report.describe()


# ----------------------------------------------------------------------
# Data phase: the serving cache's result store vs the line-level VD bits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entries,ways,versions", GEOMETRIES)
def test_data_phase_differential(entries, ways, versions, make_trace):
    trace = make_trace(400, pool_size=30, seed=5)
    report = run_serve_differential(trace, entries=entries, ways=ways,
                                    versions=versions,
                                    chunk_sizes=[7, 31, 2])
    assert report.identical, report.describe()
    assert report.scalar_stats["inserted"] > 0


@pytest.mark.parametrize("entries,ways,versions", GEOMETRIES)
def test_flash_invalidate_differential(entries, ways, versions, make_trace):
    """VD bits diverge fastest around invalidation; diff that path hard."""
    trace = make_trace(500, pool_size=20, seed=6)
    report = run_serve_differential(trace, entries=entries, ways=ways,
                                    versions=versions, chunk_sizes=[13, 5],
                                    flash_invalidate=True)
    assert report.identical, report.describe()


def test_set_full_no_replacement_differential(make_trace):
    """A pool far larger than the cache keeps every set saturated."""
    trace = make_trace(600, pool_size=5000, seed=7)
    report = run_differential(trace, entries=16, ways=2, chunk_sizes=[64])
    assert report.identical, report.describe()
    assert report.scalar_stats["mnu"] > 0
    report = run_serve_differential(trace, entries=16, ways=2,
                                    chunk_sizes=[64])
    assert report.identical, report.describe()


def test_wide_signature_differential():
    rng = np.random.default_rng(8)
    pool = [(1 << 70) + int(v) for v in rng.integers(0, 40, size=40)]
    trace = ints_to_words([pool[i] for i in rng.integers(0, 40, size=200)])
    for replay in (run_differential, run_serve_differential):
        report = replay(trace, entries=16, ways=2, chunk_sizes=[9, 30])
        assert report.identical, report.describe()


def test_vgg13_conv2_trace_matches_oracle():
    """One channel of the VGG-13 conv2 layer at paper scale.

    112x112 output positions of 3x3 input vectors, hashed with the
    default 20-bit RPQ.  The feature map is piecewise constant over 8x8
    blocks, reproducing the high input similarity the paper measures in
    early conv layers (Figure 1): most patches repeat, with variety
    along block edges.
    """
    rng = np.random.default_rng(42)
    side = 112 + 3 - 1
    blocks = rng.normal(size=(side // 8 + 1, side // 8 + 1))
    image = np.repeat(np.repeat(blocks, 8, axis=0), 8, axis=1)[:side, :side]
    trace = RPQHasher(seed=1).signatures(im2col(image[None, None], 3, 3), 20)
    assert len(trace) == 112 * 112

    simulation = classify(trace, entries=1024, ways=16)
    assert_simulations_equal(
        simulation, scalar_reference_simulation(trace, num_sets=64, ways=16))
    assert simulation.hits > len(trace) // 2


def test_report_flags_real_divergence():
    """The harness itself must be able to see a difference."""
    report = run_differential([1, 1, 2], entries=4, ways=2)
    report.mismatches.append({"probe": 0})
    assert not report.identical
    assert "mismatches" in report.describe()


# ----------------------------------------------------------------------
# ReuseEngine vs the line-level Hitmaps
# ----------------------------------------------------------------------
def _clustered_vectors(rng, num_vectors=60, length=9, clusters=12):
    centers = rng.normal(size=(clusters, length))
    picks = rng.integers(0, clusters, size=num_vectors)
    return centers[picks] + rng.normal(0, 1e-9, size=(num_vectors, length))


def test_reuse_engine_backends_are_bit_identical(rng, mercury_config_grid):
    vectors = _clustered_vectors(rng)
    weights = rng.normal(size=(vectors.shape[1], 6))
    outputs = {}
    records = {}
    for name, build in (("production", ReuseEngine),
                        ("oracle", scalar_engine)):
        engine = build(mercury_config_grid)
        outputs[name] = engine.matmul(vectors, weights, layer="conv",
                                      phase="forward")
        records[name] = engine.stats.get("conv", "forward")
    np.testing.assert_array_equal(outputs["production"], outputs["oracle"])
    record, reference = records["production"], records["oracle"]
    assert (record.hits, record.mau, record.mnu) == \
        (reference.hits, reference.mau, reference.mnu)
    assert record.unique_signatures == reference.unique_signatures


def test_vectorized_backend_accumulates_mcache_stats(rng):
    config = MercuryConfig(signature_bits=12, mcache_entries=64,
                           mcache_ways=4, adaptive_stoppage=False)
    engine = ReuseEngine(config)
    captured = capture_classified(engine)
    vectors = _clustered_vectors(rng)
    weights = rng.normal(size=(vectors.shape[1], 4))
    engine.matmul(vectors, weights, layer="conv", phase="forward")
    # The one ledger records exactly the Hitmap the call classified.
    ((_, simulation),) = captured
    record = engine.stats.get("conv", "forward")
    assert record.hits + record.mau + record.mnu == len(vectors)
    assert (simulation.hits, simulation.mau, simulation.mnu,
            simulation.unique_signatures) == \
        (record.hits, record.mau, record.mnu, record.unique_signatures)
    assert simulation.hits > 0


def test_backends_identical_with_wide_signatures(rng):
    config = MercuryConfig(signature_bits=70, max_signature_bits=80,
                           mcache_entries=32, mcache_ways=4,
                           adaptive_stoppage=False,
                           adaptive_signature_length=False)
    vectors = _clustered_vectors(rng, num_vectors=30)
    weights = rng.normal(size=(vectors.shape[1], 3))
    results = [build(config).matmul(vectors, weights, layer="l")
               for build in (ReuseEngine, scalar_engine)]
    np.testing.assert_array_equal(results[0], results[1])


def test_groupby_simulation_still_matches_oracle(make_trace):
    """Guards the pre-existing stateless path against regressions too."""
    trace = make_trace(250, pool_size=35, seed=9)
    assert_simulations_equal(
        simulate_hitmap(trace, num_sets=8, ways=2),
        scalar_reference_simulation(trace, num_sets=8, ways=2))
