"""Unit tests for the persistent batch MCACHE, the serving cache's
probe-and-admit path over it and the hit ledgers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eviction import EVICTION_POLICIES
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.mcache_vec import VectorizedMCache
from repro.core.session import ReuseSession
from repro.serving.cache import ADMISSION_POLICIES, SignatureResultCache
from repro.serving.engine import ServingPolicy
from tests.helpers import assert_simulations_equal
from tests.oracles.differential import probe_and_admit_rows
from tests.oracles.hitmap import CODE_TO_STATE, Hitmap, HitState
from tests.oracles.signatures import ints_to_words


def _session(entries: int, ways: int) -> SignatureResultCache:
    return SignatureResultCache(ServingPolicy(entries=entries, ways=ways))


def _state_names(codes) -> list[str]:
    return [CODE_TO_STATE[code].value for code in codes]


def test_geometry_validation():
    with pytest.raises(ValueError):
        VectorizedMCache(entries=100, ways=16)
    with pytest.raises(ValueError):
        VectorizedMCache(entries=0, ways=1)
    cache = VectorizedMCache(entries=1024, ways=16)
    assert cache.num_sets == 64


def test_first_lookup_is_mau_then_hit():
    cache = VectorizedMCache(entries=16, ways=4)
    entry = int(cache.insert([123])[0])
    assert entry >= 0 and cache.occupancy() == 1
    present, entries = cache.probe_batch([123])
    assert present[0] and entries[0] == entry


def test_full_set_gives_mnu_no_replacement():
    cache = VectorizedMCache(entries=4, ways=2)  # 2 sets, 2 ways
    assert cache.insert([0, 2]).tolist() == [0, 1]
    # Set 0 is full: no line, no replacement.
    assert cache.insert([4]).tolist() == [-1]
    assert cache.probe_batch([4, 0])[1].tolist() == [-1, 0]
    assert cache.occupancy() == 2


def test_insert_claims_ways_per_set_in_arrival_order():
    cache = VectorizedMCache(entries=4, ways=2)  # even -> set 0, odd -> 1
    # A line's entry id is its slot set * ways + way.
    assert cache.insert([1]).tolist() == [2]
    # Set 1 has one free way left, set 0 two: 3 claims it, 5 does not.
    assert cache.insert([3, 0, 5, 2, 4]).tolist() == [3, 0, -1, 1, -1]
    slots, signatures = cache.resident()
    assert slots.tolist() == [0, 1, 2, 3]
    assert signatures.tolist() == [0, 2, 1, 3]


def test_batch_mixes_hits_maus_and_mnus():
    session = _session(entries=2, ways=1)  # 2 sets, 1 way
    # Even signatures -> set 0, odd -> set 1.
    states, entries = probe_and_admit_rows(session, np.array([0, 0, 2, 1,
                                                              0, 3]))
    assert states.dtype == np.int8
    assert _state_names(states) == ["MAU", "HIT", "MNU", "MAU", "HIT", "MNU"]
    assert entries[0] == entries[1] == entries[4]
    assert entries[2] == -1 and entries[5] == -1
    # Inserts persist across batches.
    states2, entries2 = probe_and_admit_rows(session, np.array([0, 1, 4]))
    assert _state_names(states2) == ["HIT", "HIT", "MNU"]
    assert entries2[0] == entries[0] and entries2[1] == entries[3]


def test_empty_batch():
    cache = VectorizedMCache(entries=4, ways=2)
    assert len(cache.insert([])) == 0
    present, entries = cache.probe_batch([])
    assert len(present) == 0 and len(entries) == 0
    assert cache.occupancy() == 0 and len(cache.resident()[0]) == 0
    assert ReuseSession(4, 2).classify(
        np.empty(0, dtype=np.int64)).unique_signatures == 0


def test_probe_does_not_insert():
    cache = VectorizedMCache(entries=8, ways=2)
    assert cache.probe_batch([5])[1].tolist() == [-1]
    assert cache.occupancy() == 0
    cache.insert([5])
    present_batch, ids = cache.probe_batch([5, 6])
    assert list(present_batch) == [True, False]
    assert ids[0] >= 0 and ids[1] == -1
    assert cache.occupancy() == 1


def test_clear_resets_everything():
    cache = VectorizedMCache(entries=8, ways=2)
    cache.insert([1, 3])
    cache.clear()
    assert cache.occupancy() == 0
    assert cache.insert([1]).tolist() == [2]     # set 1, way 0
    # A clear also frees the tag format for a new signature length.
    cache.clear()
    wide = ints_to_words([(1 << 70) + 1])
    assert cache.insert(wide).tolist() == [2]
    assert cache.probe_batch(wide)[1].tolist() == [2]


def test_stats_counters():
    session = ReuseSession(entries=4, ways=1)  # 4 sets, direct mapped
    # MAU, HIT, MNU (set 0 full): the Hitmap carries its own counts,
    # which the training engine merges into its one ledger, ReuseStats.
    simulation = session.classify(np.array([0, 0, 4]))
    assert (simulation.hits, simulation.mau, simulation.mnu) == (1, 1, 1)
    assert simulation.unique_signatures == 2
    assert session.clears == 1
    # The serving cache's one ledger is its CacheCounters: a 12-row
    # batch of 6 distinct rows, served three times, hits on every row
    # but the 6 first computes.
    cache = SignatureResultCache(ServingPolicy(entries=64, ways=4,
                                               signature_bits=32))
    pool = np.random.default_rng(0).normal(size=(6, 5))
    batch = np.concatenate([pool, pool])
    for batch_index in range(3):
        cache.serve(batch, lambda rows: batch[rows] @ np.ones((5, 2)),
                    batch_index)
    counters = cache.counters
    assert (counters.requests, counters.cross_hits, counters.intra_hits,
            counters.computed) == (36, 24, 6, 6)


def _row_by_row(rows, weights):
    """Products whose bits never depend on their batch-mates."""
    return np.array([row @ weights for row in rows]).reshape(-1, 2)


@given(eviction=st.sampled_from(EVICTION_POLICIES),
       admission=st.sampled_from(ADMISSION_POLICIES),
       ttl=st.sampled_from([None, 0, 2]), exact_check=st.booleans(),
       signature_bits=st.sampled_from([6, 12]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_counters_conserve_rows(eviction, admission, ttl, exact_check,
                                signature_bits, seed):
    """Every served row is a cross hit, an intra hit, a computed unique
    or an aliased compute, under every policy and with pushes between
    batches; over the run, requests split into hits and computes."""
    policy = ServingPolicy(entries=8, ways=2, signature_bits=signature_bits,
                           eviction=eviction, admission=admission,
                           admission_max_bytes=32 if admission == "size"
                           else None,
                           ttl_batches=ttl, exact_check=exact_check)
    cache = SignatureResultCache(policy)
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(int(rng.integers(2, 24)),
                            int(rng.choice([3, 6]))))
    weights = rng.normal(size=(pool.shape[1], 2))
    for batch_index in range(int(rng.integers(1, 8))):
        batch = pool[rng.integers(0, len(pool),
                                  size=int(rng.integers(1, 16)))]
        served, outcome = cache.serve(
            batch, lambda rows, b=batch: _row_by_row(b[rows], weights),
            batch_index)
        assert outcome.rows == len(batch) == (
            outcome.cross_hit_rows + outcome.intra_hit_rows
            + outcome.computed_unique + outcome.aliased_rows)
        assert outcome.unique == (outcome.reused_unique
                                  + outcome.computed_unique)
        if exact_check:
            np.testing.assert_array_equal(served,
                                          _row_by_row(batch, weights))
        for row in pool[rng.integers(0, len(pool),
                                     size=int(rng.integers(0, 3)))]:
            cache.admit_external(row, row @ weights, batch_index)
    counters = cache.counters
    assert counters.requests == counters.hits + counters.computed


def test_utilization():
    cache = VectorizedMCache(entries=8, ways=2)
    assert cache.occupancy() == 0
    cache.insert([3])
    assert cache.occupancy() / cache.entries == 1 / 8


def test_simulate_matches_groupby_simulation(make_trace):
    trace = make_trace(500, pool_size=80, seed=3)
    session = ReuseSession(entries=64, ways=4)
    ours = session.classify(trace)
    reference = simulate_hitmap(trace, num_sets=16, ways=4)
    assert_simulations_equal(ours, reference)
    # Every classify sees a fresh cache, so a second run is identical.
    assert_simulations_equal(session.classify(trace), ours)
    assert session.clears == 2


def test_simulate_to_hitmap_round_trip(make_trace):
    trace = make_trace(100, pool_size=20, seed=4)
    hitmap = Hitmap.from_simulation(
        ReuseSession(entries=16, ways=2).classify(trace))
    counts = hitmap.counts()
    assert counts[None] == 0
    assert counts[HitState.HIT] + counts[HitState.MAU] + \
        counts[HitState.MNU] == 100


def test_wide_signatures_fill_the_words_store():
    """Multi-word batches keep full-value words per line."""
    session = _session(entries=4, ways=2)
    # 2 sets x 2 ways; +0/+2/+4 land in set 0, so +4 finds it full.
    wide = ints_to_words([(1 << 70) + k for k in (0, 1, 0, 2, 4)])
    states, entries = probe_and_admit_rows(session, wide)
    assert _state_names(states) == ["MAU", "MAU", "HIT", "MAU", "MNU"]
    assert entries.tolist() == [0, 2, 0, 1, -1]
    slots, signatures = session.mcache.resident()
    assert slots.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(signatures, wide[[0, 3, 1]])
    states2, _ = probe_and_admit_rows(session,
                                      ints_to_words([(1 << 70) + 1]))
    assert _state_names(states2) == ["HIT"]


def test_a_batch_in_the_other_format_is_refused():
    """The first insert fixes the tag format; a batch in the other one
    (int64 after words, words after int64, or words of another width)
    is refused and leaves the store unchanged."""
    for resident, other in (
            (np.array([4, 7], dtype=np.int64), ints_to_words([4, 9])),
            (ints_to_words([4, 7]), np.array([4, 9], dtype=np.int64)),
            (ints_to_words([4, 7]), ints_to_words([4, 9], num_words=2))):
        cache = VectorizedMCache(entries=4, ways=2)
        cache.insert(resident)
        before = cache.resident()
        for call in (cache.insert, cache.probe_batch):
            with pytest.raises(ValueError, match="one signature length"):
                call(other)
        with pytest.raises(ValueError, match="one signature length"):
            cache.replace_line(0, 0, other[0])
        after = cache.resident()
        for was, now in zip(before, after):
            np.testing.assert_array_equal(was, now)
        assert cache.probe_batch(resident)[1].tolist() == \
            before[0][[0, 1]].tolist()


@pytest.mark.parametrize("signatures", [
    pytest.param(np.array([-3], dtype=np.int64), id="negative"),
    pytest.param(np.array([3, (1 << 70)], dtype=object), id="python-ints"),
    pytest.param(np.array([3.0, 3.0]), id="float"),
    pytest.param(np.array([3], dtype=np.uint64), id="1d-uint64"),
    pytest.param(np.array([[3]], dtype=np.int64), id="2d-int64"),
])
def test_unpacked_signatures_are_rejected(signatures):
    """Only non-negative 1-D int64 or 2-D uint64 words are signatures."""
    cache = VectorizedMCache(entries=4, ways=2)
    with pytest.raises(ValueError):
        cache.insert(signatures)
    with pytest.raises(ValueError):
        cache.probe_batch(signatures)
    with pytest.raises(ValueError):
        simulate_hitmap(signatures, num_sets=2, ways=2)
    assert cache.occupancy() == 0


def test_replace_line_keeps_the_entry_id():
    cache = VectorizedMCache(entries=2, ways=2)   # one set, two ways
    entries = cache.insert([4, 6])
    assert cache.replace_line(0, 1, 8) == entries[1] == 1
    assert cache.probe_batch([6, 8])[1].tolist() == [-1, entries[1]]
    assert cache.occupancy() == 2
