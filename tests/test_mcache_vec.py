"""Unit tests for the persistent batch MCACHE and its session path."""

import numpy as np
import pytest

from repro.core.hitmap import CODE_TO_STATE, HitState
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.mcache_vec import VectorizedMCache
from repro.core.session import ReuseSession, SessionPolicy
from tests.oracles.differential import probe_and_admit_rows
from tests.oracles.signatures import ints_to_words


def _session(entries: int, ways: int, persistent: bool = True):
    return ReuseSession(SessionPolicy(entries=entries, ways=ways),
                        persistent=persistent)


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
    assert entry >= 0 and cache.stats.mau == 1
    present, entries = cache.probe_batch([123])
    assert present[0] and entries[0] == entry


def test_full_set_gives_mnu_no_replacement():
    cache = VectorizedMCache(entries=4, ways=2)  # 2 sets, 2 ways
    assert cache.insert([0, 2]).tolist() == [0, 1]
    # Set 0 is full: no line, no replacement.
    assert cache.insert([4]).tolist() == [-1]
    assert cache.probe_batch([4, 0])[1].tolist() == [-1, 0]
    assert cache.stats.mau == 2 and cache.occupancy() == 2


def test_insert_claims_ways_per_set_in_arrival_order():
    cache = VectorizedMCache(entries=4, ways=2)  # even -> set 0, odd -> 1
    cache.insert([1])
    # Set 1 has one free way left, set 0 two: 3 claims it, 5 does not.
    assert cache.insert([3, 0, 5, 2, 4]).tolist() == [1, 2, -1, 3, -1]
    assert cache._line_entry.tolist() == [[2, 3], [0, 1]]


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
    assert not cache._dirty
    assert _session(4, 2, persistent=False).classify(
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
    cache.insert([1, 2])
    cache.clear()
    assert cache.occupancy() == 0
    assert cache.insert([1]).tolist() == [0]


def test_stats_counters():
    session = _session(entries=4, ways=1)  # 4 sets, direct mapped
    stats = session.mcache.stats
    session.classify([0, 0, 4])  # MAU, HIT, MNU (set 0 full)
    assert (stats.hits, stats.mau, stats.mnu) == (1, 1, 1)
    fractions = stats.as_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    # The persistent path counts each claimed line as a MAU and each
    # rejected signature as an MNU, once per batch.
    persistent = _session(entries=4, ways=1)
    probe_and_admit_rows(persistent, np.array([0, 0, 4]))
    stats = persistent.mcache.stats
    assert (stats.hits, stats.mau, stats.mnu) == (0, 1, 1)


def test_utilization():
    cache = VectorizedMCache(entries=8, ways=2)
    assert cache.occupancy() == 0
    cache.insert([3])
    assert cache.occupancy() / cache.entries == 1 / 8


def test_simulate_matches_groupby_simulation(make_trace):
    trace = make_trace(500, pool_size=80, seed=3)
    session = _session(entries=64, ways=4, persistent=False)
    ours = session.classify(trace)
    reference = simulate_hitmap(trace, num_sets=16, ways=4)
    assert ours == reference
    # Every classify sees a fresh cache, so a second run is identical.
    assert session.classify(trace) == ours
    assert session.clears == 2


def test_simulate_to_hitmap_round_trip(make_trace):
    trace = make_trace(100, pool_size=20, seed=4)
    hitmap = _session(entries=16, ways=2, persistent=False).classify(
        trace).to_hitmap()
    assert hitmap.is_complete()
    counts = hitmap.counts()
    assert counts[HitState.HIT] + counts[HitState.MAU] + \
        counts[HitState.MNU] == 100


def test_wide_signatures_promote_to_object():
    """Multi-word batches promote the tag store to full-value words."""
    session = _session(entries=4, ways=2)
    # 2 sets x 2 ways; +0/+2/+4 land in set 0, so +4 finds it full.
    wide = ints_to_words([(1 << 70) + k for k in (0, 1, 0, 2, 4)])
    states, _ = probe_and_admit_rows(session, wide)
    assert _state_names(states) == ["MAU", "MAU", "HIT", "MAU", "MNU"]
    assert session.mcache._tag_words is not None
    # Mixed int64 batches keep working after the promotion.
    states2, _ = probe_and_admit_rows(session, np.array([5, 5]))
    assert _state_names(states2) == ["MAU", "HIT"]
    states3, _ = probe_and_admit_rows(session,
                                      ints_to_words([(1 << 70) + 1]))
    assert _state_names(states3) == ["HIT"]


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
    assert cache.replace_line(0, 1, 8) == entries[1]
    assert cache.probe_batch([6, 8])[1].tolist() == [-1, entries[1]]
    assert cache.stats.evictions == 1
