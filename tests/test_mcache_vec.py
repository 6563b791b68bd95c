"""Unit tests for the vectorized batch MCACHE."""

import numpy as np
import pytest

from repro.core.hitmap import CODE_TO_STATE, HitState
from repro.core.hitmap_sim import simulate_hitmap
from repro.core.mcache_vec import VectorizedMCache
from tests.oracles.signatures import ints_to_words


def test_geometry_validation():
    with pytest.raises(ValueError):
        VectorizedMCache(entries=100, ways=16)
    with pytest.raises(ValueError):
        VectorizedMCache(entries=0, ways=1)
    cache = VectorizedMCache(entries=1024, ways=16)
    assert cache.num_sets == 64


def test_first_lookup_is_mau_then_hit():
    cache = VectorizedMCache(entries=16, ways=4)
    state, entry = cache.lookup_or_insert(123)
    assert state is HitState.MAU and entry >= 0
    state2, entry2 = cache.lookup_or_insert(123)
    assert state2 is HitState.HIT and entry2 == entry


def test_full_set_gives_mnu_no_replacement():
    cache = VectorizedMCache(entries=4, ways=2)  # 2 sets, 2 ways
    assert cache.lookup_or_insert(0)[0] is HitState.MAU
    assert cache.lookup_or_insert(2)[0] is HitState.MAU
    state, entry = cache.lookup_or_insert(4)
    assert state is HitState.MNU and entry == -1
    assert cache.lookup_or_insert(4)[0] is HitState.MNU
    assert cache.lookup_or_insert(0)[0] is HitState.HIT


def test_batch_mixes_hits_maus_and_mnus():
    cache = VectorizedMCache(entries=2, ways=1)  # 2 sets, 1 way
    # Even signatures -> set 0, odd -> set 1.
    states, entries = cache.lookup_or_insert_batch([0, 0, 2, 1, 0, 3])
    assert states.dtype == np.int8
    assert [CODE_TO_STATE[s].value for s in states] == \
        ["MAU", "HIT", "MNU", "MAU", "HIT", "MNU"]
    assert entries[0] == entries[1] == entries[4]
    assert entries[2] == -1 and entries[5] == -1
    # Inserts persist across batches.
    states2, entries2 = cache.lookup_or_insert_batch([0, 1, 4])
    assert [CODE_TO_STATE[s].value for s in states2] == ["HIT", "HIT", "MNU"]
    assert entries2[0] == entries[0] and entries2[1] == entries[3]


def test_empty_batch():
    cache = VectorizedMCache(entries=4, ways=2)
    states, entries = cache.lookup_or_insert_batch([])
    assert len(states) == 0 and len(entries) == 0
    simulation = cache.simulate([])
    assert simulation.unique_signatures == 0


def test_probe_does_not_insert():
    cache = VectorizedMCache(entries=8, ways=2)
    assert cache.probe(5) == (False, -1)
    cache.lookup_or_insert(5)
    present, entry = cache.probe(5)
    assert present and entry >= 0
    assert cache.occupancy() == 1
    present_batch, ids = cache.probe_batch([5, 6])
    assert list(present_batch) == [True, False]
    assert ids[0] == entry and ids[1] == -1


def test_clear_resets_everything():
    cache = VectorizedMCache(entries=8, ways=2)
    cache.lookup_or_insert_batch([1, 2])
    cache.clear()
    assert cache.occupancy() == 0
    assert cache.lookup_or_insert(1)[0] is HitState.MAU


def test_stats_counters():
    cache = VectorizedMCache(entries=4, ways=1)  # 4 sets, direct mapped
    cache.lookup_or_insert_batch([0, 0, 4])  # MAU, HIT, MNU (set 0 full)
    assert cache.stats.hits == 1
    assert cache.stats.mau == 1
    assert cache.stats.mnu == 1
    fractions = cache.stats.as_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_utilization():
    cache = VectorizedMCache(entries=8, ways=2)
    assert cache.utilization() == 0.0
    cache.lookup_or_insert(3)
    assert cache.utilization() == 1 / 8


def test_simulate_matches_groupby_simulation(make_trace):
    trace = make_trace(500, pool_size=80, seed=3)
    cache = VectorizedMCache(entries=64, ways=4)
    ours = cache.simulate(trace)
    reference = simulate_hitmap(trace, num_sets=16, ways=4)
    assert list(ours.states) == list(reference.states)
    assert list(ours.representative) == list(reference.representative)
    assert (ours.hits, ours.mau, ours.mnu, ours.unique_signatures) == \
        (reference.hits, reference.mau, reference.mnu,
         reference.unique_signatures)
    # simulate() clears first, so a second run is identical.
    again = cache.simulate(trace)
    assert list(again.states) == list(ours.states)


def test_simulate_to_hitmap_round_trip(make_trace):
    trace = make_trace(100, pool_size=20, seed=4)
    cache = VectorizedMCache(entries=16, ways=2)
    hitmap = cache.simulate(trace).to_hitmap()
    assert hitmap.is_complete()
    counts = hitmap.counts()
    assert counts[HitState.HIT] + counts[HitState.MAU] + \
        counts[HitState.MNU] == 100


def test_wide_signatures_promote_to_object():
    """Multi-word batches promote the tag store to full-value words."""
    cache = VectorizedMCache(entries=4, ways=2)
    # 2 sets x 2 ways; +0/+2/+4 land in set 0, so +4 finds it full.
    wide = ints_to_words([(1 << 70) + k for k in (0, 1, 0, 2, 4)])
    states, entries = cache.lookup_or_insert_batch(wide)
    assert [CODE_TO_STATE[s].value for s in states] == ["MAU", "MAU", "HIT", "MAU", "MNU"]
    # Mixed int64 batches keep working after the promotion.
    states2, _ = cache.lookup_or_insert_batch(np.array([5, 5]))
    assert [CODE_TO_STATE[s].value for s in states2] == ["MAU", "HIT"]
    states3, _ = cache.lookup_or_insert_batch(ints_to_words([(1 << 70) + 1]))
    assert [CODE_TO_STATE[s].value for s in states3] == ["HIT"]


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
        cache.lookup_or_insert_batch(signatures)
    with pytest.raises(ValueError):
        cache.probe_batch(signatures)
    with pytest.raises(ValueError):
        cache.simulate(signatures)
    assert cache.occupancy() == 0


def test_replace_line_keeps_the_entry_id():
    cache = VectorizedMCache(entries=2, ways=2)   # one set, two ways
    _, entries = cache.lookup_or_insert_batch([4, 6])
    assert cache.replace_line(0, 1, 8) == entries[1]
    assert cache.probe_batch([6, 8])[1].tolist() == [-1, entries[1]]
    assert cache.stats.evictions == 1
