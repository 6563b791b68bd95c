"""Tests for the Hitmap and the vectorised hitmap simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.hitmap_sim import simulate_hitmap
from tests.oracles.hitmap import Hitmap, HitState, codes_to_states
from tests.oracles.mcache import MCache
from tests.oracles.signatures import ints_to_words


# ----------------------------------------------------------------------
# Hitmap object
# ----------------------------------------------------------------------
def test_hitmap_set_get():
    hitmap = Hitmap(3)
    hitmap.set(0, HitState.MAU)
    hitmap.set(1, HitState.HIT, source=0)
    hitmap.set(2, HitState.MNU)
    assert hitmap.get(1) is HitState.HIT
    assert hitmap.source(1) == 0
    assert hitmap.counts()[None] == 0


def test_hitmap_hit_requires_earlier_source():
    hitmap = Hitmap(3)
    with pytest.raises(ValueError):
        hitmap.set(1, HitState.HIT)          # no source
    with pytest.raises(ValueError):
        hitmap.set(1, HitState.HIT, source=2)  # source after index


def test_hitmap_counts_and_fraction():
    hitmap = Hitmap(4)
    hitmap.set(0, HitState.MAU)
    hitmap.set(1, HitState.HIT, source=0)
    hitmap.set(2, HitState.HIT, source=0)
    counts = hitmap.counts()
    assert counts[HitState.HIT] == 2
    assert counts[None] == 1
    assert hitmap.hit_fraction() == 0.5


def test_hitmap_bounds():
    hitmap = Hitmap(2)
    with pytest.raises(IndexError):
        hitmap.set(5, HitState.MAU)
    with pytest.raises(KeyError):
        hitmap.get(0)


def test_hitmap_arrays():
    hitmap = Hitmap(2)
    hitmap.set(0, HitState.MAU)
    hitmap.set(1, HitState.HIT, source=0)
    assert [hitmap.source(i) for i in range(len(hitmap))] == [None, 0]
    assert [hitmap.get(i) for i in range(len(hitmap))] == \
        [HitState.MAU, HitState.HIT]


# ----------------------------------------------------------------------
# Vectorised simulation
# ----------------------------------------------------------------------
def test_simulate_basic_states():
    sim = simulate_hitmap(np.array([10, 10, 11, 10]), num_sets=4, ways=4)
    assert sim.states.dtype == np.int8
    assert sim.states[0] == MAU_CODE
    assert sim.states[1] == HIT_CODE
    assert sim.representative[1] == 0
    assert sim.states[2] == MAU_CODE
    assert sim.hits == 2 and sim.mau == 2 and sim.mnu == 0
    assert sim.unique_signatures == 2
    # The oracles' enum view converts per code.
    assert codes_to_states(sim.states)[0] is HitState.MAU
    assert codes_to_states(sim.states)[1] is HitState.HIT


def test_simulate_capacity_mnu():
    # One set, one way: only the first distinct signature is inserted.
    sim = simulate_hitmap(np.array([1, 2, 1, 2]), num_sets=1, ways=1)
    assert sim.states[0] == MAU_CODE
    assert sim.states[1] == MNU_CODE
    assert sim.states[2] == HIT_CODE
    assert sim.states[3] == MNU_CODE


def test_simulate_empty():
    sim = simulate_hitmap(np.array([], dtype=np.int64), num_sets=4, ways=2)
    assert sim.hits == sim.mau == sim.mnu == 0


def test_simulate_to_hitmap():
    sim = simulate_hitmap(np.array([5, 5, 6]), num_sets=2, ways=2)
    hitmap = Hitmap.from_simulation(sim)
    assert hitmap.get(1) is HitState.HIT
    assert hitmap.source(1) == 0
    assert hitmap.hit_fraction() == pytest.approx(1 / 3)


def test_simulate_long_signatures_fall_back():
    sigs = ints_to_words([1 << 80, (1 << 80) + 1, 1 << 80])
    sim = simulate_hitmap(sigs, num_sets=8, ways=2)
    assert sim.states[2] == HIT_CODE
    assert sim.unique_signatures == 2


def test_simulate_invalid_geometry():
    with pytest.raises(ValueError):
        simulate_hitmap(np.array([1]), num_sets=0, ways=1)


@settings(deadline=None, max_examples=40)
@given(signatures=st.lists(st.integers(0, 300), min_size=1, max_size=100),
       num_sets=st.sampled_from([1, 2, 4, 8]),
       ways=st.sampled_from([1, 2, 4]))
def test_simulation_matches_line_level_mcache(signatures, num_sets, ways):
    """The fast group-by simulation equals the hardware-structure model."""
    signatures = np.array(signatures, dtype=np.int64)
    sim = simulate_hitmap(signatures, num_sets=num_sets, ways=ways)

    cache = MCache(entries=num_sets * ways, ways=ways)
    owners = {}
    for index, signature in enumerate(signatures):
        state, entry = cache.lookup_or_insert(int(signature))
        assert sim.states[index] == state.code
        if state is HitState.MAU:
            owners[entry] = index
        elif state is HitState.HIT:
            assert sim.representative[index] == owners[entry]


@settings(deadline=None, max_examples=30)
@given(signatures=st.lists(st.integers(0, 50), min_size=1, max_size=60))
def test_counts_are_consistent(signatures):
    sim = simulate_hitmap(np.array(signatures), num_sets=4, ways=2)
    assert sim.hits + sim.mau + sim.mnu == len(signatures)
    assert sim.mau <= 4 * 2
    # Representatives of HIT entries always point to an earlier MAU entry.
    for index, state in enumerate(sim.states):
        if state == HIT_CODE:
            rep = sim.representative[index]
            assert rep < index
            assert sim.states[rep] == MAU_CODE
