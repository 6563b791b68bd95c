"""Tests for the line-level MCACHE model, the oracle in tests/oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.hitmap import HitState
from tests.oracles.mcache import MCache


def test_geometry_validation():
    with pytest.raises(ValueError):
        MCache(entries=100, ways=16)
    with pytest.raises(ValueError):
        MCache(entries=0, ways=1)
    cache = MCache(entries=1024, ways=16)
    assert cache.num_sets == 64


def test_first_lookup_is_mau_then_hit():
    cache = MCache(entries=16, ways=4)
    state, entry = cache.lookup_or_insert(123)
    assert state is HitState.MAU and entry >= 0
    state2, entry2 = cache.lookup_or_insert(123)
    assert state2 is HitState.HIT and entry2 == entry


def test_full_set_gives_mnu_no_replacement():
    cache = MCache(entries=4, ways=2)  # 2 sets, 2 ways
    # Signatures congruent mod 2 land in the same set.
    assert cache.lookup_or_insert(0)[0] is HitState.MAU
    assert cache.lookup_or_insert(2)[0] is HitState.MAU
    state, entry = cache.lookup_or_insert(4)
    assert state is HitState.MNU and entry == -1
    # The rejected signature stays out (no replacement), even on retry.
    assert cache.lookup_or_insert(4)[0] is HitState.MNU
    # Previously inserted signatures still hit.
    assert cache.lookup_or_insert(0)[0] is HitState.HIT


def test_probe_does_not_insert():
    cache = MCache(entries=8, ways=2)
    assert cache.probe(5) == (False, -1)
    cache.lookup_or_insert(5)
    present, entry = cache.probe(5)
    assert present and entry >= 0
    assert cache.occupancy() == 1


def test_data_write_read_and_valid_bits():
    cache = MCache(entries=8, ways=2)
    _, entry = cache.lookup_or_insert(7)
    assert not cache.has_data(entry)
    with pytest.raises(LookupError):
        cache.read_data(entry)
    cache.write_data(entry, 3.14)
    assert cache.has_data(entry)
    assert cache.read_data(entry) == 3.14


def test_multi_version_data():
    cache = MCache(entries=8, ways=2, versions=3)
    _, entry = cache.lookup_or_insert(9)
    cache.write_data(entry, "filter0", version=0)
    cache.write_data(entry, "filter2", version=2)
    assert cache.read_data(entry, version=2) == "filter2"
    assert not cache.has_data(entry, version=1)
    with pytest.raises(IndexError):
        cache.write_data(entry, "x", version=3)


def test_invalidate_data_keeps_tags():
    cache = MCache(entries=8, ways=2)
    _, entry = cache.lookup_or_insert(11)
    cache.write_data(entry, 1.0)
    cache.invalidate_data()
    # Tag still present (signature phase result preserved)...
    assert cache.lookup_or_insert(11)[0] is HitState.HIT
    # ...but the data has to be recomputed.
    assert not cache.has_data(entry)


def test_clear_resets_everything():
    cache = MCache(entries=8, ways=2)
    cache.lookup_or_insert(1)
    cache.lookup_or_insert(2)
    cache.clear()
    assert cache.occupancy() == 0
    assert cache.lookup_or_insert(1)[0] is HitState.MAU


def test_stats_counters():
    cache = MCache(entries=4, ways=1)  # 4 sets, direct mapped
    cache.lookup_or_insert(0)
    cache.lookup_or_insert(0)
    cache.lookup_or_insert(4)  # same set as 0, set full -> MNU
    assert cache.stats.hits == 1
    assert cache.stats.mau == 1
    assert cache.stats.mnu == 1
    fractions = cache.stats.as_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_utilization():
    cache = MCache(entries=8, ways=2)
    assert cache.utilization() == 0.0
    cache.lookup_or_insert(3)
    assert cache.utilization() == 1 / 8


@settings(deadline=None, max_examples=25)
@given(signatures=st.lists(st.integers(0, 200), min_size=1, max_size=80),
       ways=st.sampled_from([1, 2, 4]))
def test_set_occupancy_never_exceeds_ways(signatures, ways):
    cache = MCache(entries=8 * ways, ways=ways)
    for signature in signatures:
        cache.lookup_or_insert(signature)
    for lines in cache._sets:
        assert sum(1 for line in lines if line.valid_tag) <= ways
