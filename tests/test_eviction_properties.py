"""Property and differential suite for the replacement policies.

Two layers of evidence that the O(1) intrusive-list eviction structures
(:mod:`repro.core.eviction`) are correct:

* **invariants** (hypothesis) — capacity is never exceeded under any
  eviction policy; LRU's victim is always the least-recently-probed
  linked way; LFU breaks frequency ties deterministically toward the
  least recent way; segmented-LRU promotion is monotone (a line's own
  probe never demotes it) and its protected segment never overflows
  ``ways // 2``;
* **differential** — randomized insert/touch/replace/victim traces are
  replayed through the fast structures and the plain-list reference
  implementations in lockstep: every victim must match and the
  serialized ``state_arrays`` must be byte-identical.  The same
  lockstep runs end-to-end at session level by injecting the reference
  evictor into a :class:`~repro.serving.engine.SignatureResultCache`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eviction import EVICTION_POLICIES, build_eviction_state
from repro.serving import ServingPolicy, SignatureResultCache
from tests.oracles.eviction import build_reference_eviction_state

REPLACEMENT = [p for p in EVICTION_POLICIES if p != "none"]


# ----------------------------------------------------------------------
# Structure-level traces: drive fast + reference in lockstep
# ----------------------------------------------------------------------
@st.composite
def eviction_traces(draw):
    """(policy, num_sets, ways, ops) — ops respect cache semantics.

    Each op is ("touch", set, way, count) on a linked way or
    ("fill", set, count) which inserts into the next free way when one
    exists and otherwise takes a victim and replaces it — exactly the
    two paths :meth:`SignatureResultCache._probe_and_admit` drives under a
    replacement policy.
    """
    policy = draw(st.sampled_from(REPLACEMENT))
    num_sets = draw(st.integers(min_value=1, max_value=3))
    ways = draw(st.integers(min_value=1, max_value=4))
    occupancy = [0] * num_sets
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        s = draw(st.integers(min_value=0, max_value=num_sets - 1))
        count = draw(st.integers(min_value=1, max_value=5))
        if occupancy[s] and draw(st.booleans()):
            w = draw(st.integers(min_value=0, max_value=occupancy[s] - 1))
            ops.append(("touch", s, w, count))
        else:
            ops.append(("fill", s, count))
            occupancy[s] = min(occupancy[s] + 1, ways)
    return policy, num_sets, ways, ops


def _replay(state, ops, ways, mirror=None):
    """Drive one evictor through a trace; returns the victim sequence.

    ``mirror`` receives every (op, victim) so invariant checks can run
    against an independently maintained model.
    """
    occupancy = {}
    victims = []
    for op in ops:
        if op[0] == "touch":
            _, s, w, count = op
            state.touch(s, w, count)
            if mirror is not None:
                mirror("touch", s, w, count, None)
        else:
            _, s, count = op
            used = occupancy.get(s, 0)
            if used < ways:
                state.insert(s, used, count)
                occupancy[s] = used + 1
                if mirror is not None:
                    mirror("insert", s, used, count, None)
            else:
                victim = state.victim(s)
                assert 0 <= victim < ways
                state.replace(s, victim, count)
                victims.append((s, victim))
                if mirror is not None:
                    mirror("replace", s, victim, count, victim)
    return victims


@given(eviction_traces())
@settings(max_examples=60)
def test_fast_structures_match_reference_bit_for_bit(trace):
    """The differential oracle: victims and serialized state agree."""
    policy, num_sets, ways, ops = trace
    fast = build_eviction_state(policy, num_sets, ways)
    reference = build_reference_eviction_state(policy, num_sets, ways)
    fast_victims = _replay(fast, ops, ways)
    reference_victims = _replay(reference, ops, ways)
    assert fast_victims == reference_victims
    fast_arrays = fast.state_arrays()
    reference_arrays = reference.state_arrays()
    assert set(fast_arrays) == set(reference_arrays)
    for name in fast_arrays:
        np.testing.assert_array_equal(fast_arrays[name],
                                      reference_arrays[name],
                                      err_msg=f"{policy}:{name}")


@given(eviction_traces())
@settings(max_examples=60)
def test_state_arrays_round_trip_is_byte_identical(trace):
    """load_state_arrays(state_arrays()) reproduces the exact state."""
    policy, num_sets, ways, ops = trace
    donor = build_eviction_state(policy, num_sets, ways)
    _replay(donor, ops, ways)
    arrays = donor.state_arrays()
    restored = build_eviction_state(policy, num_sets, ways)
    restored.load_state_arrays(arrays)
    arrays2 = restored.state_arrays()
    assert set(arrays) == set(arrays2)
    for name in arrays:
        np.testing.assert_array_equal(arrays[name], arrays2[name],
                                      err_msg=f"{policy}:{name}")
    # And the restored structure keeps evicting like the donor.
    for s in range(num_sets):
        assert donor.victim(s) == restored.victim(s)


@given(eviction_traces())
@settings(max_examples=60)
def test_lru_victim_is_the_least_recently_probed_way(trace):
    _, num_sets, ways, ops = trace
    state = build_eviction_state("lru", num_sets, ways)
    recency = [[] for _ in range(num_sets)]  # LRU first, MRU last

    def mirror(kind, s, w, count, victim):
        if victim is not None:
            assert recency[s][0] == victim, \
                "LRU evicted a way that was not the least recent"
        if w in recency[s]:
            recency[s].remove(w)
        recency[s].append(w)

    _replay(state, ops, ways, mirror=mirror)


@given(eviction_traces())
@settings(max_examples=60)
def test_lfu_ties_break_toward_the_least_recent_way(trace):
    _, num_sets, ways, ops = trace
    state = build_eviction_state("lfu", num_sets, ways)
    recency = [[] for _ in range(num_sets)]
    freq = [dict() for _ in range(num_sets)]

    def mirror(kind, s, w, count, victim):
        if victim is not None:
            lowest = min(freq[s][x] for x in recency[s])
            candidates = [x for x in recency[s] if freq[s][x] == lowest]
            assert freq[s][victim] == lowest
            # Deterministic tiebreak: the least recent of the
            # lowest-frequency ways.
            assert victim == min(candidates, key=recency[s].index)
        freq[s][w] = count if kind in ("insert", "replace") \
            else freq[s][w] + count
        if w in recency[s]:
            recency[s].remove(w)
        recency[s].append(w)

    _replay(state, ops, ways, mirror=mirror)


@given(eviction_traces())
@settings(max_examples=60)
def test_slru_promotion_is_monotone_and_protected_is_bounded(trace):
    """A line's own probe never demotes it; ways//2 caps protected."""
    _, num_sets, ways, ops = trace
    state = build_eviction_state("slru", num_sets, ways)
    for op in ops:
        if op[0] == "touch":
            _, s, w, count = op
            before = int(state._segment[s, w])
            state.touch(s, w, count)
            assert int(state._segment[s, w]) >= before, \
                "a probe demoted its own line"
        else:
            _, s, count = op
            if state._probation.count[s] + state._protected.count[s] \
                    < ways:
                used = int(state._probation.count[s]
                           + state._protected.count[s])
                state.insert(s, used, count)
            else:
                state.replace(s, state.victim(s), count)
        assert (state._protected.count <= max(ways // 2, 0)).all()
        # Victims come from probation while it has any line.
        for s2 in range(num_sets):
            if state._probation.count[s2]:
                assert int(state._segment[s2, state.victim(s2)]) == 0


# ----------------------------------------------------------------------
# Session-level lockstep: fast vs reference inside a live cache
# ----------------------------------------------------------------------
@st.composite
def serve_traces(draw):
    policy = draw(st.sampled_from(REPLACEMENT))
    entries, ways = draw(st.sampled_from([(4, 1), (4, 2), (8, 4)]))
    pool_size = draw(st.integers(min_value=2, max_value=16))
    num_batches = draw(st.integers(min_value=1, max_value=6))
    batches = [draw(st.lists(st.integers(min_value=0,
                                         max_value=pool_size - 1),
                             min_size=1, max_size=8))
               for _ in range(num_batches)]
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return policy, entries, ways, pool_size, batches, seed


def _session(eviction: str, entries: int, ways: int, reference: bool):
    policy = ServingPolicy(request_cache=True, entries=entries, ways=ways,
                           signature_bits=16, eviction=eviction)
    cache = SignatureResultCache(policy)
    if reference:
        cache._evictor = build_reference_eviction_state(
            eviction, cache.num_sets, policy.ways)
    return cache


@given(serve_traces())
@settings(max_examples=40, deadline=None)
def test_session_with_reference_evictor_is_bit_identical(trace):
    """End-to-end differential: the evictor choice is invisible."""
    policy, entries, ways, pool_size, batches, seed = trace
    pool = np.random.default_rng(seed).normal(size=(pool_size, 4))
    weights = np.random.default_rng(1).normal(size=(4, 3))
    fast = _session(policy, entries, ways, reference=False)
    oracle = _session(policy, entries, ways, reference=True)
    for offset, batch_rows in enumerate(batches):
        batch = pool[np.array(batch_rows, dtype=np.int64)]
        fast_rows, fast_outcome = fast.serve(
            batch, lambda rows, b=batch: b[rows] @ weights, offset)
        oracle_rows, oracle_outcome = oracle.serve(
            batch, lambda rows, b=batch: b[rows] @ weights, offset)
        np.testing.assert_array_equal(fast_rows, oracle_rows)
        assert fast_outcome == oracle_outcome
    assert vars(fast.counters) == vars(oracle.counters)
    fast_arrays = fast.state_dict()[1]
    oracle_arrays = oracle.state_dict()[1]
    assert set(fast_arrays) == set(oracle_arrays)
    for name in fast_arrays:
        np.testing.assert_array_equal(fast_arrays[name],
                                      oracle_arrays[name], err_msg=name)


@given(serve_traces())
@settings(max_examples=40, deadline=None)
def test_capacity_is_never_exceeded_under_eviction(trace):
    policy, entries, ways, pool_size, batches, seed = trace
    pool = np.random.default_rng(seed).normal(size=(pool_size, 4))
    weights = np.random.default_rng(1).normal(size=(4, 3))
    cache = _session(policy, entries, ways, reference=False)
    for offset, batch_rows in enumerate(batches):
        batch = pool[np.array(batch_rows, dtype=np.int64)]
        cache.serve(batch, lambda rows, b=batch: b[rows] @ weights,
                    offset)
        assert cache.occupancy() <= entries
        slots, _ = cache.mcache.resident()
        per_set = np.bincount(slots // ways, minlength=entries // ways)
        assert (per_set <= ways).all()
        # Replacement happens in place, so the prefix-occupancy rule
        # of the no-replacement store still holds.
        np.testing.assert_array_equal(slots % ways, np.concatenate(
            [np.arange(count) for count in per_set]))


def _row_by_row(rows, weights):
    """Products whose bits never depend on their batch-mates."""
    return np.array([row @ weights for row in rows])


@pytest.mark.parametrize("eviction", REPLACEMENT)
def test_evictions_do_not_grow_the_result_store(eviction):
    """A recycled line keeps its entry id, so thousands of evictions
    leave every per-entry store array at most ``entries`` rows long."""
    entries = 16
    policy = ServingPolicy(entries=entries, ways=entries,
                           signature_bits=20, eviction=eviction)
    session = SignatureResultCache(policy)
    rng = np.random.default_rng(0)
    pool = rng.normal(size=(512, 64))
    weights = rng.normal(size=(64, 3))

    def forward(rows):
        return _row_by_row(rows, weights)

    for batch_index in range(120):
        batch = pool[rng.integers(0, len(pool), size=24)]
        rows, _ = session.serve(
            batch, lambda picks, b=batch: forward(b[picks]), batch_index)
        np.testing.assert_array_equal(rows, forward(batch))
    assert session.counters.evicted > 2000, session.counters.evicted
    for store in (session._entry_batch, session._store_valid,
                  session._store_rows, session._store_payloads):
        assert len(store) <= entries


def test_line_changing_hands_twice_in_a_batch_stores_the_last_owner():
    """One line recycled twice within a batch: the stored row, payload
    and age belong to the signature finally tagged on it."""
    policy = ServingPolicy(entries=1, ways=1, signature_bits=16,
                           eviction="lru")
    session = SignatureResultCache(policy)
    rng = np.random.default_rng(3)
    pool = rng.normal(size=(3, 5))
    weights = rng.normal(size=(5, 2))

    def serve(batch, batch_index):
        rows, _ = session.serve(
            batch, lambda picks, b=batch: _row_by_row(b[picks], weights),
            batch_index)
        np.testing.assert_array_equal(rows, _row_by_row(batch, weights))

    serve(pool[:1], 0)               # row 0 owns the only line
    serve(pool, 1)                   # rows 1 and 2 each take it over
    owner = [row for row in range(3) if session.mcache.probe_batch(
        session.hasher.signatures(pool[row:row + 1], 16))[0][0]]
    assert len(owner) == 1
    entry = int(session.mcache.resident()[0][0])
    np.testing.assert_array_equal(session._store_payloads[entry],
                                  pool[owner[0]])
    np.testing.assert_array_equal(session._store_rows[entry],
                                  _row_by_row(pool[owner], weights)[0])
    assert session._entry_batch[entry] == 1
    before = session.counters.cross_hits
    serve(pool[owner], 2)            # the owner's stored row is served
    assert session.counters.cross_hits == before + 1
