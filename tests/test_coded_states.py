"""Dense int8 Hitmap state codes: bit-identity against the enum oracle.

The classification and serving hot paths carry dense ``int8`` state
codes; the ``HitState`` enum lives only in the oracles
(``tests/oracles/hitmap.py``), the vocabulary of the line-level
``MCache``/``Hitmap`` oracle.  These suites pin the coded
representation to that oracle:

* classification codes (session and stateless group-by) equal an
  enum-by-enum line-level ``MCache`` replay, including >62-bit
  multi-word signatures;
* the serving probe-and-admit step (``_probe_and_admit``, with the
  frequency gate and with a replacement policy) emits int8 codes whose
  semantics match a line-level mirror replay;
* the grouped core's admission over the interleaved frame, with and
  without an over-subscribed set, equals per-group classification;
* the substituted-input ``ride_groups`` is bit-identical to the
  product over segments substituted one at a time, directly and
  engine-to-engine against the per-group ``matmul_groups`` oracle;
* ``words_to_ints`` (the exact-Python-int expansion the oracles use)
  is exact;
* ``_prune_seen``'s argpartition selection matches the old
  sort-the-whole-gate semantics, ties included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MercuryConfig
from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.hitmap_sim import (simulate_hitmap,
                                   simulate_hitmap_interleaved)
from repro.core.reuse import ReuseEngine
from repro.core.rpq import unique_signatures
from repro.core.session import ReuseSession
from repro.nn.layers.conv import Conv2D
from repro.serving.cache import SignatureResultCache
from repro.serving.engine import ServingPolicy
from tests.oracles.engine import per_call_engine, substitute_segments
from tests.oracles.hitmap import (Hitmap, codes_to_states,
                                  group_representative, group_states)
from tests.oracles.mcache import MCache
from tests.oracles.signatures import ints_to_words, words_to_ints


def _classifiers(entries: int, ways: int):
    """The production session and the stateless group-by it wraps."""
    session = ReuseSession(entries, ways)
    return (session.classify,
            lambda trace: simulate_hitmap(trace, entries // ways, ways))


def _enum_oracle_codes(trace, entries: int, ways: int) -> list[int]:
    """Replay through the scalar enum MCache, returning ``.code`` views."""
    cache = MCache(entries=entries, ways=ways)
    codes = []
    for signature in trace:
        state, _ = cache.lookup_or_insert(
            int(signature) if not isinstance(signature, np.ndarray)
            else signature)
        codes.append(state.code)
    return codes


# ---------------------------------------------------------------------------
# Classification vs the enum oracle
# ---------------------------------------------------------------------------
class TestCodedClassification:
    @given(st.integers(0, 2 ** 31), st.integers(1, 400),
           st.integers(1, 60), st.sampled_from([(16, 1), (16, 4), (8, 8)]))
    @settings(max_examples=20, deadline=None)
    def test_backends_match_enum_oracle(self, seed, num, pool, geometry):
        entries, ways = geometry
        rng = np.random.default_rng(seed)
        trace = rng.choice(rng.integers(0, 1 << 20, size=pool), size=num)
        expected = _enum_oracle_codes(trace, entries, ways)
        for classify in _classifiers(entries, ways):
            sim = classify(trace)
            assert sim.states.dtype == np.int8
            assert list(sim.states) == expected
            # The oracles' enum view round-trips the codes.
            assert [s.code for s in codes_to_states(sim.states)] == \
                expected

    @given(st.integers(0, 2 ** 31), st.integers(1, 150), st.integers(1, 25))
    @settings(max_examples=15, deadline=None)
    def test_multiword_backends_match_enum_oracle(self, seed, num, pool):
        rng = np.random.default_rng(seed)
        base = 1 << 70  # forces 2-word signatures, >62-bit territory
        values = [base + int(v) for v in rng.integers(0, pool, size=num)]
        words = ints_to_words(np.array(values, dtype=object), num_words=2)
        expected = _enum_oracle_codes(
            np.array(values, dtype=object), entries=16, ways=4)
        for classify in _classifiers(entries=16, ways=4):
            sim = classify(words)
            assert sim.states.dtype == np.int8
            assert list(sim.states) == expected

    def test_codes_are_the_documented_values(self):
        # HIT=0 / MAU=1 / MNU=2 is a wire format (snapshots, telemetry):
        # pin the numbers, not just the symmetry.
        sim = simulate_hitmap(np.array([7, 7, 7 + 4]), num_sets=4,
                              ways=1)
        assert (HIT_CODE, MAU_CODE, MNU_CODE) == (0, 1, 2)
        assert list(sim.states) == [MAU_CODE, HIT_CODE, MNU_CODE]
        hitmap = Hitmap.from_simulation(sim)
        assert [hitmap.get(i).code for i in range(len(hitmap))] \
            == list(sim.states)


# ---------------------------------------------------------------------------
# Serving probe paths
# ---------------------------------------------------------------------------
class TestProbePathCodes:
    @given(st.integers(0, 2 ** 31), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_frequency_admission_matches_scalar_mirror(self, seed,
                                                       min_frequency):
        """The frequency gate's codes equal a scalar enum mirror replay."""
        policy = ServingPolicy(entries=8, ways=2, signature_bits=16,
                               admission="frequency",
                               admission_min_frequency=min_frequency)
        session = SignatureResultCache(policy)
        mirror = MCache(entries=8, ways=2)
        resident: set[int] = set()
        seen: dict[int, int] = {}
        rng = np.random.default_rng(seed)
        for batch_index in range(6):
            signatures = rng.integers(0, 40, size=rng.integers(1, 30))
            uniques, first_index, inverse = unique_signatures(signatures)
            states, _, _ = session._probe_and_admit(
                uniques, first_index, inverse, payload_bytes=64,
                batch_index=batch_index)
            assert states.dtype == np.int8

            counts = np.bincount(inverse, minlength=len(uniques))
            expected = np.full(len(uniques), MNU_CODE, dtype=np.int8)
            admitted = []
            for position in range(len(uniques)):
                value = int(uniques[position])
                if value in resident:
                    expected[position] = HIT_CODE
                    continue
                total = seen.get(value, 0) + int(counts[position])
                if total >= min_frequency:
                    seen.pop(value, None)
                    admitted.append(position)
                else:
                    seen[value] = total
            order = sorted(admitted, key=lambda p: first_index[p])
            for position in order:
                state, _ = mirror.lookup_or_insert(int(uniques[position]))
                expected[position] = state.code
                if state.code == MAU_CODE:
                    resident.add(int(uniques[position]))
            np.testing.assert_array_equal(states, expected)

    def test_eviction_probe_never_rejects(self, rng):
        """With a replacement policy no probe outcome is ever MNU."""
        policy = ServingPolicy(entries=8, ways=2, signature_bits=16,
                               eviction="lru")
        session = SignatureResultCache(policy)
        for batch_index in range(8):
            signatures = rng.integers(0, 200, size=25)
            uniques, first_index, inverse = unique_signatures(signatures)
            states, entry_ids, _ = session._probe_and_admit(
                uniques, first_index, inverse, payload_bytes=64,
                batch_index=batch_index)
            assert states.dtype == np.int8
            assert set(np.unique(states)) <= {HIT_CODE, MAU_CODE}
            assert (entry_ids >= 0).all()
        assert session.counters.evicted > 0

    def test_eviction_serve_stays_exact(self, rng):
        """End-to-end serve parity while lines are being recycled."""
        policy = ServingPolicy(entries=8, ways=2, signature_bits=14,
                               eviction="lru")
        session = SignatureResultCache(policy)
        weights = rng.normal(size=(6, 4))
        pool = rng.normal(size=(64, 6))
        for batch_index in range(10):
            vectors = pool[rng.integers(0, len(pool), size=20)]
            results, _ = session.serve(
                vectors, lambda rows, v=vectors: v[rows] @ weights,
                batch_index)
            np.testing.assert_array_equal(results, vectors @ weights)
        assert session.counters.cross_hits > 0
        assert session.counters.evicted > 0


# ---------------------------------------------------------------------------
# Grouped admission and lazy per-group views
# ---------------------------------------------------------------------------
def _interleave(traces):
    """Equal-length traces as one interleaved frame: row
    ``n * len(traces) + g`` is the ``n``-th signature of trace ``g``."""
    return np.stack(traces, axis=1).reshape(-1)


class TestGroupedAdmission:
    """``simulate_hitmap_interleaved`` against per-group
    ``simulate_hitmap``, with and without a set that has more than
    ``ways`` uniques."""

    @staticmethod
    def _check(traces, num_sets, ways):
        grouped = simulate_hitmap_interleaved(
            _interleave(traces), len(traces), num_sets=num_sets,
            ways=ways, signature_bits=8)
        groups = len(traces)
        expected = [simulate_hitmap(trace, num_sets, ways)
                    for trace in traces]
        for group, want in enumerate(expected):
            states = group_states(grouped, groups, group)
            np.testing.assert_array_equal(states, want.states)
            np.testing.assert_array_equal(
                group_representative(grouped, groups, group),
                want.representative)
            assert np.bincount(states, minlength=3).tolist() == \
                [want.hits, want.mau, want.mnu]
        for field in ("hits", "mau", "mnu", "unique_signatures"):
            assert getattr(grouped, field) == \
                sum(getattr(want, field) for want in expected)
        return grouped, expected

    def test_overflowing_set_matches_per_group(self):
        rng = np.random.default_rng(3)
        # Over a 4-set x 2-way cache, group 0's set 0 gets exactly
        # ways + 1 signatures (0, 4, 8); the other groups' sets stay
        # within their ways.  Equal pool sizes give the equal-length
        # groups of the interleaved frame.
        pools = [[0, 4, 8, 1, 2, 3], [1, 2, 3, 5, 6, 7], [0, 5, 6, 7, 4, 9]]
        traces = [rng.permutation(np.repeat(np.array(pool) + 16 * group, 3))
                  for group, pool in enumerate(pools)]
        grouped, expected = self._check(traces, num_sets=4, ways=2)
        assert [want.mnu for want in expected] == [3, 0, 0]
        assert grouped.mnu == 3

    def test_no_overflowing_set_matches_per_group(self):
        rng = np.random.default_rng(4)
        # 16 distinct signatures per group, 4 per set of a 4 x 4 cache.
        traces = [rng.permutation(np.repeat(np.arange(16) + 16 * group, 3))
                  for group in range(3)]
        grouped, _ = self._check(traces, num_sets=4, ways=4)
        assert grouped.mnu == 0 and grouped.hits > 0


# ---------------------------------------------------------------------------
# Input-substitution cache ride
# ---------------------------------------------------------------------------
class TestFusedRide:
    @given(st.integers(0, 2 ** 31), st.integers(1, 5),
           st.integers(1, 40), st.integers(1, 16), st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_ride_groups_matches_the_substituted_product(
            self, seed, num_groups, rows, pool, length):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(rows, num_groups * length))
        weights = rng.normal(size=(num_groups * length, 3))
        traces = [rng.choice(rng.integers(0, 1 << 16, size=pool),
                             size=rows) for _ in range(num_groups)]
        sim = simulate_hitmap_interleaved(_interleave(traces), num_groups,
                                          num_sets=4, ways=2)
        ridden = ReuseSession.ride_groups(vectors, weights, sim)
        np.testing.assert_array_equal(
            ridden, substitute_segments(
                vectors, [group_representative(sim, num_groups, group)
                          for group in range(num_groups)], length)
            @ weights)
        if num_groups == 1:
            np.testing.assert_array_equal(
                ridden, ReuseSession.ride(vectors, weights, sim))
        # A row none of whose segments hits is the engine-less row.
        states = sim.states.reshape(rows, num_groups)
        missed = (states != HIT_CODE).all(axis=1)
        np.testing.assert_array_equal(ridden[missed],
                                      (vectors @ weights)[missed])

    def test_ride_groups_all_hit_and_no_hit_groups(self, rng):
        # One group with zero hits, one fully redundant after its first
        # row: every row but the first takes group 1's first segment.
        vectors = rng.normal(size=(4, 6))
        weights = rng.normal(size=(6, 2))
        traces = [np.arange(4) * 7, np.full(4, 9)]
        sim = simulate_hitmap_interleaved(_interleave(traces), 2,
                                          num_sets=4, ways=2)
        substituted = vectors.copy()
        substituted[1:, 3:] = vectors[0, 3:]
        ridden = ReuseSession.ride_groups(vectors, weights, sim)
        np.testing.assert_array_equal(ridden, substituted @ weights)
        np.testing.assert_array_equal(ridden[0], (vectors @ weights)[0])
        # Without a hit the ride is the engine-less product itself.
        sim = simulate_hitmap_interleaved(np.arange(8) * 7, 2,
                                          num_sets=4, ways=2)
        np.testing.assert_array_equal(
            ReuseSession.ride_groups(vectors, weights, sim),
            vectors @ weights)

    @pytest.mark.parametrize("in_channels", [6, 7])
    def test_engine_fused_flag_bit_identity(self, rng, in_channels):
        """The fused ride equals the per-group oracle's output."""
        config = MercuryConfig(adaptive_signature_length=False,
                               adaptive_stoppage=False,
                               mcache_entries=64, mcache_ways=4)
        x = rng.normal(size=(3, in_channels, 10, 10))
        outputs = {}
        for fused, build in ((False, per_call_engine), (True, ReuseEngine)):
            engine = build(config)
            conv = Conv2D(in_channels, 5, 3, padding=1, seed=11)
            conv.engine = engine
            outputs[fused] = conv.forward(x)
            outputs[fused, "stats"] = engine.stats
            outputs[fused, "clears"] = engine.session.clears
        np.testing.assert_array_equal(outputs[False], outputs[True])
        assert outputs[False, "stats"] == outputs[True, "stats"]
        assert outputs[False, "clears"] == outputs[True, "clears"] == \
            in_channels


# ---------------------------------------------------------------------------
# words_to_ints: the oracles' exact-int expansion
# ---------------------------------------------------------------------------
class TestWordsToInts:
    @given(st.integers(0, 2 ** 31), st.integers(1, 30),
           st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_matches_python_reference(self, seed, num, num_words):
        from repro.core.rpq import WORD_BITS
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 63, size=(num, num_words),
                             dtype=np.int64).astype(np.uint64)
        values = words_to_ints(words)
        assert values.dtype == object
        for row, value in zip(words, values):
            expected = 0
            for word in row:
                expected = (expected << WORD_BITS) | int(word)
            assert value == expected and isinstance(value, int)


# ---------------------------------------------------------------------------
# _prune_seen determinism
# ---------------------------------------------------------------------------
class TestPruneSeen:
    @staticmethod
    def _session() -> SignatureResultCache:
        return SignatureResultCache(ServingPolicy(entries=8, ways=2,
                                                  admission="frequency"))

    @staticmethod
    def _reference_survivors(seen: dict, capacity: int) -> list:
        """The old implementation: stable sort, drop the stalest k."""
        excess = len(seen) - capacity
        if excess <= 0:
            return list(seen)
        doomed = set(sorted(seen, key=lambda key: seen[key][1])[:excess])
        return [key for key in seen if key not in doomed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stable_sort_reference(self, seed):
        session = self._session()
        rng = np.random.default_rng(seed)
        capacity = session._seen_capacity
        # Heavy batch-index ties make the tie-break the interesting part.
        for key in range(capacity + 137):
            session._seen[key] = (1, int(rng.integers(0, 7)))
        expected = self._reference_survivors(dict(session._seen), capacity)
        session._prune_seen()
        assert list(session._seen) == expected
        assert len(session._seen) == capacity

    def test_all_ties_evict_in_insertion_order(self):
        session = self._session()
        capacity = session._seen_capacity
        total = capacity + 10
        for key in range(total):
            session._seen[key] = (1, 5)  # every entry the same batch
        session._prune_seen()
        assert list(session._seen) == list(range(10, total))

    def test_under_capacity_is_untouched(self):
        session = self._session()
        session._seen[1] = (1, 0)
        session._prune_seen()
        assert list(session._seen) == [1]
