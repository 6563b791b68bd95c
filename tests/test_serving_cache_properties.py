"""Hypothesis property suite for the persistent serving cache.

Randomized serve sequences against :class:`SignatureResultCache`
must preserve three invariants regardless of traffic shape, geometry or
policy:

* **capacity** — the no-replacement MCACHE never holds more lines than
  it has, globally or per set;
* **TTL monotonicity** — an entry's recorded insertion batch never
  moves backwards, and a cross-batch hit is never served from an entry
  older than ``ttl_batches`` (checked through batch-stamped payloads:
  every served row carries the batch index that computed it);
* **snapshot round trip** — ``state_dict`` → ``load_state_dict`` is
  state-identical: the restored cache reports byte-equal state and
  behaves identically on arbitrary follow-up traffic.  The sequence
  strategy draws the ``eviction`` axis too, so the round trip covers
  the replacement policies' recency/frequency/segment metadata, and a
  snapshot taken under one eviction policy must refuse to load into a
  session running another (the policy fingerprint seals it).

Signature lengths include 70 bits, so each property also covers the
multi-word tag store.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rpq import signature_words
from repro.serving import ServingPolicy, SignatureResultCache

# Small vector pools force collisions, repeats and set conflicts.
_GEOMETRIES = st.sampled_from([(8, 1), (8, 4), (16, 2), (64, 16)])


def _pool(seed: int, pool_size: int, width: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(pool_size, width))


def _batches(draw_indices: list[list[int]], pool: np.ndarray):
    for batch in draw_indices:
        yield pool[np.array(batch, dtype=np.int64)]


@st.composite
def serve_sequences(draw):
    """(policy kwargs, pool, list of per-batch row index lists)."""
    entries, ways = draw(_GEOMETRIES)
    pool_size = draw(st.integers(min_value=1, max_value=12))
    width = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    num_batches = draw(st.integers(min_value=1, max_value=6))
    batches = [draw(st.lists(st.integers(min_value=0,
                                         max_value=pool_size - 1),
                             min_size=1, max_size=10))
               for _ in range(num_batches)]
    policy = dict(
        entries=entries, ways=ways,
        signature_bits=draw(st.sampled_from([4, 16, 32, 70])),
        ttl_batches=draw(st.sampled_from([None, 0, 1, 3])),
        exact_check=draw(st.booleans()),
        admission=draw(st.sampled_from(["always", "frequency", "size"])),
        admission_min_frequency=draw(st.integers(min_value=1, max_value=3)),
        admission_max_bytes=draw(st.sampled_from([None, 8, 1024])),
        eviction=draw(st.sampled_from(["none", "lru", "lfu", "slru"])))
    return policy, _pool(seed, pool_size, width), batches


def _drive(cache: SignatureResultCache, pool: np.ndarray, batches,
           weights: np.ndarray, start_batch: int = 0):
    outcomes = []
    for offset, batch in enumerate(_batches(batches, pool)):
        results, outcome = cache.serve(
            batch, lambda rows, b=batch: b[rows] @ weights,
            start_batch + offset)
        outcomes.append((results, outcome))
    return outcomes


def _assert_prefix_occupancy(cache: SignatureResultCache) -> None:
    """At most ``ways`` lines per set, and a set's lines are its ways
    ``0..occupancy-1`` (the no-replacement insert rule, which in-place
    replacement keeps)."""
    slots, _ = cache.mcache.resident()
    ways = cache.policy.ways
    per_set = np.bincount(slots // ways, minlength=cache.num_sets)
    assert (per_set <= ways).all()
    assert per_set.sum() == cache.occupancy() <= cache.policy.entries
    np.testing.assert_array_equal(slots, np.concatenate(
        [set_index * ways + np.arange(count)
         for set_index, count in enumerate(per_set)]))


@given(serve_sequences())
@settings(max_examples=40)
def test_capacity_is_never_exceeded(sequence):
    policy_kwargs, pool, batches = sequence
    policy = ServingPolicy(request_cache=True, **policy_kwargs)
    cache = SignatureResultCache(policy)
    weights = np.random.default_rng(1).normal(size=(pool.shape[1], 3))
    for offset, batch in enumerate(_batches(batches, pool)):
        cache.serve(batch, lambda rows, b=batch: b[rows] @ weights, offset)
        _assert_prefix_occupancy(cache)


@given(serve_sequences())
@settings(max_examples=40)
def test_ttl_hits_are_never_stale_and_ages_are_monotonic(sequence):
    policy_kwargs, pool, batches = sequence
    # Stamp every computed row with its batch index: any served row
    # whose stamp is older than the TTL proves a stale hit.  The exact
    # check must be off so stamps may legally propagate across batches.
    policy_kwargs = dict(policy_kwargs, exact_check=False,
                         admission="always")
    policy = ServingPolicy(request_cache=True, **policy_kwargs)
    cache = SignatureResultCache(policy)
    ttl = policy.ttl_batches
    previous_slots = previous_stamps = np.empty(0, dtype=np.int64)
    for offset, batch in enumerate(_batches(batches, pool)):
        results, _ = cache.serve(
            batch,
            lambda rows, b=offset: np.full((len(rows), 1), float(b)),
            offset)
        if ttl is not None:
            assert (results[:, 0] >= offset - ttl).all(), \
                "served a row older than ttl_batches"
        assert (results[:, 0] <= offset).all()
        # Insertion stamps never move backwards on a line that was
        # already live (lines never move or free up between batches).
        stamps = cache._entry_batch
        assert (stamps[previous_slots] >= previous_stamps).all()
        previous_slots = cache.mcache.resident()[0]
        previous_stamps = stamps[previous_slots]


@given(serve_sequences(), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=40)
def test_snapshot_restore_round_trip_is_state_identical(sequence,
                                                        follow_seed):
    policy_kwargs, pool, batches = sequence
    policy = ServingPolicy(request_cache=True, **policy_kwargs)
    weights = np.random.default_rng(2).normal(size=(pool.shape[1], 3))

    donor = SignatureResultCache(policy)
    _drive(donor, pool, batches, weights)
    meta, arrays = donor.state_dict()

    restored = SignatureResultCache(policy)
    restored.load_state_dict(meta, arrays)

    # State-identical: a second snapshot is byte-equal.
    meta2, arrays2 = restored.state_dict()
    assert meta == meta2
    assert set(arrays) == set(arrays2)
    for name in arrays:
        np.testing.assert_array_equal(arrays[name], arrays2[name],
                                      err_msg=name)
    assert restored.occupancy() == donor.occupancy()
    # Every signature is back on its own line, with its TTL stamp.
    live, signatures = donor.mcache.resident()
    restored_live, restored_signatures = restored.mcache.resident()
    np.testing.assert_array_equal(live, restored_live)
    np.testing.assert_array_equal(signatures, restored_signatures)
    np.testing.assert_array_equal(restored._entry_batch[live],
                                  donor._entry_batch[live])

    # Behaviour-identical on arbitrary follow-up traffic.
    follow_rng = np.random.default_rng(follow_seed)
    follow = pool[follow_rng.integers(0, len(pool), size=8)]
    next_batch = len(batches)
    donor_rows, donor_outcome = donor.serve(
        follow, lambda rows: follow[rows] @ weights, next_batch)
    restored_rows, restored_outcome = restored.serve(
        follow, lambda rows: follow[rows] @ weights, next_batch)
    np.testing.assert_array_equal(donor_rows, restored_rows)
    assert donor_outcome == restored_outcome
    assert vars(donor.counters) == vars(restored.counters)


# ----------------------------------------------------------------------
# Cross-policy restore: eviction metadata is part of the contract
# ----------------------------------------------------------------------
def _driven_cache(eviction: str) -> SignatureResultCache:
    import pytest  # noqa: F401  (parametrize import kept local)
    policy = ServingPolicy(request_cache=True, entries=8, ways=4,
                           signature_bits=16, eviction=eviction)
    cache = SignatureResultCache(policy)
    pool = _pool(7, 10, 4)
    weights = np.random.default_rng(3).normal(size=(4, 3))
    _drive(cache, pool, [[0, 1, 2, 3], [4, 5, 0, 1], [6, 7, 8, 9]],
           weights)
    return cache


def test_eviction_snapshot_refuses_ttl_only_policy():
    """An LRU snapshot cannot silently load into a no-eviction cache.

    The restored session would have lines with no recency metadata (or
    metadata with no consumer) — the policy fingerprint refuses the
    pair loudly, in both directions.
    """
    import pytest

    lru_meta, lru_arrays = _driven_cache("lru").state_dict()
    plain_meta, plain_arrays = _driven_cache("none").state_dict()

    into_plain = SignatureResultCache(
        ServingPolicy(request_cache=True, entries=8, ways=4,
                      signature_bits=16, eviction="none"))
    with pytest.raises(ValueError, match="different policy"):
        into_plain.load_state_dict(lru_meta, lru_arrays)

    into_lru = SignatureResultCache(
        ServingPolicy(request_cache=True, entries=8, ways=4,
                      signature_bits=16, eviction="lru"))
    with pytest.raises(ValueError, match="different policy"):
        into_lru.load_state_dict(plain_meta, plain_arrays)

    # And across replacement policies: lfu state is not lru state.
    into_lfu = SignatureResultCache(
        ServingPolicy(request_cache=True, entries=8, ways=4,
                      signature_bits=16, eviction="lfu"))
    with pytest.raises(ValueError, match="different policy"):
        into_lfu.load_state_dict(lru_meta, lru_arrays)


def test_missing_eviction_metadata_fails_loudly():
    """A line-order snapshot without eviction arrays is rejected."""
    import pytest

    donor = _driven_cache("slru")
    meta, arrays = donor.state_dict()
    stripped = {name: value for name, value in arrays.items()
                if not name.startswith("ev_")}
    restored = SignatureResultCache(donor.policy)
    with pytest.raises((ValueError, KeyError)):
        restored.load_state_dict(meta, stripped)


def test_corrupt_snapshot_signatures_are_rejected():
    """The restore re-inserts the snapshot's signatures and refuses any
    that do not land in line order or probe back to their own line."""
    import pytest

    donor = _driven_cache("none")
    meta, arrays = donor.state_dict()
    signatures = arrays["signatures"]
    num_sets = donor.mcache.num_sets
    assert len(signatures) > donor.policy.ways
    duplicated = signatures.copy()
    duplicated[1] = duplicated[0]
    # Distinct values, every one in set 0: more than ``ways`` of them.
    overfull = np.arange(len(signatures), dtype=np.int64) * num_sets
    # The same lines listed out of (set, way) order.
    reordered = signatures[::-1].copy()
    for corrupt in (duplicated, overfull, reordered):
        restored = SignatureResultCache(donor.policy)
        with pytest.raises(ValueError, match="did not rebuild cleanly"):
            restored.load_state_dict(meta, {**arrays, "signatures": corrupt})


def test_snapshot_in_the_wrong_signature_format_is_refused():
    """A restore refuses signatures in a format other than the one the
    policy's ``signature_bits`` produce, and claims no line."""
    import pytest

    for bits, widen in ((16, 1), (70, 3)):
        policy = ServingPolicy(request_cache=True, entries=8, ways=4,
                               signature_bits=bits)
        donor = SignatureResultCache(policy)
        _drive(donor, _pool(7, 10, 4), [[0, 1, 2, 3]],
               np.random.default_rng(3).normal(size=(4, 3)))
        meta, arrays = donor.state_dict()
        # The same values as words of another width.
        wrong = signature_words(arrays["signatures"], widen)
        restored = SignatureResultCache(policy)
        with pytest.raises(ValueError, match=f"not {bits}-bit signatures"):
            restored.load_state_dict(meta, {**arrays, "signatures": wrong})
        assert restored.occupancy() == 0


def test_identical_nan_payloads_hit_without_collisions():
    """Exact checks compare payload bytes: NaN never equals itself under
    ``==``, yet identical NaN payloads have identical results."""
    cache = SignatureResultCache(ServingPolicy(request_cache=True,
                                               entries=8, ways=2))
    payload = np.array([1.0, np.nan, -0.5, np.nan])
    for batch_index in range(4):
        batch = np.stack([payload, payload])
        rows, _ = cache.serve(batch, lambda picks, b=batch: b[picks] * 2.0,
                              batch_index)
        np.testing.assert_array_equal(rows, batch * 2.0)
    counters = cache.counters
    assert (counters.hits, counters.computed, counters.collisions) == (7, 1, 0)
    assert counters.requests == counters.hits + counters.computed == 8
