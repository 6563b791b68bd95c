"""Parity of the serving cache's one-pass ``serve`` with its oracle.

Random sessions run through :class:`SignatureResultCache` and through
:class:`~tests.oracles.serving.ReferenceSignatureResultCache` (the
one-pass-per-helper bodies ``serve`` had when the probe-and-admit step
was first vectorised) side by side.  Every eviction policy meets every
admission policy, with TTL on and off, the exact check on and off over
forced signature aliasing, 6-, 12-, 32- and 70-bit signatures,
replication pushes, a ``compute`` that raises, and snapshot → restore →
snapshot.  Each step must serve the same bytes, compute the same rows
and report the same :class:`ServeOutcome`; after each step the counters
and every ``state_dict`` array must be equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.eviction import EVICTION_POLICIES
from repro.core.rpq import RPQHasher
from repro.serving import ServingPolicy, SignatureResultCache
from repro.serving.cache import ADMISSION_POLICIES
from tests.oracles.serving import ReferenceSignatureResultCache

WIDTH = 4
OUTPUTS = 3


class _AliasingHasher(RPQHasher):
    """RPQ signatures folded onto four values: distinct payloads share
    signatures, so the exact check has collisions to catch."""

    def signatures(self, vectors, signature_bits):
        signatures = super().signatures(vectors, signature_bits)
        if signatures.ndim == 1:
            return signatures & 3
        folded = np.zeros_like(signatures)
        folded[:, 0] = 1
        folded[:, -1] = signatures[:, -1] & np.uint64(3)
        return folded


@st.composite
def sessions(draw):
    policy = {
        "signature_bits": draw(st.sampled_from([6, 12, 32, 70])),
        "ttl_batches": draw(st.sampled_from([None, 0, 2])),
        "exact_check": draw(st.booleans()),
        "admission_max_bytes": draw(st.sampled_from([None, 16, 64])),
        "admission_min_frequency": draw(st.integers(1, 3)),
    }
    policy["entries"], policy["ways"] = draw(st.sampled_from(
        [(4, 1), (4, 2), (8, 4), (8, 8)]))
    aliasing = draw(st.booleans())
    pool_size = draw(st.integers(2, 12))
    row = st.integers(0, pool_size - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("serve"), st.lists(row, max_size=10)),
        st.tuples(st.just("fail"), st.lists(row, min_size=1, max_size=6)),
        st.tuples(st.just("push"), row),
        st.tuples(st.just("restore"))), min_size=1, max_size=10))
    seed = draw(st.integers(0, 2 ** 16))
    return policy, aliasing, pool_size, steps, seed


def _caches(policy: ServingPolicy, aliasing: bool):
    pair = []
    for cls in (SignatureResultCache, ReferenceSignatureResultCache):
        hasher = _AliasingHasher(seed=policy.rpq_seed) if aliasing else None
        pair.append(cls(policy, hasher))
    return pair


def _assert_same_state(cache, oracle) -> None:
    assert vars(cache.counters) == vars(oracle.counters)
    meta, arrays = cache.state_dict()
    oracle_meta, oracle_arrays = oracle.state_dict()
    assert meta == oracle_meta
    assert set(arrays) == set(oracle_arrays)
    for name in arrays:
        assert arrays[name].dtype == oracle_arrays[name].dtype, name
        np.testing.assert_array_equal(arrays[name], oracle_arrays[name],
                                      err_msg=name)


def _serve(cache, batch, weights, batch_index, fail=False):
    calls = []

    def compute(rows):
        calls.append(np.array(rows))
        if fail:
            raise RuntimeError("compute failed")
        return batch[rows] @ weights

    try:
        rows, outcome = cache.serve(batch, compute, batch_index)
    except RuntimeError:
        return None, None, calls
    return rows, outcome, calls


@pytest.mark.parametrize("admission", ADMISSION_POLICIES)
@pytest.mark.parametrize("eviction", EVICTION_POLICIES)
@given(session=sessions())
def test_serve_matches_the_reference_cache(eviction, admission, session):
    fields, aliasing, pool_size, steps, seed = session
    policy = ServingPolicy(eviction=eviction, admission=admission, **fields)
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(pool_size, WIDTH))
    weights = rng.normal(size=(WIDTH, OUTPUTS))
    cache, oracle = _caches(policy, aliasing)
    for batch_index, step in enumerate(steps):
        if step[0] == "restore":
            snapshot = cache.state_dict()
            oracle_snapshot = oracle.state_dict()
            cache, oracle = _caches(policy, aliasing)
            cache.load_state_dict(*snapshot)
            oracle.load_state_dict(*oracle_snapshot)
        elif step[0] == "push":
            vector = pool[step[1]]
            row = vector @ weights
            assert cache.admit_external(vector, row, batch_index) \
                == oracle.admit_external(vector, row, batch_index)
        else:
            batch = pool[np.array(step[1], dtype=np.int64)]
            fail = step[0] == "fail"
            rows, outcome, calls = _serve(cache, batch, weights,
                                          batch_index, fail)
            oracle_rows, oracle_outcome, oracle_calls = _serve(
                oracle, batch, weights, batch_index, fail)
            assert len(calls) == len(oracle_calls)
            for call, oracle_call in zip(calls, oracle_calls):
                np.testing.assert_array_equal(call, oracle_call)
            assert outcome == oracle_outcome
            if rows is None:
                assert oracle_rows is None
            else:
                assert rows.dtype == oracle_rows.dtype
                assert rows.shape == oracle_rows.shape
                assert rows.tobytes() == oracle_rows.tobytes()
        _assert_same_state(cache, oracle)
