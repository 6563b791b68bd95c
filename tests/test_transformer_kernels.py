"""The transformer kernels against their tolerance oracles.

``MultiHeadSelfAttention`` runs its core products as ``np.matmul`` and
``GELU`` multiplies its cube out; ``tests/oracles/layers.py`` keeps the
einsum and ``pow`` formulations.  Summation order and rounding differ,
so the contract is closeness, not bit identity: outputs, input
gradients and every parameter gradient within 1e-12.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import GELU, MultiHeadSelfAttention
from tests.oracles.layers import EinsumMultiHeadSelfAttention, PowGELU

TOLERANCE = dict(rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(batch=st.integers(1, 3), seq=st.integers(1, 6),
       heads=st.integers(1, 4), head_dim=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
def test_matmul_attention_matches_the_einsum_oracle(batch, seq, heads,
                                                    head_dim, seed):
    embed = heads * head_dim
    layer = MultiHeadSelfAttention(embed, heads, seed=seed)
    oracle = EinsumMultiHeadSelfAttention(embed, heads, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, seq, embed))
    upstream = rng.normal(size=(batch, seq, embed))

    results = []
    for module in (layer, oracle):
        module.zero_grad()
        out = module.forward(x)
        grad_x = module.backward(upstream)
        results.append((out, grad_x, [p.grad for p in module.parameters()]))
    (out, grad_x, grads), (want_out, want_grad_x, want_grads) = results

    np.testing.assert_allclose(out, want_out, **TOLERANCE)
    np.testing.assert_allclose(grad_x, want_grad_x, **TOLERANCE)
    assert len(grads) == len(want_grads) == 8
    for grad, want in zip(grads, want_grads):
        np.testing.assert_allclose(grad, want, **TOLERANCE)


@settings(deadline=None, max_examples=30)
@given(x=arrays(np.float64, st.integers(1, 64),
                elements=st.floats(-10.0, 10.0)),
       seed=st.integers(0, 2 ** 16))
def test_multiplied_gelu_cube_matches_the_pow_oracle(x, seed):
    upstream = np.random.default_rng(seed).normal(size=x.shape)
    layer, oracle = GELU(), PowGELU()

    np.testing.assert_allclose(layer.forward(x), oracle.forward(x),
                               **TOLERANCE)
    np.testing.assert_allclose(layer.backward(upstream),
                               oracle.backward(upstream), **TOLERANCE)
