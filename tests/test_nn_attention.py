"""Tests for the attention layers."""

import numpy as np

from repro.nn import MultiHeadSelfAttention
from tests.helpers import numerical_gradient, relative_error

RNG = np.random.default_rng(7)


def test_multihead_shapes():
    layer = MultiHeadSelfAttention(embed_dim=8, num_heads=2, seed=0)
    out = layer.forward(RNG.normal(size=(2, 5, 8)))
    assert out.shape == (2, 5, 8)


def test_multihead_rejects_bad_head_count():
    import pytest
    with pytest.raises(ValueError):
        MultiHeadSelfAttention(embed_dim=10, num_heads=3)


def test_multihead_input_gradient():
    layer = MultiHeadSelfAttention(embed_dim=4, num_heads=2, seed=1)
    x = RNG.normal(size=(1, 3, 4))
    out = layer.forward(x)
    upstream = RNG.normal(size=out.shape)
    layer.zero_grad()
    grad = layer.backward(upstream)

    def loss():
        return float(np.sum(layer.forward(x) * upstream))

    numeric = numerical_gradient(loss, x)
    assert relative_error(grad, numeric) < 1e-3


def test_multihead_parameter_gradient():
    layer = MultiHeadSelfAttention(embed_dim=4, num_heads=2, seed=2)
    x = RNG.normal(size=(1, 3, 4))
    upstream = RNG.normal(size=(1, 3, 4))
    layer.zero_grad()
    layer.forward(x)
    layer.backward(upstream)
    analytic = layer.q_proj.weight.grad.copy()

    def loss():
        return float(np.sum(layer.forward(x) * upstream))

    numeric = numerical_gradient(loss, layer.q_proj.weight.value)
    assert relative_error(analytic, numeric) < 1e-3


def test_attention_engine_is_used_for_self_attention():
    class CountingEngine:
        def __init__(self):
            self.calls = 0

        def matmul(self, a, b, *, layer, phase="forward"):
            self.calls += 1
            return a @ b

    engine = CountingEngine()
    layer = MultiHeadSelfAttention(embed_dim=4, num_heads=2, seed=3)
    layer.set_engine(engine)
    layer.forward(RNG.normal(size=(2, 3, 4)))
    # One engine matmul per projection (Q, K, V and output); the score
    # and context products stay plain numpy.
    assert engine.calls == 4
