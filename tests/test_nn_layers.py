"""Gradient and behaviour tests for the basic layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (BatchNorm2D, Conv2D, Dropout, Flatten, GlobalAvgPool2D,
                      LayerNorm, Linear, MaxPool2D, ReLU, GELU, Embedding)
from repro.nn.layers.activations import softmax
from tests.helpers import (LAYOUTS, in_layout, numerical_gradient,
                           relative_error)
from tests.oracles.layers import TwoPassBatchNorm2D

RNG = np.random.default_rng(42)


def _check_input_gradient(layer, x, tolerance=1e-4):
    """Compare analytic input gradients against central differences."""
    out = layer.forward(x)
    upstream = RNG.normal(size=out.shape)
    grad = layer.backward(upstream)

    def loss():
        return float(np.sum(layer.forward(x) * upstream))

    numeric = numerical_gradient(loss, x)
    assert relative_error(grad, numeric) < tolerance


def _check_param_gradient(layer, x, param, tolerance=1e-4):
    out = layer.forward(x)
    upstream = RNG.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(upstream)
    analytic = param.grad.copy()

    def loss():
        return float(np.sum(layer.forward(x) * upstream))

    numeric = numerical_gradient(loss, param.value)
    assert relative_error(analytic, numeric) < tolerance


# ----------------------------------------------------------------------
# Conv2D
# ----------------------------------------------------------------------
def test_conv_forward_shape():
    layer = Conv2D(3, 5, 3, padding=1, seed=0)
    out = layer.forward(RNG.normal(size=(2, 3, 8, 8)))
    assert out.shape == (2, 5, 8, 8)


def test_conv_forward_stride_shape():
    layer = Conv2D(2, 4, 3, stride=2, padding=1, seed=0)
    out = layer.forward(RNG.normal(size=(1, 2, 8, 8)))
    assert out.shape == (1, 4, 4, 4)


def test_conv_matches_manual_computation():
    layer = Conv2D(1, 1, 2, bias=False, seed=0)
    layer.weight.value = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
    out = layer.forward(x)
    expected_00 = 0 * 1 + 1 * 2 + 3 * 3 + 4 * 4
    assert out[0, 0, 0, 0] == expected_00


def test_conv_input_gradient():
    layer = Conv2D(2, 3, 3, padding=1, seed=1)
    _check_input_gradient(layer, RNG.normal(size=(1, 2, 5, 5)))


def test_conv_weight_gradient():
    layer = Conv2D(2, 2, 3, seed=2)
    _check_param_gradient(layer, RNG.normal(size=(1, 2, 5, 5)), layer.weight)


def test_conv_bias_gradient():
    layer = Conv2D(1, 2, 3, seed=3)
    _check_param_gradient(layer, RNG.normal(size=(1, 1, 5, 5)), layer.bias)


def test_conv_output_shape_helper():
    layer = Conv2D(3, 8, 3, stride=2, padding=1)
    assert layer.output_shape(32, 32) == (16, 16)


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def test_linear_forward():
    layer = Linear(4, 3, seed=0)
    layer.weight.value = np.eye(4, 3)
    layer.bias.value = np.array([1.0, 2.0, 3.0])
    out = layer.forward(np.array([[1.0, 2.0, 3.0, 4.0]]))
    np.testing.assert_allclose(out, [[2.0, 4.0, 6.0]])


def test_linear_gradients():
    layer = Linear(5, 4, seed=1)
    x = RNG.normal(size=(3, 5))
    _check_input_gradient(layer, x)
    _check_param_gradient(layer, x, layer.weight)
    _check_param_gradient(layer, x, layer.bias)


def test_linear_higher_rank_input():
    layer = Linear(6, 2, seed=2)
    out = layer.forward(RNG.normal(size=(2, 3, 6)))
    assert out.shape == (2, 3, 2)
    grad = layer.backward(np.ones((2, 3, 2)))
    assert grad.shape == (2, 3, 6)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layer_cls", [ReLU, GELU])
def test_activation_gradients(layer_cls):
    layer = layer_cls()
    _check_input_gradient(layer, RNG.normal(size=(3, 4)), tolerance=1e-3)


def test_relu_zeroes_negatives():
    out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def test_softmax_rows_sum_to_one():
    out = softmax(RNG.normal(size=(5, 7)))
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(5))


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def test_maxpool_forward():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = MaxPool2D(2).forward(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradient_routes_to_argmax():
    layer = MaxPool2D(2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    layer.forward(x)
    grad = layer.backward(np.ones((1, 1, 2, 2)))
    assert grad[0, 0, 1, 1] == 1.0  # value 5 was the max of its window
    assert grad[0, 0, 0, 0] == 0.0
    assert grad.sum() == 4.0


def test_maxpool_input_gradient_numeric():
    layer = MaxPool2D(2)
    # Use distinct values so the argmax is stable under perturbation.
    x = RNG.permutation(36).astype(float).reshape(1, 1, 6, 6)
    _check_input_gradient(layer, x)


def test_global_avg_pool():
    layer = GlobalAvgPool2D()
    x = RNG.normal(size=(2, 3, 5, 5))
    out = layer.forward(x)
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
    _check_input_gradient(layer, x)


# ----------------------------------------------------------------------
# Normalisation
# ----------------------------------------------------------------------
def test_batchnorm_normalises_in_training():
    layer = BatchNorm2D(3)
    x = RNG.normal(loc=5.0, scale=2.0, size=(4, 3, 6, 6))
    out = layer.forward(x)
    assert abs(out.mean()) < 1e-6
    assert abs(out.var() - 1.0) < 1e-2


def test_batchnorm_eval_uses_running_stats():
    layer = BatchNorm2D(2)
    x = RNG.normal(loc=3.0, size=(8, 2, 4, 4))
    for _ in range(20):
        layer.forward(x)
    layer.training = False
    out = layer.forward(x)
    # Running statistics approach the batch statistics, so the output is
    # roughly normalised even in eval mode.
    assert abs(out.mean()) < 0.5


def test_batchnorm_gradients():
    layer = BatchNorm2D(2)
    x = RNG.normal(size=(3, 2, 4, 4))
    _check_input_gradient(layer, x, tolerance=1e-3)
    _check_param_gradient(layer, x, layer.gamma, tolerance=1e-3)
    _check_param_gradient(layer, x, layer.beta, tolerance=1e-3)


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    np.testing.assert_array_equal(actual.view(np.uint64),
                                  expected.view(np.uint64))


def _bn_input(rng, shape, layout):
    return in_layout(rng.normal(loc=rng.normal(scale=3.0),
                                scale=rng.uniform(0.1, 4.0), size=shape),
                     layout)


@settings(deadline=None, max_examples=40)
@given(batch=st.integers(1, 9), channels=st.integers(1, 64),
       height=st.integers(1, 17), width=st.integers(1, 17),
       layout=st.sampled_from(LAYOUTS),
       training=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_batchnorm_matches_the_two_pass_oracle_bitwise(
        batch, channels, height, width, layout, training, seed):
    """One-pass centring keeps the two-pass layer's output, running
    statistics and cached ``x_hat``/``std4`` in bytes and in strides
    (the strides set BN backward's reduction order), and so its
    gradients."""
    rng = np.random.default_rng(seed)
    shape = (batch, channels, height, width)
    layer, oracle = BatchNorm2D(channels), TwoPassBatchNorm2D(channels)
    for bn in (layer, oracle):
        bn.gamma.value[:] = np.linspace(0.5, 1.5, channels)
        bn.beta.value[:] = np.linspace(-1.0, 1.0, channels)
    # A training step first, so eval mode reads non-trivial statistics.
    warm = _bn_input(rng, shape, layout)
    layer.forward(warm)
    oracle.forward(warm)
    layer.training = oracle.training = training

    x = _bn_input(rng, shape, layout)
    _assert_same_bytes(layer.forward(x), oracle.forward(x))
    _assert_same_bytes(layer.running_mean, oracle.running_mean)
    _assert_same_bytes(layer.running_var, oracle.running_var)
    for cached, expected in zip(layer._cache, oracle._cache):
        _assert_same_bytes(cached, expected)

    upstream = rng.normal(size=shape)
    _assert_same_bytes(layer.backward(upstream), oracle.backward(upstream))
    _assert_same_bytes(layer.gamma.grad, oracle.gamma.grad)
    _assert_same_bytes(layer.beta.grad, oracle.beta.grad)


def test_layernorm_gradients():
    layer = LayerNorm(6)
    x = RNG.normal(size=(4, 6))
    _check_input_gradient(layer, x, tolerance=1e-3)
    _check_param_gradient(layer, x, layer.gamma, tolerance=1e-3)


def test_layernorm_normalises_last_axis():
    layer = LayerNorm(8)
    out = layer.forward(RNG.normal(loc=4.0, size=(3, 8)))
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(3), atol=1e-7)


# ----------------------------------------------------------------------
# Dropout / Flatten / Embedding
# ----------------------------------------------------------------------
def test_dropout_identity_in_eval():
    layer = Dropout(0.5)
    layer.training = False
    x = RNG.normal(size=(4, 4))
    np.testing.assert_array_equal(layer.forward(x), x)


def test_dropout_scales_in_training():
    layer = Dropout(0.5, seed=0)
    x = np.ones((1000,))
    out = layer.forward(x)
    # Inverted dropout keeps the expectation.
    assert abs(out.mean() - 1.0) < 0.1
    assert np.any(out == 0.0)


def test_dropout_rejects_invalid_probability():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_flatten_roundtrip():
    layer = Flatten()
    x = RNG.normal(size=(2, 3, 4, 5))
    out = layer.forward(x)
    assert out.shape == (2, 60)
    grad = layer.backward(out)
    np.testing.assert_array_equal(grad, x)


def test_embedding_lookup_and_gradient():
    layer = Embedding(10, 4, seed=0)
    ids = np.array([[1, 2], [2, 3]])
    out = layer.forward(ids)
    assert out.shape == (2, 2, 4)
    np.testing.assert_array_equal(out[0, 1], out[1, 0])
    layer.zero_grad()
    layer.backward(np.ones((2, 2, 4)))
    # Token 2 appears twice so its gradient row is doubled.
    np.testing.assert_allclose(layer.weight.grad[2], 2 * np.ones(4))
    np.testing.assert_allclose(layer.weight.grad[5], np.zeros(4))


def test_embedding_rejects_out_of_range():
    layer = Embedding(4, 2)
    with pytest.raises(ValueError):
        layer.forward(np.array([5]))


def test_conv_weight_matrix_cache_handles_noncontiguous_rebind():
    """Rebinding weights to a non-contiguous array must not freeze the
    layer: the cached weight-matrix view is only kept when reshape
    really returned a view, so in-place optimizer updates always reach
    the forward pass."""
    rng = np.random.default_rng(0)
    conv = Conv2D(2, 3, 3, bias=False, seed=0)
    x = rng.normal(size=(1, 2, 5, 5))
    out_original = conv.forward(x)

    doubled = np.ascontiguousarray(np.moveaxis(conv.weight.value * 2.0,
                                               0, -1))
    conv.weight.value = np.moveaxis(doubled, -1, 0)   # non-contiguous view
    out_doubled = conv.forward(x)
    np.testing.assert_allclose(out_doubled, 2.0 * out_original)

    # An in-place update (what the optimizers do) must be visible too.
    conv.weight.value *= 0.5
    out_restored = conv.forward(x)
    np.testing.assert_allclose(out_restored, out_original)
