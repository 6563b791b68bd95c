"""Reuse changes only the rows that hit.

The reuse engine's contract with exact training: every row of a layer
product none of whose vectors hits equals the engine-less layer's row
bit for bit, and a call without a single hit equals the engine-less
product entirely.  The ride guarantees it by construction — it runs
the engine-less GEMM, same shape, same operand layout, over the inputs
with only the HIT vectors replaced by their representatives — so the
property must hold at any shape, including those where a BLAS computes
a row differently depending on where it sits in the product (27
filters, row counts that are not a multiple of 4, vector lengths of 16
and up on OpenBLAS 0.3.31).

The suites draw random layer shapes, signature lengths and MCACHE
geometries for ``Linear`` forward and backward and for ``Conv2D``
forward (per-channel signatures, padded and unpadded, 1x1 to 11x11
kernels, constant channels that hit on every row but the first).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import MercuryConfig
from repro.core.hitmap import HIT_CODE
from repro.core.reuse import ReuseEngine
from repro.nn.im2col import im2col
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from tests.helpers import capture_classified
from tests.oracles.engine import substitute_segments
from tests.oracles.hitmap import group_views

KERNELS = (1, 3, 5, 7, 11)


def _engine(bits: int, sets: int, ways: int) -> ReuseEngine:
    return ReuseEngine(MercuryConfig(
        signature_bits=bits, max_signature_bits=max(bits, 64),
        adaptive_signature_length=False, adaptive_stoppage=False,
        mcache_entries=sets * ways, mcache_ways=ways))


engines = st.builds(_engine, st.one_of(st.integers(1, 24), st.just(70)),
                    st.sampled_from((1, 2, 4, 16, 64)),
                    st.sampled_from((1, 2, 4, 16)))


def _assert_only_hit_rows_differ(out, exact, states):
    """``states`` is ``(segments, rows)``: a row misses if all do."""
    missed = (states != HIT_CODE).all(axis=0)
    np.testing.assert_array_equal(out[missed], exact[missed])
    if not (states == HIT_CODE).any():
        np.testing.assert_array_equal(out, exact)


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------
def _linear_pair(engine, rows, length, filters, repeats, seed):
    """Run one forward + backward through ``engine`` and without it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, length))
    grad = rng.normal(size=(rows, filters))
    # Repeated rows hit whatever the signature length.
    x[rng.integers(0, rows, size=repeats)] = x[0]
    grad[rng.integers(0, rows, size=repeats)] = grad[-1]
    captured = capture_classified(engine)
    results = []
    for layer_engine in (engine, None):
        linear = Linear(length, filters, seed=seed)
        linear.engine = layer_engine
        results.append((linear.forward(x), linear.backward(grad)))
    return linear, x, grad, results, captured


def _check_linear(engine, rows, length, filters, repeats, seed):
    linear, x, grad, ((out, grad_in), (exact_out, exact_grad_in)), \
        captured = _linear_pair(engine, rows, length, filters, repeats,
                                seed)
    # One plain signature phase per pass: the forward, then the backward.
    ((forward_groups, forward), (backward_groups, backward)) = captured
    assert forward_groups == backward_groups == 1
    _assert_only_hit_rows_differ(out, exact_out, forward.states[None])
    _assert_only_hit_rows_differ(grad_in, exact_grad_in,
                                 backward.states[None])
    # A HIT row carries its representative's input through the GEMM.
    weight = linear.weight.value
    np.testing.assert_array_equal(
        out, x[forward.representative] @ weight + linear.bias.value)
    np.testing.assert_array_equal(
        grad_in, grad[backward.representative] @ weight.T)
    return forward.states, backward.states


@given(engines, st.integers(1, 40), st.integers(1, 64),
       st.sampled_from((1, 5, 8, 16, 27, 32)), st.integers(0, 10),
       st.integers(0, 2 ** 31))
@settings(deadline=None)
def test_linear_changes_only_the_rows_that_hit(engine, rows, length,
                                               filters, repeats, seed):
    _check_linear(engine, rows, length, filters, repeats, seed)


def test_linear_rows_where_blas_position_matters():
    """27 filters, odd row counts 7-33, vector lengths of 16 and up:
    shapes where OpenBLAS can round a row differently at another
    position in the product.  The missed rows still match."""
    for rows in range(7, 34, 2):
        for length in (16, 25, 49):
            forward, backward = _check_linear(
                _engine(3, 4, 2), rows, length, 27, rows // 3, seed=rows)
            for states in (forward, backward):
                assert (states == HIT_CODE).any(), (rows, length)
                assert (states != HIT_CODE).any(), (rows, length)


# ---------------------------------------------------------------------------
# Conv2D forward (per-channel signatures)
# ---------------------------------------------------------------------------
def _conv_forward(engine, in_channels, filters, kernel, stride, padding,
                  batch, size, constant, seed):
    """The conv's output rows and each patch row's per-channel states,
    after checking the rows against the exact GEMM over ``cols`` with
    every HIT channel patch substituted one (row, channel) at a time."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, in_channels, size, size))
    for channel in constant:
        x[:, channel] = rng.normal()
    captured = capture_classified(engine)
    outputs = []
    for layer_engine in (engine, None):
        conv = Conv2D(in_channels, filters, kernel, stride=stride,
                      padding=padding, seed=seed)
        conv.engine = layer_engine
        out = conv.forward(x)
        outputs.append(out.transpose(0, 2, 3, 1).reshape(-1, filters))
    # One signature phase per forward, one group per input channel.
    ((groups, simulation),) = captured
    assert groups == in_channels
    views = group_views(simulation, groups)
    substituted = substitute_segments(
        im2col(x, kernel, kernel, stride, padding),
        [representative for _, representative in views], kernel * kernel)
    np.testing.assert_array_equal(
        outputs[0],
        substituted @ conv.weight.value.reshape(filters, -1).T
        + conv.bias.value)
    states = np.stack([states for states, _ in views])
    return outputs, states


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from(KERNELS))
    padding = draw(st.sampled_from((0, kernel // 2)))
    in_channels = draw(st.integers(1, 4))
    constant = draw(st.lists(st.integers(0, in_channels - 1), max_size=2,
                             unique=True))
    return (in_channels, draw(st.sampled_from((1, 5, 8, 27))), kernel,
            draw(st.sampled_from((1, 2))), padding, draw(st.integers(1, 2)),
            kernel + draw(st.integers(0, 4)), tuple(constant),
            draw(st.integers(0, 2 ** 31)))


@given(engines, conv_cases())
@settings(deadline=None)
@example(_engine(6, 4, 2), (3, 8, 1, 1, 0, 2, 6, (), 1))
@example(_engine(6, 4, 2), (3, 8, 3, 1, 1, 2, 6, (), 2))
@example(_engine(6, 4, 2), (3, 8, 3, 1, 0, 2, 6, (), 3))
@example(_engine(6, 4, 2), (3, 8, 5, 2, 2, 2, 9, (), 4))
@example(_engine(6, 4, 2), (2, 27, 5, 1, 0, 1, 9, (), 5))
@example(_engine(6, 4, 2), (3, 8, 7, 2, 3, 2, 12, (), 6))
@example(_engine(6, 4, 2), (2, 27, 7, 1, 0, 1, 10, (), 7))
@example(_engine(6, 4, 2), (3, 8, 11, 4, 2, 2, 23, (), 8))
@example(_engine(6, 4, 2), (2, 27, 11, 1, 5, 1, 11, (), 9))
@example(_engine(20, 16, 4), (4, 5, 3, 1, 0, 2, 8, (0, 2), 10))
def test_conv_forward_changes_only_the_rows_that_hit(engine, case):
    (out, exact), states = _conv_forward(engine, *case)
    _assert_only_hit_rows_differ(out, exact, states)


# ---------------------------------------------------------------------------
# No hits: the engine-less product itself
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv_forward_without_hits_is_the_engine_less_product(kernel,
                                                              padding):
    # A length-1 vector has one of two signatures (its sign), so a 1x1
    # conv is hit-free only on a single patch row: the one-row product.
    batch, size = (2, kernel + 3) if kernel > 1 else (1, 1)
    (out, exact), states = _conv_forward(
        _engine(62, 64, 16), 3, 27, kernel, 1,
        kernel // 2 if padding == "same" else 0, batch, size, (), kernel)
    assert not (states == HIT_CODE).any()
    np.testing.assert_array_equal(out, exact)


def test_linear_without_hits_is_the_engine_less_product():
    for rows in (1, 7, 33):
        forward, backward = _check_linear(_engine(62, 64, 16), rows, 25, 27,
                                          repeats=0, seed=rows)
        assert not (forward == HIT_CODE).any()
        assert not (backward == HIT_CODE).any()
