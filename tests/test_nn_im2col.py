"""Tests for im2col / col2im."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn.im2col import (col2im, conv_output_size, im2col,
                             im2col_view, sliding_windows)
from tests.helpers import LAYOUTS, in_layout
from tests.oracles.im2col import col2im_reference, im2col_reference


def test_conv_output_size_basic():
    assert conv_output_size(5, 3, 1, 0) == 3
    assert conv_output_size(5, 3, 1, 1) == 5
    assert conv_output_size(7, 3, 2, 0) == 3
    assert conv_output_size(224, 7, 2, 3) == 112


def test_im2col_shape():
    x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
    cols = im2col(x, 3, 3)
    assert cols.shape == (2 * 3 * 3, 3 * 3 * 3)


def test_im2col_values_single_patch():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    cols = im2col(x, 3, 3)
    # First patch is the top-left 3x3 block.
    np.testing.assert_array_equal(cols[0],
                                  x[0, 0, :3, :3].reshape(-1))
    # Last patch is the bottom-right 3x3 block.
    np.testing.assert_array_equal(cols[-1],
                                  x[0, 0, 1:, 1:].reshape(-1))


def test_im2col_matches_direct_convolution():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2, 6, 6))
    w = rng.normal(size=(4, 2, 3, 3))
    cols = im2col(x, 3, 3)
    out = (cols @ w.reshape(4, -1).T).reshape(2, 4, 4, 4)
    # Direct convolution for one sample/filter/position.
    direct = np.sum(x[1, :, 2:5, 1:4] * w[3])
    assert np.isclose(out[1, 2, 1, 3], direct)


def test_im2col_with_padding_and_stride():
    x = np.ones((1, 1, 4, 4))
    cols = im2col(x, 3, 3, stride=2, pad=1)
    out_size = conv_output_size(4, 3, 2, 1)
    assert cols.shape == (out_size * out_size, 9)
    # Corner patch includes padding zeros.
    assert cols[0].sum() == 4.0


def test_col2im_inverts_im2col_for_non_overlapping():
    x = np.arange(1 * 1 * 4 * 4, dtype=float).reshape(1, 1, 4, 4)
    cols = im2col(x, 2, 2, stride=2)
    restored = col2im(cols, x.shape, 2, 2, stride=2)
    np.testing.assert_allclose(restored, x)


def test_col2im_accumulates_overlaps():
    x = np.ones((1, 1, 3, 3))
    cols = im2col(x, 2, 2, stride=1)
    restored = col2im(cols, x.shape, 2, 2, stride=1)
    # The centre pixel participates in all four 2x2 patches.
    assert restored[0, 0, 1, 1] == 4.0
    assert restored[0, 0, 0, 0] == 1.0


@settings(deadline=None, max_examples=20)
@given(batch=st.integers(1, 3), channels=st.integers(1, 3),
       size=st.integers(4, 8), kernel=st.integers(1, 3))
def test_im2col_shape_property(batch, channels, size, kernel):
    x = np.random.default_rng(1).normal(size=(batch, channels, size, size))
    cols = im2col(x, kernel, kernel)
    out = size - kernel + 1
    assert cols.shape == (batch * out * out, channels * kernel * kernel)


def test_sliding_windows_is_a_zero_copy_view():
    x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
    windows = sliding_windows(x, 3, 3, stride=2)
    assert windows.shape == (2, 3, 3, 3, 2, 2)
    assert windows.base is not None          # a view, not a copy
    assert np.shares_memory(windows, x)
    assert not windows.flags.writeable
    np.testing.assert_array_equal(windows[1, 2, :, :, 1, 0],
                                  x[1, 2, 2:5, 0:3])


def test_im2col_view_defers_the_copy():
    x = np.random.default_rng(3).normal(size=(2, 2, 6, 6))
    view = im2col_view(x, 3, 3)
    assert np.shares_memory(view, x)
    np.testing.assert_array_equal(view.reshape(2 * 4 * 4, 2 * 9),
                                  im2col(x, 3, 3))


@settings(deadline=None, max_examples=30)
@given(batch=st.integers(1, 3), channels=st.integers(1, 3),
       size=st.integers(4, 9), kernel=st.integers(1, 3),
       stride=st.integers(1, 3), pad=st.integers(0, 2),
       layout=st.sampled_from(LAYOUTS))
def test_im2col_matches_reference_bitwise(batch, channels, size, kernel,
                                          stride, pad, layout):
    """The strided rewrite gathers exactly the loop oracle's values."""
    x = in_layout(np.random.default_rng(size * 7 + kernel).normal(
        size=(batch, channels, size, size)), layout)
    fast = im2col(x, kernel, kernel, stride=stride, pad=pad)
    reference = im2col_reference(x, kernel, kernel, stride=stride, pad=pad)
    assert fast.dtype == reference.dtype
    np.testing.assert_array_equal(fast, reference)
    # Views never let a consumer write through to the caller's input.
    view = im2col_view(x, kernel, kernel, stride=stride, pad=pad)
    windows = sliding_windows(x, kernel, kernel, stride=stride)
    assert not view.flags.writeable and not windows.flags.writeable
    assert np.shares_memory(windows, x)
    assert np.shares_memory(view, x) == (pad == 0)
    if np.shares_memory(fast, x):
        assert not fast.flags.writeable


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("stride", [1, 2])
def test_pointwise_im2col_matches_reference(layout, stride):
    x = in_layout(np.random.default_rng(5).normal(size=(2, 3, 5, 4)),
                  layout)
    cols = im2col(x, 1, 1, stride=stride)
    np.testing.assert_array_equal(
        cols, im2col_reference(x, 1, 1, stride=stride))
    # Rows are the pixels' channel vectors: over NHWC memory at stride 1
    # they already are GEMM rows, so nothing is copied.
    assert np.shares_memory(cols, x) == (layout == "nhwc" and stride == 1)
    assert cols.flags.writeable != np.shares_memory(cols, x)


@settings(deadline=None, max_examples=20)
@given(size=st.integers(4, 8), kernel=st.integers(2, 3))
def test_col2im_total_mass_preserved(size, kernel):
    rng = np.random.default_rng(2)
    cols = rng.normal(size=((size - kernel + 1) ** 2, kernel * kernel))
    restored = col2im(cols, (1, 1, size, size), kernel, kernel)
    assert np.isclose(restored.sum(), cols.sum())


@settings(deadline=None, max_examples=40)
@given(batch=st.integers(1, 3), channels=st.integers(1, 4),
       size=st.integers(1, 8), kernel=st.integers(1, 5),
       stride=st.integers(1, 2), pad=st.integers(0, 2),
       seed=st.integers(0, 2 ** 16))
def test_col2im_matches_reference_bitwise(batch, channels, size, kernel,
                                          stride, pad, seed):
    """The NHWC-order scatter adds each element's contributions in the
    NCHW loop's order, and returns a view with the loop's strides."""
    assume(size + 2 * pad >= kernel)
    out = conv_output_size(size, kernel, stride, pad)
    cols = np.random.default_rng(seed).normal(
        size=(batch * out * out, channels * kernel * kernel))
    shape = (batch, channels, size, size)
    fast = col2im(cols, shape, kernel, kernel, stride=stride, pad=pad)
    reference = col2im_reference(cols, shape, kernel, kernel,
                                 stride=stride, pad=pad)
    assert fast.dtype == reference.dtype
    assert fast.tobytes() == reference.tobytes()
    assert fast.strides == reference.strides
