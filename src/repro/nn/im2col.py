"""im2col / col2im utilities.

The paper's accelerator operates on *input vectors* extracted from the
input matrix — exactly the columns that im2col produces.  MERCURY's
signatures are computed per extracted vector, so these helpers are the
bridge between the functional convolution and the reuse engine.

The extraction itself is the hottest data-movement path of functional
training, so it is built on :func:`numpy.lib.stride_tricks.as_strided`
views: :func:`sliding_windows` exposes every patch of the (padded)
input without copying a byte, and :func:`im2col` materialises the
``(vectors, patch)`` matrix with a *single* copy — only because the
downstream GEMM needs contiguous rows.  Other consumers (pooling, the
convolution-formulated signature path) start from the same view and pay
only whatever gather *they* need — ``MaxPool2D`` copies its
``k^2``-expanded window matrix, but no longer loop-fills it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * pad - kernel) // stride + 1


def sliding_windows(x: np.ndarray, kernel_h: int, kernel_w: int,
                    stride: int = 1) -> np.ndarray:
    """Zero-copy view of every ``kernel_h x kernel_w`` patch of ``x``.

    Parameters
    ----------
    x:
        Array of shape ``(batch, channels, height, width)``.  Padding, if
        any, must already have been applied.
    kernel_h, kernel_w, stride:
        Patch geometry.

    Returns
    -------
    numpy.ndarray
        Read-only strided view of shape ``(batch, channels, kernel_h,
        kernel_w, out_h, out_w)`` aliasing ``x``'s memory — the same
        layout the historical loop-filled buffer used, for free.
    """
    batch, channels, height, width = x.shape
    out_h = (height - kernel_h) // stride + 1
    out_w = (width - kernel_w) // stride + 1
    stride_b, stride_c, stride_h, stride_w = x.strides
    return as_strided(
        x,
        shape=(batch, channels, kernel_h, kernel_w, out_h, out_w),
        strides=(stride_b, stride_c, stride_h, stride_w,
                 stride_h * stride, stride_w * stride),
        writeable=False)


def _pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    if pad > 0:
        return np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)],
                      mode="constant")
    return x


def im2col_view(x: np.ndarray, kernel_h: int, kernel_w: int,
                stride: int = 1, pad: int = 0) -> np.ndarray:
    """Patch view ordered like :func:`im2col` rows, without the copy.

    Returns a (generally non-contiguous) view of shape ``(batch, out_h,
    out_w, channels, kernel_h, kernel_w)``; reshaping it to 2-D is what
    :func:`im2col` does, and is the only copy in the pipeline.
    """
    x = _pad_input(x, pad)
    windows = sliding_windows(x, kernel_h, kernel_w, stride)
    return windows.transpose(0, 4, 5, 1, 2, 3)


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Convert a batch of images into a matrix of extracted input vectors.

    Parameters
    ----------
    x:
        Input of shape ``(batch, channels, height, width)``.
    kernel_h, kernel_w:
        Filter dimensions.
    stride, pad:
        Convolution stride and zero padding.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(batch * out_h * out_w, channels * kernel_h *
        kernel_w)``; each row is one input vector in the paper's sense.
        The values (and their order) are identical to the historical
        loop implementation (``tests/oracles/im2col.py``); only the
        number of copies differs — one, forced by the contiguity the
        GEMM consuming the rows requires.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    patches = im2col_view(x, kernel_h, kernel_w, stride, pad)
    return patches.reshape(batch * out_h * out_w,
                           channels * kernel_h * kernel_w)


def col2im(cols: np.ndarray, input_shape: tuple, kernel_h: int, kernel_w: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Inverse of :func:`im2col` accumulating overlapping contributions.

    Parameters
    ----------
    cols:
        Matrix of shape ``(batch * out_h * out_w, channels * kernel_h *
        kernel_w)``.
    input_shape:
        The original ``(batch, channels, height, width)``.

    Returns
    -------
    numpy.ndarray
        Array with the original input shape where overlapping patch
        positions have been summed (as required by convolution
        backward).

    Overlapping windows alias each other, so the scatter-add cannot be a
    single strided write; instead the patch axes are walked (``kernel_h
    * kernel_w`` vectorised slice-adds) while everything read from
    ``cols`` stays a view.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    # Views only: reshape of the (contiguous) cols matrix, then axis
    # permutation back to (batch, channels, kernel_h, kernel_w, ...).
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)

    padded = np.zeros((batch, channels, height + 2 * pad + stride - 1,
                       width + 2 * pad + stride - 1), dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]

    return padded[:, :, pad:pad + height, pad:pad + width]
