"""im2col / col2im utilities.

The paper's accelerator operates on *input vectors* extracted from the
input matrix — exactly the columns that im2col produces.  MERCURY's
signatures are computed per extracted vector, so these helpers are the
bridge between the functional convolution and the reuse engine.

The extraction itself is the hottest data-movement path of functional
training and, at serving batch sizes, costs more than the GEMM that
consumes it, so it avoids every copy it can:

- :func:`sliding_windows` exposes every patch of the (padded) input as
  an :func:`numpy.lib.stride_tricks.as_strided` view, without copying a
  byte.  It is the one window-view builder; ``MaxPool2D`` starts from it
  too and pays only the gather of its ``k^2``-expanded window matrix.
- Zero padding writes the input into one zeroed buffer with a single
  slice assignment (``np.pad`` costs several times that for the same
  bytes).
- :func:`im2col` materialises the ``(vectors, patch)`` matrix with at
  most one copy, forced by the contiguity the downstream GEMM needs.  A
  1x1, stride-1, unpadded convolution needs no window view at all: its
  rows are the input's channel vectors, so :func:`im2col` is a transpose
  and reshape, which is free when the input is an NCHW view of NHWC
  memory (what ``Conv2D.forward`` returns).
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
        batch, channels, height, width = x.shape
        # The memory order np.pad picks, so GEMM operands keep their
        # strides.
        padded = np.zeros((batch, channels, height + 2 * pad,
                           width + 2 * pad), dtype=x.dtype,
                          order="F" if x.flags.fnc else "C")
        padded[:, :, pad:pad + height, pad:pad + width] = x
        return padded
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
        number of copies differs — at most one, forced by the
        contiguity the GEMM consuming the rows requires.  Where no copy
        is needed the result is a read-only view.
    """
    batch, channels, height, width = x.shape
    if kernel_h == kernel_w == stride == 1 and pad == 0:
        # Each row is one pixel's channel vector.  As on the windowed
        # path, the result is a read-only view where the layout allows,
        # else a fresh copy.
        pixels = x.transpose(0, 2, 3, 1)
        pixels.flags.writeable = False
        return pixels.reshape(batch * height * width, channels)
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
    * kernel_w`` vectorised slice-adds).  The adds accumulate in NHWC
    order, ``(batch, height, width, channels)``, which is the order of
    ``cols``'s own rows, so every add reads ``cols`` along its rows and
    writes a run of adjacent channels.  Each element still receives its
    contributions in the same ``(i, j)`` order, so the sums are exactly
    those of the historical NCHW loop (``tests/oracles/im2col.py``).  One
    transposing copy then writes the interior into an NCHW padded
    buffer, and the result is the same strided view of it that the loop
    returned: its strides decide the reduction order downstream (e.g. in
    ``BatchNorm2D`` backward), so they must not change.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    padded_h = height + 2 * pad + stride - 1
    padded_w = width + 2 * pad + stride - 1

    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    summed = np.zeros((batch, padded_h, padded_w, channels),
                      dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            summed[:, i:i_max:stride, j:j_max:stride] += cols[..., i, j]

    # Only the interior is ever read through the returned view, so the
    # border of the NCHW buffer is left unwritten.
    padded = np.empty((batch, channels, padded_h, padded_w),
                      dtype=cols.dtype)
    interior = padded[:, :, pad:pad + height, pad:pad + width]
    interior[...] = summed[:, pad:pad + height,
                           pad:pad + width].transpose(0, 3, 1, 2)
    return interior
