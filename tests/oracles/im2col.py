"""The loop-filled im2col and NCHW col2im: the bitwise oracles for
``repro.nn.im2col.im2col`` and ``col2im``."""

from __future__ import annotations

import numpy as np

from repro.nn.im2col import conv_output_size


def im2col_reference(x: np.ndarray, kernel_h: int, kernel_w: int,
                     stride: int = 1, pad: int = 0) -> np.ndarray:
    """Fill the ``(vectors, patch)`` matrix one kernel offset at a time."""
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    if pad > 0:
        x = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)],
                   mode="constant")

    cols = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w),
                    dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]

    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w)


def col2im_reference(cols: np.ndarray, input_shape: tuple, kernel_h: int,
                     kernel_w: int, stride: int = 1,
                     pad: int = 0) -> np.ndarray:
    """Scatter-add the patches into an NCHW buffer, one kernel offset at
    a time, and return the unpadded view of it."""
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

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
