"""Pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.im2col import conv_output_size, sliding_windows
from repro.nn.module import Module


class MaxPool2D(Module):
    """Max pooling over non-overlapping or strided square windows.

    Both passes are vectorised over every window at once via the
    strided-view helper the convolution hot path uses; the argmax /
    scatter semantics (first-maximum wins, contributions accumulate in
    window order) are identical to a per-window loop.
    """

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(height, k, s, 0)
        out_w = conv_output_size(width, k, s, 0)

        windows = sliding_windows(x, k, k, s)
        # (batch, channels, out_h, out_w, k*k): each window's elements
        # row-major, matching the per-window reshape of the scalar loop.
        flat = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
            batch, channels, out_h, out_w, k * k)
        argmax = flat.argmax(axis=4)
        out = np.take_along_axis(flat, argmax[..., None], axis=4)[..., 0]

        self._cache = (x.shape, argmax)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape, argmax = self._cache
        batch, channels, height, width = input_shape
        k, s = self.kernel_size, self.stride
        _, _, out_h, out_w = grad_output.shape

        di, dj = np.divmod(argmax, k)
        rows = np.arange(out_h, dtype=np.int64)[None, None, :, None] * s + di
        cols = np.arange(out_w, dtype=np.int64)[None, None, None, :] * s + dj
        b_idx = np.arange(batch)[:, None, None, None]
        c_idx = np.arange(channels)[None, :, None, None]

        grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
        np.add.at(grad_input, (b_idx, c_idx, rows, cols), grad_output)
        return grad_input


class GlobalAvgPool2D(Module):
    """Average over the full spatial extent, producing ``(batch, channels)``."""

    def __init__(self):
        super().__init__()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._cache
        scale = 1.0 / (height * width)
        grad = grad_output[:, :, None, None] * scale
        return np.broadcast_to(grad, self._cache).copy()
