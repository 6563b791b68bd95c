"""Normalisation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter


class BatchNorm2D(Module):
    """Batch normalisation over (batch, height, width) per channel."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features), name="bn_gamma")
        self.beta = Parameter(np.zeros(num_features), name="bn_beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The input is centred once and normalised in place.  The
        # statistics are ``np.mean`` and ``np.var``'s own op sequence
        # (sum, divide; subtract, square, sum, divide), so they equal
        # those functions bit for bit; ``x_hat`` keeps the input's
        # layout, whose strides set the backward's reduction order.
        if self.training:
            axes = (0, 2, 3)
            count = x.shape[0] * x.shape[2] * x.shape[3]
            mean4 = np.add.reduce(x, axis=axes, keepdims=True) / count
            x_hat = x - mean4
            var = np.add.reduce(np.square(x_hat), axis=axes) / count
            mean = mean4.reshape(-1)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            var = self.running_var
            x_hat = x - self.running_mean[None, :, None, None]

        std4 = np.sqrt(var[None, :, None, None] + self.eps)
        x_hat /= std4
        out = self.gamma.value[None, :, None, None] * x_hat + \
            self.beta.value[None, :, None, None]
        self._cache = (x_hat, std4)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, std4 = self._cache
        batch, _, height, width = grad_output.shape
        count = batch * height * width

        self.gamma.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))

        gamma4 = self.gamma.value[None, :, None, None]
        dx_hat = grad_output * gamma4
        sum_dx_hat = dx_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dx_hat_xhat = (dx_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_input = (dx_hat - sum_dx_hat / count
                      - x_hat * sum_dx_hat_xhat / count) / std4
        return grad_input


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_shape), name="ln_gamma")
        self.beta = Parameter(np.zeros(normalized_shape), name="ln_beta")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean) / std
        self._cache = (x_hat, std)
        return self.gamma.value * x_hat + self.beta.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, std = self._cache
        dims = x_hat.shape[-1]

        reduce_axes = tuple(range(grad_output.ndim - 1))
        self.gamma.grad += (grad_output * x_hat).sum(axis=reduce_axes)
        self.beta.grad += grad_output.sum(axis=reduce_axes)

        dx_hat = grad_output * self.gamma.value
        sum_dx_hat = dx_hat.sum(axis=-1, keepdims=True)
        sum_dx_hat_xhat = (dx_hat * x_hat).sum(axis=-1, keepdims=True)
        grad_input = (dx_hat - sum_dx_hat / dims
                      - x_hat * sum_dx_hat_xhat / dims) / std
        return grad_input
