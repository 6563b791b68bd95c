"""Per-parameter optimizers: the bitwise oracles for ``repro.nn.optim``.

Each step loops over the parameters and updates each one with its own
ufunc calls, allocating fresh temporaries; the production optimizers
run the same elementwise sequence once over a flat buffer.
"""

from __future__ import annotations

import numpy as np


class ReferenceSGD:
    """SGD with optional momentum and weight decay, one parameter at a
    time."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.value) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.value -= self.lr * update


class ReferenceAdam:
    """Adam, one parameter at a time."""

    def __init__(self, parameters, lr: float = 0.001, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / bias1
            v_hat = v / bias2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
