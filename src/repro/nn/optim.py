"""Optimizers over one flat parameter buffer.

An optimizer copies every ``Parameter.value`` and ``.grad`` into one
flat float64 value buffer and one flat grad buffer, then rebinds each
parameter to a (C-ordered) view of its slice.  Layers keep updating
``grad`` in place and reading ``value`` as before; the optimizer then
runs its elementwise update once over the flat arrays instead of once
per parameter, writing every intermediate into preallocated scratch
through ``out=`` (the allocation of a fresh temporary per ufunc call
would cost more than the flat loop saves).  Each element goes through
the same ops, in the same order, as in a per-parameter loop
(``tests/oracles/optim.py``), so the updates are bit-identical.

A parameter whose ``value`` or ``grad`` is later rebound to another
array no longer aliases the buffer; :meth:`Optimizer.step` refuses to
run rather than silently lose its updates.
"""

from __future__ import annotations

import numpy as np


class Optimizer:
    """Base class holding a parameter list and its flat buffers."""

    def __init__(self, parameters):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("optimizer received the same parameter twice")
        sizes = [p.value.size for p in self.parameters]
        self._values = np.empty(sum(sizes), dtype=np.float64)
        self._grads = np.empty_like(self._values)
        offset = 0
        for p, size in zip(self.parameters, sizes):
            shape = p.value.shape
            value = self._values[offset:offset + size].reshape(shape)
            grad = self._grads[offset:offset + size].reshape(shape)
            value[...] = p.value
            grad[...] = p.grad
            p.value, p.grad = value, grad
            offset += size

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def _check_aliasing(self) -> None:
        """Raise if a parameter was rebound away from the flat buffers."""
        for index, p in enumerate(self.parameters):
            for attr, flat in (("value", self._values),
                               ("grad", self._grads)):
                if getattr(getattr(p, attr), "base", None) is not flat:
                    raise RuntimeError(
                        f"parameter {index} ({p.name!r}): its {attr} was "
                        f"rebound off the optimizer's buffer, so its "
                        f"updates would be lost")

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._values)
        self._scratch = np.empty_like(self._values)

    def step(self) -> None:
        self._check_aliasing()
        values, scratch, velocity = self._values, self._scratch, self._velocity
        grad = self._grads
        if self.weight_decay:
            np.multiply(values, self.weight_decay, out=scratch)
            scratch += grad
            grad = scratch
        if self.momentum:
            velocity *= self.momentum
            velocity += grad
            update = velocity
        else:
            update = grad
        np.multiply(update, self.lr, out=scratch)
        values -= scratch


class Adam(Optimizer):
    """Adam optimizer."""

    def __init__(self, parameters, lr: float = 0.001, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._scratch = (np.empty_like(self._values),
                         np.empty_like(self._values))
        self._t = 0

    def step(self) -> None:
        self._check_aliasing()
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        values, m, v = self._values, self._m, self._v
        first, second = self._scratch
        grad = self._grads
        if self.weight_decay:
            np.multiply(values, self.weight_decay, out=first)
            first += grad
            grad = first
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=second)
        m += second
        v *= self.beta2
        np.square(grad, out=second)
        second *= 1.0 - self.beta2
        v += second
        # m_hat, then lr * m_hat / (sqrt(v_hat) + eps).
        np.divide(m, bias1, out=first)
        first *= self.lr
        np.divide(v, bias2, out=second)
        np.sqrt(second, out=second)
        second += self.eps
        first /= second
        values -= first
