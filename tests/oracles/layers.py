"""Layer oracles: einsum attention and a ``pow`` GELU, tolerance
oracles for the transformer kernels, and a two-pass BatchNorm, a
bitwise oracle.

:class:`EinsumMultiHeadSelfAttention` contracts the attention core
(scores, context and their four gradients) with ``np.einsum``;
:class:`PowGELU` takes GELU's cube as a power.  The production layers
run one ``np.matmul`` per product and multiply the cube out, which
sums and rounds differently, so the two agree within a tolerance, not
bit for bit.  The projections and the softmax are the production
code's, so any deviation larger than rounding is a kernel fault.

:class:`TwoPassBatchNorm2D` takes its statistics with ``x.mean`` and
``x.var`` and centres the input again to normalise it.  The production
layer centres once and runs the same op sequence, so the two agree in
bytes and in strides.
"""

from __future__ import annotations

import numpy as np

from repro.nn import GELU, BatchNorm2D, MultiHeadSelfAttention
from repro.nn.layers.activations import softmax


class EinsumMultiHeadSelfAttention(MultiHeadSelfAttention):
    """Multi-head self attention whose core products are einsums."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = np.einsum("bhqd,bhkd->bhqk", q, k) * scale
        attn = softmax(scores, axis=-1)
        context = np.einsum("bhqk,bhkd->bhqd", attn, v)

        out = self.out_proj(self._merge_heads(context))
        self._cache = (q, k, v, attn, scale)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        q, k, v, attn, scale = self._cache

        grad_merged = self.out_proj.backward(grad_output)
        batch, seq, _ = grad_merged.shape
        grad_context = grad_merged.reshape(
            batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        grad_attn = np.einsum("bhqd,bhkd->bhqk", grad_context, v)
        grad_v = np.einsum("bhqk,bhqd->bhkd", attn, grad_context)

        dot = np.sum(grad_attn * attn, axis=-1, keepdims=True)
        grad_scores = attn * (grad_attn - dot) * scale

        grad_q = np.einsum("bhqk,bhkd->bhqd", grad_scores, k)
        grad_k = np.einsum("bhqk,bhqd->bhkd", grad_scores, q)

        grad_x = self.q_proj.backward(self._merge_heads(grad_q))
        grad_x = grad_x + self.k_proj.backward(self._merge_heads(grad_k))
        grad_x = grad_x + self.v_proj.backward(self._merge_heads(grad_v))
        return grad_x


class PowGELU(GELU):
    """GELU (tanh approximation) with the cube taken as ``x ** 3``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        inner = self._COEFF * (x + 0.044715 * x ** 3)
        tanh_inner = np.tanh(inner)
        self._cache = (x, tanh_inner)
        return 0.5 * x * (1.0 + tanh_inner)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x, tanh_inner = self._cache
        sech2 = 1.0 - tanh_inner ** 2
        d_inner = self._COEFF * (1.0 + 3 * 0.044715 * x ** 2)
        grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        return grad_output * grad


class TwoPassBatchNorm2D(BatchNorm2D):
    """BatchNorm whose forward reads its input for the mean, twice more
    inside ``x.var`` and once more to centre it."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            mean = self.running_mean
            var = self.running_var

        mean4 = mean[None, :, None, None]
        std4 = np.sqrt(var[None, :, None, None] + self.eps)
        x_hat = (x - mean4) / std4
        out = self.gamma.value[None, :, None, None] * x_hat + \
            self.beta.value[None, :, None, None]
        self._cache = (x_hat, std4)
        return out
