"""The attention layer of the model zoo's transformer.

:class:`MultiHeadSelfAttention` is the standard parametric attention
(the paper's §III-C4 describes the non-parametric ``Y = (X X^T) X``
core it accelerates; no model here builds that variant).  Only its
Q/K/V and output projections go through the engine: they are Linear
layers, so they benefit from reuse like any other.  Its score and
context products are plain numpy products, one ``np.matmul`` over the
``(batch, heads, seq, ·)`` stacks each, with transposed operands taken
as ``swapaxes`` views; every ``(b, h)`` pair is its own GEMM, so a
sample's attention core does not depend on how many samples share the
batch.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.activations import softmax
from repro.nn.layers.linear import Linear
from repro.nn.module import Module


class MultiHeadSelfAttention(Module):
    """Standard multi-head self attention with learned projections."""

    def __init__(self, embed_dim: int, num_heads: int, seed: int | None = None):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads

        base = 0 if seed is None else seed
        self.q_proj = Linear(embed_dim, embed_dim, seed=base + 1)
        self.k_proj = Linear(embed_dim, embed_dim, seed=base + 2)
        self.v_proj = Linear(embed_dim, embed_dim, seed=base + 3)
        self.out_proj = Linear(embed_dim, embed_dim, seed=base + 4)
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        x = x.reshape(batch, seq, self.num_heads, self.head_dim)
        return x.transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, heads, seq, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = np.matmul(q, k.swapaxes(-1, -2)) * scale
        attn = softmax(scores, axis=-1)
        context = np.matmul(attn, v)

        merged = self._merge_heads(context)
        out = self.out_proj(merged)
        self._cache = (q, k, v, attn, scale)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        q, k, v, attn, scale = self._cache

        grad_merged = self.out_proj.backward(grad_output)
        batch, seq, _ = grad_merged.shape
        grad_context = grad_merged.reshape(
            batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        grad_attn = np.matmul(grad_context, v.swapaxes(-1, -2))
        grad_v = np.matmul(attn.swapaxes(-1, -2), grad_context)

        # Softmax backward
        dot = np.sum(grad_attn * attn, axis=-1, keepdims=True)
        grad_scores = attn * (grad_attn - dot)
        grad_scores = grad_scores * scale

        grad_q = np.matmul(grad_scores, k)
        grad_k = np.matmul(grad_scores.swapaxes(-1, -2), q)

        grad_x = self.q_proj.backward(self._merge_heads(grad_q))
        grad_x = grad_x + self.k_proj.backward(self._merge_heads(grad_k))
        grad_x = grad_x + self.v_proj.backward(self._merge_heads(grad_v))
        return grad_x
