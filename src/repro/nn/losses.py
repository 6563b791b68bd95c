"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.activations import softmax


class CrossEntropyLoss:
    """Softmax cross entropy over integer class labels.

    ``forward`` returns the mean loss; ``backward`` returns the gradient
    with respect to the logits.  An optional ``ignore_index`` skips
    padded positions (used by the transformer benchmark).
    """

    def __init__(self, ignore_index: int | None = None):
        self.ignore_index = ignore_index
        self._cache = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits2d = logits.reshape(-1, logits.shape[-1])
        targets1d = np.asarray(targets, dtype=np.int64).reshape(-1)

        probs = softmax(logits2d, axis=-1)
        if self.ignore_index is not None:
            mask = targets1d != self.ignore_index
        else:
            mask = np.ones_like(targets1d, dtype=bool)

        valid = np.flatnonzero(mask)
        if valid.size == 0:
            raise ValueError("all targets are ignored; cannot compute loss")

        picked = probs[valid, targets1d[valid]]
        loss = float(-np.mean(np.log(np.clip(picked, 1e-12, None))))

        self._cache = (probs, targets1d, mask, logits.shape)
        return loss

    def backward(self) -> np.ndarray:
        probs, targets1d, mask, original_shape = self._cache
        grad = probs.copy()
        valid = np.flatnonzero(mask)
        grad[valid, targets1d[valid]] -= 1.0
        grad[~mask] = 0.0
        grad /= valid.size
        return grad.reshape(original_shape)

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)
