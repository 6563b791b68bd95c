"""Weight initialisation helpers."""

from __future__ import annotations

import numpy as np


def he_normal(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialisation, appropriate for ReLU networks."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy Generator; a fixed default keeps runs repeatable."""
    return np.random.default_rng(0 if seed is None else seed)
