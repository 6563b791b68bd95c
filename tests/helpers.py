"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np


def numerical_gradient(func, array: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. ``array``.

    ``func`` is called with no arguments and must read ``array`` in
    place (the helper perturbs entries one at a time).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func()
        flat[index] = original - epsilon
        minus = func()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def capture_grouped(engine) -> list:
    """Record every grouped Hitmap ``engine`` classifies, in order."""
    captured = []
    classify_groups = engine.session.classify_groups

    def capturing(signatures, groups, signature_bits):
        simulations = classify_groups(signatures, groups, signature_bits)
        captured.append(simulations)
        return simulations

    engine.session.classify_groups = capturing
    return captured
