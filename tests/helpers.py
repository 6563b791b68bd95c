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


#: Memory layouts a conv or BatchNorm input arrives in: a fresh array,
#: the NCHW view of NHWC memory that ``Conv2D.forward`` returns, and
#: Fortran order.
LAYOUTS = ("c", "nhwc", "fortran")


def in_layout(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values in one of :data:`LAYOUTS`."""
    if layout == "nhwc":
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
            0, 3, 1, 2)
    if layout == "fortran":
        return np.asfortranarray(x)
    return x


def assert_simulations_equal(got, want) -> None:
    """Two ``HitmapSimulation`` results hold the same arrays and counts."""
    np.testing.assert_array_equal(got.states, want.states)
    np.testing.assert_array_equal(got.representative, want.representative)
    assert (got.hits, got.mau, got.mnu, got.unique_signatures) == \
        (want.hits, want.mau, want.mnu, want.unique_signatures)


def capture_classified(engine) -> list:
    """Record every Hitmap ``engine``'s signature phase returns, in
    order, as ``(groups, simulation)`` pairs.

    A plain ``session.classify`` call records ``groups == 1``; a
    ``session.classify_groups`` call records its group count and the
    one interleaved frame (``tests.oracles.hitmap.group_states`` and
    ``group_representative`` give each group's view).
    """
    captured = []
    session = engine.session
    classify, classify_groups = session.classify, session.classify_groups

    def capturing(signatures):
        simulation = classify(signatures)
        captured.append((1, simulation))
        return simulation

    def capturing_groups(signatures, groups, signature_bits):
        simulation = classify_groups(signatures, groups, signature_bits)
        captured.append((groups, simulation))
        return simulation

    session.classify = capturing
    session.classify_groups = capturing_groups
    return captured
