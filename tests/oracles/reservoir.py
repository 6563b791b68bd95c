"""A uniform reservoir sample: the oracle for streaming latency percentiles.

:class:`Reservoir` keeps a fixed-size uniform sample of a value stream
(Algorithm R with a seeded generator, so a stream always yields the
same sample).  ``tests/test_obs_metrics.py`` reads percentiles from it
and from :class:`repro.obs.metrics.LogHistogram` over the same stream,
and requires both to agree with the exact stream percentiles: two
independent summaries cross-checking each other.
"""

from __future__ import annotations

import numpy as np


class Reservoir:
    """Fixed-size uniform sample of an unbounded value stream.

    Until ``capacity`` values have been recorded the sample *is* the
    stream; past that, each value replaces a uniformly random slot with
    probability ``capacity / count``.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.count = 0
        self._values: list[float] = []
        self._rng = np.random.default_rng(seed)

    def record(self, value: float) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        slot = int(self._rng.integers(0, self.count))
        if slot < self.capacity:
            self._values[slot] = float(value)

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)
