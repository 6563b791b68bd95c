"""Plain-list replacement policies: the oracle for repro.core.eviction.

Each set is a Python list of ways ordered LRU first, MRU last — slow,
but obviously right.  ``tests/test_eviction_properties.py`` replays
randomized traces through these and the intrusive-list structures of
:mod:`repro.core.eviction` and asserts identical victims and identical
serialized state.
"""

from __future__ import annotations

import numpy as np


class ReferenceLRU:
    """Each set is a plain list of ways, LRU first / MRU last."""

    name = "lru"

    def __init__(self, num_sets: int, ways: int):
        self.num_sets, self.ways = num_sets, ways
        self._order: list[list[int]] = [[] for _ in range(num_sets)]

    def _to_front(self, s: int, w: int) -> None:
        if w in self._order[s]:
            self._order[s].remove(w)
        self._order[s].append(w)

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._to_front(s, w)

    touch = insert
    replace = insert

    def victim(self, s: int) -> int:
        return self._order[s][0] if self._order[s] else -1

    def state_arrays(self) -> dict:
        rank = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        for s, order in enumerate(self._order):
            for position, w in enumerate(reversed(order)):
                rank[s, w] = position
        return {"ev_rank": rank}

    def load_state_arrays(self, arrays: dict) -> None:
        rank = np.asarray(arrays["ev_rank"], dtype=np.int64)
        self._order = [[] for _ in range(self.num_sets)]
        for s in range(self.num_sets):
            linked = np.flatnonzero(rank[s] >= 0)
            ordered = linked[np.argsort(rank[s][linked], kind="stable")]
            self._order[s] = [int(w) for w in reversed(ordered)]

    def clear(self) -> None:
        self._order = [[] for _ in range(self.num_sets)]


class ReferenceLFU(ReferenceLRU):
    """Frequency counters over the reference recency lists."""

    name = "lfu"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._freq = np.zeros((num_sets, ways), dtype=np.int64)

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s, w] = count
        self._to_front(s, w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s, w] += count
        self._to_front(s, w)

    replace = insert

    def victim(self, s: int) -> int:
        best_way, best = -1, None
        for w in self._order[s]:  # LRU first: earliest wins ties
            if best is None or self._freq[s, w] < best:
                best_way, best = w, int(self._freq[s, w])
        return best_way

    def state_arrays(self) -> dict:
        arrays = super().state_arrays()
        arrays["ev_freq"] = self._freq.copy()
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        super().load_state_arrays(arrays)
        self._freq = np.asarray(arrays["ev_freq"], dtype=np.int64).copy()

    def clear(self) -> None:
        super().clear()
        self._freq[:] = 0


class ReferenceSLRU:
    """Probation/protected segments as plain lists, LRU first."""

    name = "slru"

    def __init__(self, num_sets: int, ways: int):
        self.num_sets, self.ways = num_sets, ways
        self.protected_capacity = ways // 2
        self._probation: list[list[int]] = [[] for _ in range(num_sets)]
        self._protected: list[list[int]] = [[] for _ in range(num_sets)]

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._probation[s].append(w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        if w in self._protected[s]:
            self._protected[s].remove(w)
            self._protected[s].append(w)
            return
        if self.protected_capacity == 0:
            self._probation[s].remove(w)
            self._probation[s].append(w)
            return
        self._probation[s].remove(w)
        self._protected[s].append(w)
        if len(self._protected[s]) > self.protected_capacity:
            self._probation[s].append(self._protected[s].pop(0))

    def replace(self, s: int, w: int, count: int = 1) -> None:
        if w in self._protected[s]:
            self._protected[s].remove(w)
        if w in self._probation[s]:
            self._probation[s].remove(w)
        self._probation[s].append(w)

    def victim(self, s: int) -> int:
        if self._probation[s]:
            return self._probation[s][0]
        return self._protected[s][0] if self._protected[s] else -1

    def segment_of(self, s: int, w: int) -> int:
        return 1 if w in self._protected[s] else 0

    def state_arrays(self) -> dict:
        rank = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        segment = np.zeros((self.num_sets, self.ways), dtype=np.int8)
        for s in range(self.num_sets):
            for position, w in enumerate(reversed(self._probation[s])):
                rank[s, w] = position
            for position, w in enumerate(reversed(self._protected[s])):
                rank[s, w] = position
                segment[s, w] = 1
        return {"ev_rank": rank, "ev_segment": segment}

    def load_state_arrays(self, arrays: dict) -> None:
        rank = np.asarray(arrays["ev_rank"], dtype=np.int64)
        segment = np.asarray(arrays["ev_segment"], dtype=np.int8)
        self._probation = [[] for _ in range(self.num_sets)]
        self._protected = [[] for _ in range(self.num_sets)]
        for s in range(self.num_sets):
            for target, member in ((self._probation, 0),
                                   (self._protected, 1)):
                linked = np.flatnonzero((rank[s] >= 0)
                                        & (segment[s] == member))
                ordered = linked[np.argsort(rank[s][linked], kind="stable")]
                target[s] = [int(w) for w in reversed(ordered)]

    def clear(self) -> None:
        self.__init__(self.num_sets, self.ways)


REFERENCE_POLICIES = {"lru": ReferenceLRU, "lfu": ReferenceLFU,
                      "slru": ReferenceSLRU}


def build_reference_eviction_state(policy: str, num_sets: int, ways: int):
    """The oracle twin of :func:`repro.core.eviction.build_eviction_state`."""
    if policy == "none":
        return None
    return REFERENCE_POLICIES[policy](num_sets, ways)
