"""Replacement policies for the persistent serving caches.

The paper's MCACHE has **no replacement**: a signature whose set is full
is computed every time (MNU).  That is the right model for training —
batches are single-use and the cache is flash-cleared per layer — but a
long-running serving cache under skewed traffic needs real eviction, or
cold keys squat on their lines forever.  This module provides the three
replacement policies the serving stack exposes through the
``ServingPolicy.eviction`` axis:

* ``lru`` — evict the least-recently-*probed* line of the full set;
* ``lfu`` — evict the lowest-frequency line (frequency counts the rows
  that probed the line since it claimed its way); ties break
  deterministically toward the least recently probed line;
* ``slru`` — segmented LRU: fresh inserts enter a *probation* segment,
  a probation hit promotes the line to a *protected* segment (bounded
  at ``ways // 2`` lines per set; overflow demotes the protected LRU
  line back to probation), and victims come from probation first.
  One-hit wonders therefore cannot displace proven-hot lines.

The structures (:class:`LRUEviction`, :class:`LFUEviction`,
:class:`SLRUEviction`) keep per-set intrusive doubly-linked recency
lists as ``(set, way)`` grids of previous/next way indices — O(1)
touch/insert/replace and O(ways) victim selection, no per-line Python
objects.  The grids are nested Python lists rather than numpy arrays
because the cache drives them one way at a time, where a list element
costs a fraction of a numpy scalar access.
Plain-list reference implementations live with the tests
(``tests/oracles/eviction.py``); ``tests/test_eviction_properties.py``
replays randomized traces through both and asserts identical victims
and identical serialized state.

All state serializes to plain integer arrays (recency ranks, segment
membership, frequencies) in canonical ``(set, way)`` layout, so a
snapshot→restore round trip is byte-identical and restored caches
evict exactly as the donor would have.
"""

from __future__ import annotations

import numpy as np

#: The ``ServingPolicy.eviction`` axis.  ``none`` is the paper's
#: no-replacement semantics (the default, bit-identical to the
#: pre-eviction code path).
EVICTION_POLICIES = ("none", "lru", "lfu", "slru")


class _IntrusiveList:
    """Per-set doubly-linked recency lists over the ``(set, way)`` grid.

    Head is the most recently used way of a set, tail the least.  Every
    operation is O(1); ranks (position from head) are only materialised
    for snapshots.  The links are plain Python lists: these operations
    run one way at a time, and a list element reads and writes several
    times faster than a numpy scalar.
    """

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        self._prev = [[-1] * ways for _ in range(num_sets)]
        self._next = [[-1] * ways for _ in range(num_sets)]
        self._head = [-1] * num_sets
        self._tail = [-1] * num_sets
        self._count = [0] * num_sets

    @property
    def count(self) -> np.ndarray:
        """Linked ways per set."""
        return np.array(self._count, dtype=np.int64)

    def push_front(self, s: int, w: int) -> None:
        head = self._head[s]
        self._prev[s][w] = -1
        self._next[s][w] = head
        if head >= 0:
            self._prev[s][head] = w
        else:
            self._tail[s] = w
        self._head[s] = w
        self._count[s] += 1

    def unlink(self, s: int, w: int) -> None:
        prev, next_ = self._prev[s], self._next[s]
        before, after = prev[w], next_[w]
        if before >= 0:
            next_[before] = after
        else:
            self._head[s] = after
        if after >= 0:
            prev[after] = before
        else:
            self._tail[s] = before
        prev[w] = -1
        next_[w] = -1
        self._count[s] -= 1

    def move_front(self, s: int, w: int) -> None:
        """Make the linked way ``w`` the head of its set's list."""
        head = self._head[s]
        if head == w:
            return
        prev, next_ = self._prev[s], self._next[s]
        # ``w`` is not the head, so it has a predecessor.
        before, after = prev[w], next_[w]
        next_[before] = after
        if after >= 0:
            prev[after] = before
        else:
            self._tail[s] = before
        prev[w] = -1
        next_[w] = head
        prev[head] = w
        self._head[s] = w

    def tail_way(self, s: int) -> int:
        return self._tail[s]

    def walk_from_tail(self, s: int):
        prev = self._prev[s]
        w = self._tail[s]
        while w >= 0:
            yield w
            w = prev[w]

    def ranks(self) -> np.ndarray:
        """Position from head (MRU = 0) per linked way; -1 if unlinked."""
        out = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        for s in range(self.num_sets):
            next_ = self._next[s]
            w, rank = self._head[s], 0
            while w >= 0:
                out[s, w] = rank
                rank += 1
                w = next_[w]
        return out

    def load_ranks(self, ranks: np.ndarray) -> None:
        """Rebuild the lists from a :meth:`ranks` array."""
        self.__init__(self.num_sets, self.ways)
        ranks = np.asarray(ranks, dtype=np.int64)
        for s in range(self.num_sets):
            linked = np.flatnonzero(ranks[s] >= 0)
            # Push in descending rank order so rank 0 ends up at head.
            for w in linked[np.argsort(-ranks[s][linked], kind="stable")]:
                self.push_front(s, int(w))


class LRUEviction:
    """O(1) intrusive least-recently-probed replacement."""

    name = "lru"

    def __init__(self, num_sets: int, ways: int):
        self._list = _IntrusiveList(num_sets, ways)

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._list.push_front(s, w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        self._list.move_front(s, w)

    def replace(self, s: int, w: int, count: int = 1) -> None:
        # The victim's way now holds a fresh line: treat as a new MRU.
        self._list.move_front(s, w)

    def victim(self, s: int) -> int:
        return self._list.tail_way(s)

    def state_arrays(self) -> dict:
        return {"ev_rank": self._list.ranks()}

    def load_state_arrays(self, arrays: dict) -> None:
        self._list.load_ranks(arrays["ev_rank"])

    def clear(self) -> None:
        self._list = _IntrusiveList(self._list.num_sets, self._list.ways)


class LFUEviction:
    """Lowest-frequency replacement with least-recent tiebreak.

    Frequency counts probed *rows* (a batch with five rows of one
    signature adds five), so it tracks demand, not batch count.  Ties
    break toward the least recently probed line — walking the recency
    list tail→head and keeping the first strictly-smaller frequency
    makes the choice deterministic for any trace.
    """

    name = "lfu"

    def __init__(self, num_sets: int, ways: int):
        self._list = _IntrusiveList(num_sets, ways)
        self._freq = [[0] * ways for _ in range(num_sets)]

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s][w] = count
        self._list.push_front(s, w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s][w] += count
        self._list.move_front(s, w)

    def replace(self, s: int, w: int, count: int = 1) -> None:
        self._freq[s][w] = count
        self._list.move_front(s, w)

    def victim(self, s: int) -> int:
        freq = self._freq[s]
        best_way, best = -1, None
        for w in self._list.walk_from_tail(s):
            if best is None or freq[w] < best:
                best_way, best = w, freq[w]
        return best_way

    def state_arrays(self) -> dict:
        return {"ev_rank": self._list.ranks(),
                "ev_freq": np.array(self._freq, dtype=np.int64)}

    def load_state_arrays(self, arrays: dict) -> None:
        self._list.load_ranks(arrays["ev_rank"])
        self._freq = np.asarray(arrays["ev_freq"], dtype=np.int64).tolist()

    def clear(self) -> None:
        self.__init__(self._list.num_sets, self._list.ways)


class SLRUEviction:
    """Segmented LRU: probation + protected segments per set.

    Protected capacity is ``ways // 2`` lines per set (0 for
    direct-mapped sets, which degenerates to plain LRU).  Promotion is
    monotone: a line's own probe never moves it from protected back to
    probation — demotion only happens to the protected LRU line when a
    *different* line's promotion overflows the segment.
    """

    name = "slru"

    def __init__(self, num_sets: int, ways: int):
        self.protected_capacity = ways // 2
        self._probation = _IntrusiveList(num_sets, ways)
        self._protected = _IntrusiveList(num_sets, ways)
        # 0 = probation, 1 = protected; meaningful for linked ways only.
        self._segment = np.zeros((num_sets, ways), dtype=np.int8)

    def insert(self, s: int, w: int, count: int = 1) -> None:
        self._segment[s, w] = 0
        self._probation.push_front(s, w)

    def touch(self, s: int, w: int, count: int = 1) -> None:
        if self._segment[s, w] == 1:
            self._protected.move_front(s, w)
            return
        if self.protected_capacity == 0:
            self._probation.move_front(s, w)
            return
        self._probation.unlink(s, w)
        self._protected.push_front(s, w)
        self._segment[s, w] = 1
        if self._protected._count[s] > self.protected_capacity:
            demoted = self._protected.tail_way(s)
            self._protected.unlink(s, demoted)
            self._probation.push_front(s, demoted)
            self._segment[s, demoted] = 0

    def replace(self, s: int, w: int, count: int = 1) -> None:
        if self._segment[s, w] == 1:
            self._protected.unlink(s, w)
        else:
            self._probation.unlink(s, w)
        self.insert(s, w, count)

    def victim(self, s: int) -> int:
        w = self._probation.tail_way(s)
        return w if w >= 0 else self._protected.tail_way(s)

    def state_arrays(self) -> dict:
        # Rank is within the way's own segment list; segment says which.
        rank = self._probation.ranks()
        protected_rank = self._protected.ranks()
        merged = np.where(protected_rank >= 0, protected_rank, rank)
        return {"ev_rank": merged, "ev_segment": self._segment.copy()}

    def load_state_arrays(self, arrays: dict) -> None:
        segment = np.asarray(arrays["ev_segment"], dtype=np.int8)
        rank = np.asarray(arrays["ev_rank"], dtype=np.int64)
        self._probation.load_ranks(np.where(segment == 0, rank, -1))
        self._protected.load_ranks(np.where(segment == 1, rank, -1))
        self._segment = segment.copy()

    def clear(self) -> None:
        self.__init__(self._probation.num_sets, self._probation.ways)


_POLICIES = {"lru": LRUEviction, "lfu": LFUEviction, "slru": SLRUEviction}


def build_eviction_state(policy: str, num_sets: int, ways: int):
    """The replacement-state object for one eviction policy.

    ``None`` for ``"none"`` (the paper's no-replacement semantics).
    """
    if policy == "none":
        return None
    if policy not in _POLICIES:
        raise ValueError(f"unknown eviction policy {policy!r}; "
                         f"choose from {EVICTION_POLICIES}")
    return _POLICIES[policy](num_sets, ways)
