"""Deterministic signature-hash routing for the sharded serving stack.

The sharded :class:`~repro.serving.server.InferenceServer` replicates
its compute/cache unit — the same scale-out move accelerator designs
make in hardware — and shards the persistent reuse state by *request
signature*: every request is hashed with the same RPQ machinery the
caches use, and the signature is placed on a consistent-hash ring.  Two
properties follow:

* **affinity** — all repeats of a payload (and any signature-colliding
  near-twins) land on the same shard, so the per-shard
  ``SignatureResultCache`` sees the full repeat stream of every key it
  owns and the aggregate hit rate matches the single-shard cache;
* **stability** — ring points are SHA-256 digests of ``(shard,
  replica)`` labels, so the mapping is a pure function of the shard
  count: the same trace shards identically across runs, machines and
  Python versions (no ``hash()`` randomisation), and growing the ring
  by one shard remaps only ~1/N of the key space.
"""

from __future__ import annotations

import bisect
import hashlib

import numpy as np


def signature_key(signature) -> bytes:
    """Stable byte identity of one packed signature.

    Accepts the int64 scalar representation or a multi-word ``uint64``
    row (:mod:`repro.core.rpq`); both map injectively to bytes.
    """
    value = np.asarray(signature)
    if value.ndim == 0:
        return b"i" + int(value).to_bytes(8, "big", signed=True)
    return b"w" + value.astype(np.uint64, copy=False).tobytes()


class ConsistentHashRing:
    """A fixed ring of shard points with binary-search routing.

    ``replicas`` virtual points per shard smooth the key-space split;
    at the default 64 the heaviest shard of a uniform key set carries
    within a few percent of its fair share.  The points are a sorted
    Python list searched with :func:`bisect.bisect_left`: routing takes
    one key at a time, where that is several times cheaper than a numpy
    search.
    """

    def __init__(self, shards: int, replicas: int = 64):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.shards = shards
        self.replicas = replicas
        points = []
        for shard in range(shards):
            for replica in range(replicas):
                label = f"shard:{shard}:replica:{replica}".encode()
                digest = hashlib.sha256(label).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def route(self, key: bytes) -> int:
        """The shard owning ``key`` (first ring point at or after it)."""
        if self.shards == 1:
            return 0
        point = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        index = bisect.bisect_left(self._points, point)
        return self._owners[index % len(self._owners)]

    def route_many(self, keys) -> np.ndarray:
        """:meth:`route` over a batch of keys, as an int64 array."""
        keys = list(keys)
        return np.fromiter((self.route(key) for key in keys),
                           dtype=np.int64, count=len(keys))


class HotKeyTracker:
    """Per-signature frequency tracking with a sticky replicated top-k.

    Ring affinity sends *all* repeats of a payload to one shard, which
    is exactly wrong for Zipfian head keys: the shard owning the
    hottest signature carries a disproportionate share of the traffic
    (the ``shard_balance`` column of the serving sweep).  The tracker
    counts per-signature-key requests and promotes the first ``top_k``
    keys to reach ``min_count`` into the *replicated* set; replicated
    keys route round-robin across every shard (starting at the ring
    owner) and the serving shard pushes their freshly served rows into
    its peers' caches after each batch, so every shard can answer them
    locally.

    Membership is **sticky** — first-to-threshold, never demoted —
    which keeps routing deterministic (no flap between replicas and
    affinity mid-trace) and is a good proxy under skew: with a
    stationary Zipfian head, the hottest keys cross the threshold
    first.  Replica *entries* still age out individually under each
    shard's TTL; the next push refreshes them.  Tracker state is
    process-local and intentionally not part of snapshots: a
    warm-started server re-learns its hot keys from live traffic.

    The pre-threshold count map is bounded (stalest-by-insertion keys
    are pruned beyond ``capacity``), so one-shot traffic cannot grow it
    without limit.
    """

    def __init__(self, top_k: int, min_count: int = 3,
                 capacity: int = 4096):
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        if min_count <= 0:
            raise ValueError("min_count must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.top_k = top_k
        self.min_count = min_count
        self.capacity = capacity
        self._counts: dict[bytes, int] = {}
        # key -> next round-robin offset (0 = the ring owner).
        self._replicated: dict[bytes, int] = {}
        # Optional telemetry bus (attached by the owning server when
        # observability is on); promotions are rare, so the emission
        # cost is negligible and off the common observe() path.
        self.bus = None

    def observe(self, key: bytes) -> bool:
        """Count one request for ``key``; True if it is replicated."""
        if key in self._replicated:
            return True
        if self.top_k == 0:
            return False
        count = self._counts.get(key, 0) + 1
        if count >= self.min_count and len(self._replicated) < self.top_k:
            self._counts.pop(key, None)
            self._replicated[key] = 0
            if self.bus is not None:
                self.bus.emit("router.promote", source="router",
                              count=count,
                              replicated=len(self._replicated))
            return True
        self._counts[key] = count
        if len(self._counts) > self.capacity:
            # Deterministic pruning: lowest count first, insertion
            # order breaking ties (dicts preserve it).
            excess = len(self._counts) - self.capacity
            coldest = sorted(self._counts,
                             key=lambda k: self._counts[k])[:excess]
            for stale in coldest:
                del self._counts[stale]
        return False

    def is_replicated(self, key: bytes) -> bool:
        return key in self._replicated

    def spread(self, key: bytes, home: int, shards: int) -> int:
        """Next round-robin shard for a replicated ``key``.

        The cycle starts at ``home`` (the ring owner), so the first
        request primes the owner's cache before replicas take turns.
        """
        offset = self._replicated[key]
        self._replicated[key] = (offset + 1) % shards
        return (home + offset) % shards
