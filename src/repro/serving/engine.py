"""Cross-request reuse engines for inference serving.

Training batches are single-use: the reuse engine flash-clears its
MCACHE for every layer call, so similarity is only exploited *within* a
batch.  Serving traffic is the opposite regime — many requests repeat
(hot keys, retries, shared prefixes) — so here the
signature-indexed result cache is *persistent*: its tags, data and
counters survive across micro-batches, and admission/eviction is
governed by an explicit :class:`ServingPolicy`.

The two regimes share no logic.  Training runs the stateless signature
phase of :class:`repro.core.session.ReuseSession`; serving runs the
persistent store :class:`repro.serving.cache.SignatureResultCache`,
which this module configures.  Two granularities build on it:

* **request** — the whole input is one vector; a hit serves the cached
  network output without touching the model.  With ``exact_check`` the
  stored payload is compared bit-for-bit, so a hit can only reuse the
  output of an *identical* request: reuse is exact and the served
  output is byte-identical to what the model would have produced for
  that request (the golden determinism suite pins this).
* **vector** — every layer routed through
  :class:`ServingReuseEngine.matmul` probes a per-layer persistent
  cache with its RPQ signatures, the serving analogue of the training
  engine's Hitmap phase.  Hits copy dot-product rows computed in
  *earlier* batches; telemetry mirrors the training
  :class:`~repro.core.stats.ReuseStats` per layer.  A convolution
  hashes its whole cross-channel patch here (the engine has no
  per-channel ``matmul_groups``), the natural serving choice where
  whole-input repeats dominate.

A note on exactness: copying a row that an identical vector produced in
an earlier batch is numerically exact reuse, but BLAS kernels choose
different reduction orders for different matrix shapes, so a reused row
and a freshly computed row in a *differently shaped* batch may differ
in the last bits (~1e-16 relative).  The serving sweep therefore
measures output deviation against an engine-less oracle per scenario;
bit-identity is guaranteed (and regression-tested) for the
request-granularity exact configuration with per-request compute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from dataclasses import replace as dc_replace

import numpy as np

from repro.core.eviction import EVICTION_POLICIES
from repro.core.rpq import RPQHasher
from repro.core.stats import ReuseStats
from repro.serving.cache import (ADMISSION_POLICIES, CacheCounters,
                                 SignatureResultCache)

__all__ = [
    "ServingPolicy",
    "ServingReuseEngine",
]


@dataclass(frozen=True)
class ServingPolicy:
    """Knobs of the serving caches.

    ``entries``/``ways`` give each cache's MCACHE geometry: capacity is
    enforced the paper's way — no replacement; a signature whose set is
    full is computed every time (MNU).  ``ttl_batches`` bounds entry
    age: a hit on an entry inserted more than that many micro-batches
    ago is *refreshed* — recomputed and rewritten in place with its age
    reset — so stale traffic cannot pin results forever.  ``0`` means
    "expire immediately": an entry is only ever served within the
    micro-batch index that wrote it, so cross-batch reuse is disabled
    while intra-batch dedup keeps working.  ``None`` means entries never
    expire.  ``admission`` selects how computed signatures earn a cache
    line (see :mod:`repro.serving.cache`).  ``eviction`` selects the
    replacement policy: ``none`` keeps the paper's no-replacement
    semantics, while ``lru``/``lfu``/``slru`` recycle a victim line
    instead of rejecting — see :mod:`repro.core.eviction`.

    The serving-only axes say which cache granularities are active,
    which layers the vector cache covers, and how misses are computed.
    ``layers`` restricts vector-granularity reuse to layers whose name
    contains one of the given substrings (``None`` = every routed
    layer).
    """

    # Signature / capacity knobs.
    signature_bits: int = 32
    entries: int = 4096
    ways: int = 16
    ttl_batches: int | None = None
    # Collision safety: verify the stored payload has the incoming
    # one's bytes before serving a hit; mismatches are demoted to
    # computes.
    exact_check: bool = True
    # Insertion gate: "always", "frequency" or "size".
    admission: str = "always"
    admission_min_frequency: int = 2
    admission_max_bytes: int | None = None
    # Replacement policy: "none" (paper semantics), "lru", "lfu", "slru".
    eviction: str = "none"
    rpq_seed: int = 1234
    # Which caches are active.
    request_cache: bool = True
    vector_cache: bool = False
    # Vector-granularity scope.
    layers: tuple[str, ...] | None = None
    # How cache misses are computed by the server: "batched" forwards
    # all missing requests of a micro-batch in one stacked call (fast);
    # "per_request" forwards them one by one, which makes every output
    # independent of micro-batch composition and therefore bitwise
    # reproducible against the per-request oracle.
    compute: str = "batched"
    # Hot-key replication: the server's router tracks per-signature
    # request frequency and replicates the ``replicate_top`` hottest
    # signatures' cached rows across every shard (0 = off); see
    # :class:`repro.serving.router.HotKeyTracker`.
    replicate_top: int = 0
    replicate_min_count: int = 3

    def __post_init__(self):
        if self.signature_bits <= 0:
            raise ValueError("signature_bits must be positive")
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError("entries and ways must be positive")
        if self.entries % self.ways != 0:
            raise ValueError("entries must be divisible by ways")
        if self.ttl_batches is not None and self.ttl_batches < 0:
            raise ValueError("ttl_batches must be >= 0 (0 = expire "
                             "immediately) or None (never expire)")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission {self.admission!r}; "
                             f"choose from {ADMISSION_POLICIES}")
        if self.admission_min_frequency <= 0:
            raise ValueError("admission_min_frequency must be positive")
        if self.admission_max_bytes is not None \
                and self.admission_max_bytes <= 0:
            raise ValueError("admission_max_bytes must be positive "
                             "(or None)")
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction {self.eviction!r}; "
                             f"choose from {EVICTION_POLICIES}")
        if self.compute not in ("batched", "per_request"):
            raise ValueError(f"unknown compute mode {self.compute!r}")
        if self.replicate_top < 0:
            raise ValueError("replicate_top must be >= 0")
        if self.replicate_min_count <= 0:
            raise ValueError("replicate_min_count must be positive")
        if self.replicate_top > 0 and not self.request_cache:
            raise ValueError("hot-key replication replicates request-"
                             "cache rows; enable request_cache")

    def replace(self, **changes) -> "ServingPolicy":
        return dc_replace(self, **changes)

    def fingerprint(self) -> dict:
        """The JSON-safe identity a snapshot must match to be restored."""
        return {"signature_bits": self.signature_bits,
                "entries": self.entries, "ways": self.ways,
                "ttl_batches": self.ttl_batches,
                "exact_check": self.exact_check,
                "admission": self.admission,
                "admission_min_frequency": self.admission_min_frequency,
                "admission_max_bytes": self.admission_max_bytes,
                "eviction": self.eviction,
                "rpq_seed": self.rpq_seed}


class ServingReuseEngine:
    """Per-layer cross-batch reuse engine for inference forwards.

    Drop-in for the training engine's ``matmul`` protocol (so any
    :class:`~repro.nn.module.Module` attaches it via ``set_engine``),
    but forward-only and *persistent*: each (layer, vector length)
    stream owns a :class:`SignatureResultCache` whose state survives
    across micro-batches.  Call :meth:`end_batch` once per micro-batch
    to advance the TTL clock.
    """

    def __init__(self, policy: ServingPolicy | None = None):
        self.policy = policy or ServingPolicy(vector_cache=True)
        self.hasher = RPQHasher(seed=self.policy.rpq_seed)
        self.stats = ReuseStats()
        self.batch_index = 0
        # Optional telemetry bus hookup (set by the owning server):
        # ``end_batch`` emits the batch's vector-counter deltas.
        self.bus = None
        self.source = ""
        self._last_counters = CacheCounters()
        self._caches: dict[tuple[str, int], SignatureResultCache] = {}
        # The weights operand each stream was populated against.  A
        # cached row is only valid while the layer multiplies by the
        # same matrix; layers that pass data-dependent weights (e.g. an
        # attention score matmul against the batch itself) present a
        # fresh array every call, which this identity check turns into
        # a permanent exact bypass instead of wrong reuse.  (In-place
        # mutation of a parameter while serving is not detectable at
        # this cost — freeze weights, or build a new engine after an
        # update.)
        self._stream_weights: dict[tuple[str, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _layer_enabled(self, layer: str) -> bool:
        patterns = self.policy.layers
        if patterns is None:
            return True
        return any(pattern in layer for pattern in patterns)

    def _weights_stable(self, layer: str, vector_length: int,
                        weights: np.ndarray) -> bool:
        """Whether this stream still multiplies by its original matrix.

        The first call pins the weights array (or its base, so cached
        zero-copy views of one parameter keep matching); any later call
        with a *different* array — a data-dependent operand — empties
        the stream's cache and disables reuse for the call.
        """
        key = (layer, vector_length)
        anchor = weights if weights.base is None else weights.base
        pinned = self._stream_weights.get(key)
        if pinned is None:
            self._stream_weights[key] = anchor
            return True
        if pinned is anchor:
            return True
        cache = self._caches.get(key)
        if cache is not None:
            cache.clear()
        return False

    def cache_for(self, layer: str, vector_length: int
                  ) -> SignatureResultCache:
        key = (layer, vector_length)
        cache = self._caches.get(key)
        if cache is None:
            cache = SignatureResultCache(self.policy, hasher=self.hasher)
            self._caches[key] = cache
        return cache

    def install_cache(self, layer: str, vector_length: int,
                      cache: SignatureResultCache) -> None:
        """Replace one stream's cache (restore's all-or-nothing swap)."""
        self._caches[(layer, vector_length)] = cache

    def cache_streams(self) -> list[tuple[str, int, SignatureResultCache]]:
        """Every (layer, vector length, cache) stream, snapshot-ordered."""
        return [(layer, length, cache)
                for (layer, length), cache in sorted(self._caches.items())]

    # ------------------------------------------------------------------
    def matmul(self, vectors: np.ndarray, weights: np.ndarray, *,
               layer: str, phase: str = "forward") -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if vectors.ndim != 2 or weights.ndim != 2:
            raise ValueError("matmul expects 2D vectors and weights")
        if vectors.shape[1] != weights.shape[0]:
            raise ValueError(
                f"shape mismatch: vectors {vectors.shape} x "
                f"weights {weights.shape}")
        num_vectors, vector_length = vectors.shape
        num_filters = weights.shape[1]
        if num_vectors == 0:
            return vectors @ weights

        if (phase != "forward" or not self._layer_enabled(layer)
                or not self._weights_stable(layer, vector_length, weights)):
            result = vectors @ weights
            record = self.stats.record_for(layer, phase)
            record.merge_call(vectors=num_vectors, hits=0, mau=0,
                              mnu=num_vectors, vector_length=vector_length,
                              num_filters=num_filters, signature_bits=0,
                              unique_signatures=num_vectors,
                              detection_on=False)
            return result

        cache = self.cache_for(layer, vector_length)
        result, outcome = cache.serve(
            vectors,
            lambda rows: vectors[rows] @ weights,
            self.batch_index)

        # Map the serving outcome onto the training-stats vocabulary:
        # every reused row (cross-batch or intra-batch duplicate) is a
        # HIT, computed-and-admitted uniques are MAU, computed uniques
        # without a line (set full / collision / refresh) are MNU.
        record = self.stats.record_for(layer, phase)
        record.merge_call(
            vectors=num_vectors,
            hits=outcome.hit_rows,
            mau=outcome.inserted_unique,
            mnu=(outcome.computed_unique - outcome.inserted_unique
                 + outcome.aliased_rows),
            vector_length=vector_length, num_filters=num_filters,
            signature_bits=self.policy.signature_bits,
            unique_signatures=outcome.unique,
            detection_on=True)
        return result

    # ------------------------------------------------------------------
    def end_batch(self) -> None:
        """Advance the TTL clock; call once per processed micro-batch."""
        self.batch_index += 1
        if self.bus is not None:
            current = self.counters()
            delta = asdict(current - self._last_counters)
            self._last_counters = current
            if any(delta.values()):
                self.bus.emit("serve.vector_batch", source=self.source,
                              batch=self.batch_index, counters=delta)

    def end_iteration(self, loss: float | None = None) -> None:
        """Interface parity with the training engines (no adaptation)."""
        self.end_batch()

    # ------------------------------------------------------------------
    def counters(self) -> CacheCounters:
        """Aggregate row counters across every per-layer cache."""
        return CacheCounters.aggregate(cache.counters
                                       for cache in self._caches.values())

    def layer_summary(self) -> list[dict]:
        """JSON-safe per-(layer, phase) reuse telemetry."""
        rows = []
        for record in self.stats.all_records():
            rows.append({"layer": record.layer, "phase": record.phase,
                         "vectors": int(record.total_vectors),
                         "hits": int(record.hits),
                         "hit_fraction": float(record.hit_fraction),
                         "detection_on":
                             bool(record.similarity_detection_on)})
        return rows

    def occupancy(self) -> dict[str, int]:
        return {f"{layer}:{length}": cache.occupancy()
                for (layer, length), cache in self._caches.items()}
