"""The persistent signature→result store behind the serving caches.

Training flushes its MCACHE per layer and keeps nothing across batches
(:class:`repro.core.session.ReuseSession`).  Serving keeps it: a
:class:`SignatureResultCache` probes and inserts into the persistent
tag store :class:`~repro.core.mcache_vec.VectorizedMCache`
(``probe_batch``/``insert``), so capacity behaves like the hardware
structure — set-associative, no replacement unless an eviction policy
is configured — and its results live in a dense store of ``entries``
rows indexed by MCACHE entry id, a line's ``(set, way)`` slot.  State
survives across :meth:`~SignatureResultCache.serve` calls, entries age
by micro-batch (``ttl_batches``), hits may be payload-verified
(``exact_check``) and insertion is governed by an admission policy.

:meth:`~SignatureResultCache.serve` and a replication push
(:meth:`~SignatureResultCache.admit_external`) share one
probe-and-admit step: probe the batch's distinct signatures once, gate
the absent ones, insert the admitted ones into the MCACHE in
first-occurrence order, and hand each signature whose set is full to
the eviction policy, if there is one.  A restore makes the same insert.

:meth:`~SignatureResultCache.state_dict` /
:meth:`~SignatureResultCache.load_state_dict` snapshot the cache to
disk and warm-start it after a restart; the restore rebuilds the
MCACHE by re-inserting the resident signatures in ``(set, way)``
order, which puts each back on its own line because a set's lines
fill in way order.

Admission policies (the ``admission`` axis of
:class:`~repro.serving.engine.ServingPolicy`):

* ``always`` — every computed signature that finds a free way claims a
  line, in first-occurrence order, so a full set keeps the first
  arrivals;
* ``frequency`` — a signature is only admitted once it has been seen
  at least ``admission_min_frequency`` times (rows, cumulative across
  batches); one-shot traffic never pollutes the cache.  The gate's
  memory is itself bounded (stalest keys are evicted beyond
  ``4 x entries``), so it cannot grow without limit either;
* ``size`` — a signature is only admitted while its stored payload
  (``vector length x 8`` bytes) stays within ``admission_max_bytes``;
  oversized streams are computed every time.

Non-admitted signatures are counted as *rejected*, exactly like a
signature whose set was full (the paper's MNU): computed, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.eviction import build_eviction_state
from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.hitmap_sim import signature_sets
from repro.core.mcache_vec import VectorizedMCache
from repro.core.rpq import (FAST_PACK_BITS, RPQHasher, coerce_packed,
                            unique_signatures, words_for_bits)

if TYPE_CHECKING:
    from repro.serving.engine import ServingPolicy

ADMISSION_POLICIES = ("always", "frequency", "size")

#: Version of the :meth:`SignatureResultCache.state_dict` layout.  Bump
#: when the array/meta contract changes; ``load_state_dict`` rejects
#: mismatches.  Version 2 added the ``layout`` key and the eviction
#: metadata arrays.
#: Version 3 dropped the ``mcache_stats`` meta (``counters`` is the ledger).
#: Version 4 keeps one line-ordered layout (no ``layout`` or ``mode``
#: meta) and records the stream's ``payload_width``.
STATE_VERSION = 4


def _same_bytes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-row byte equality of two C-contiguous float64 matrices."""
    return (left.view(np.uint64) == right.view(np.uint64)).all(axis=1)


@dataclass
class CacheCounters:
    """Row-level outcome counters of one :class:`SignatureResultCache`."""

    requests: int = 0          # rows probed
    cross_hits: int = 0        # rows served from an earlier batch's entry
    intra_hits: int = 0        # duplicate rows within one batch
    computed: int = 0          # rows actually multiplied/forwarded
    inserted: int = 0          # computed rows admitted into the cache
    rejected: int = 0          # computed rows denied a line (set full
    #                            MNU, or vetoed by the admission policy)
    expired: int = 0           # hits demoted by TTL (entry refreshed)
    collisions: int = 0        # exact-check demotions (signature aliasing)
    evicted: int = 0           # lines recycled by the replacement policy
    replicated: int = 0        # rows pushed in by hot-key replication

    @property
    def hits(self) -> int:
        return self.cross_hits + self.intra_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return dict(vars(self), hit_rate=self.hit_rate)

    def __sub__(self, other: "CacheCounters") -> "CacheCounters":
        """The counts recorded since ``other`` (an earlier reading)."""
        return CacheCounters(**{name: value - getattr(other, name)
                                for name, value in vars(self).items()})

    def merge(self, other: "CacheCounters") -> "CacheCounters":
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self

    @classmethod
    def aggregate(cls, counters) -> "CacheCounters":
        total = cls()
        for item in counters:
            total.merge(item)
        return total


@dataclass
class ServeOutcome:
    """Reuse decisions of one :meth:`SignatureResultCache.serve` call."""

    rows: int = 0
    unique: int = 0
    cross_hit_rows: int = 0
    intra_hit_rows: int = 0
    aliased_rows: int = 0
    reused_unique: int = 0
    computed_unique: int = 0
    inserted_unique: int = 0
    rejected_unique: int = 0

    @property
    def hit_rows(self) -> int:
        return self.cross_hit_rows + self.intra_hit_rows


class SignatureResultCache:
    """Persistent signature→result store shared across micro-batches.

    One instance serves one stream of equal-length vectors (a request
    payload shape, or one layer's input vectors) under one
    :class:`~repro.serving.engine.ServingPolicy`; :attr:`counters` is
    its one hit ledger.
    """

    def __init__(self, policy: "ServingPolicy",
                 hasher: RPQHasher | None = None):
        self.policy = policy
        self.hasher = hasher or RPQHasher(seed=policy.rpq_seed)
        self.mcache = VectorizedMCache(entries=policy.entries,
                                       ways=policy.ways)
        self.num_sets = self.mcache.num_sets
        self._evictor = build_eviction_state(policy.eviction,
                                             self.num_sets, policy.ways)
        self.counters = CacheCounters()
        # entry id -> micro-batch index of the line's claim or last
        # write.
        self._entry_batch = np.zeros(policy.entries, dtype=np.int64)
        # signature key -> (cumulative row count, last-seen batch): the
        # frequency admission gate's memory for not-yet-admitted
        # signatures.  Bounded — one-shot traffic must not grow it
        # forever in a long-running server — by evicting the stalest
        # keys once it exceeds ``_seen_capacity`` (deterministic, so
        # sweep rows stay reproducible).
        self._seen: dict = {}
        self._seen_capacity = max(4 * policy.entries, 1024)
        # Dense result store, indexed by MCACHE entry id.
        # ``_store_rows`` holds the cached result rows,
        # ``_store_payloads`` the exact-check input payloads; both are
        # allocated on first write because the row width is only known
        # then.  One cache serves one stream of equal-length vectors:
        # the first serve or push records ``_payload_width``.
        self._store_valid = np.zeros(policy.entries, dtype=bool)
        self._store_rows: np.ndarray | None = None
        self._store_payloads: np.ndarray | None = None
        self._payload_width: int | None = None

    # ------------------------------------------------------------------
    # Result store
    # ------------------------------------------------------------------
    def _check_widths(self, payload_width: int,
                      row_width: int | None = None) -> None:
        """Refuse a payload or result width other than the stream's,
        and record the payload width of the first call.

        :meth:`serve` and :meth:`admit_external` call it first, so a
        refused call moves no counter and leaves no line behind.
        """
        rows = self._store_rows
        if self._payload_width not in (None, payload_width) or (
                row_width is not None and rows is not None
                and rows.shape[1] != row_width):
            raise ValueError("vector or result width changed mid-stream; "
                             "one cache serves one stream of "
                             "equal-length vectors")
        self._payload_width = payload_width

    def _store_write(self, entry_ids: np.ndarray, rows: np.ndarray,
                     payloads: np.ndarray | None) -> None:
        """Admit computed rows (and exact-check payloads) by entry id."""
        self._check_widths(self._payload_width, rows.shape[1])
        if self._store_rows is None:
            self._store_rows = np.empty((self.policy.entries, rows.shape[1]),
                                        dtype=np.float64)
            if payloads is not None:
                self._store_payloads = np.empty(
                    (self.policy.entries, payloads.shape[1]),
                    dtype=np.float64)
        self._store_rows[entry_ids] = rows
        if payloads is not None:
            self._store_payloads[entry_ids] = payloads
        self._store_valid[entry_ids] = True

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @staticmethod
    def _signature_key(value):
        """A hashable identity for one signature (int64 or words row)."""
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return int(value)

    def _prune_seen(self) -> None:
        """Evict the stalest frequency-gate entries beyond capacity.

        Selection order matches a stable sort by last-seen batch (ties
        fall back to insertion order) — deterministic for deterministic
        traffic — but runs as an O(n) ``argpartition`` for the stalest
        k instead of sorting the whole gate on every prune.
        """
        excess = len(self._seen) - self._seen_capacity
        if excess <= 0:
            return
        keys = list(self._seen)
        batches = np.fromiter((self._seen[key][1] for key in keys),
                              dtype=np.int64, count=len(keys))
        threshold = int(
            batches[np.argpartition(batches, excess - 1)[:excess]].max())
        below = np.flatnonzero(batches < threshold)
        for index in below:
            del self._seen[keys[index]]
        # Ties at the threshold batch evict in insertion order (the
        # ascending key index), exactly the stable sort's tie-break.
        for index in np.flatnonzero(batches == threshold)[
                :excess - len(below)]:
            del self._seen[keys[index]]

    def _admitted(self, uniques, absent: np.ndarray, counts,
                  payload_bytes: int, batch_index: int) -> np.ndarray:
        """Narrow the ``absent`` mask to the uniques that may claim a
        line this batch (every one under ``always``)."""
        policy = self.policy
        if policy.admission == "always":
            return absent
        if policy.admission == "size":
            return absent if (
                policy.admission_max_bytes is None
                or payload_bytes <= policy.admission_max_bytes) \
                else np.zeros_like(absent)
        # frequency: the gate's memory fills in signature order.
        wants = np.zeros_like(absent)
        for position in absent.nonzero()[0].tolist():
            key = self._signature_key(uniques[position])
            seen = self._seen.get(key, (0, 0))[0] + int(counts[position])
            if seen >= policy.admission_min_frequency:
                self._seen.pop(key, None)
                wants[position] = True
            else:
                self._seen[key] = (seen, batch_index)
        self._prune_seen()
        return wants

    def _probe_and_admit(self, uniques, first_index, inverse,
                         payload_bytes: int, batch_index: int,
                         gated: bool = True, counts=None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe residents and insert admitted absents.

        Returns ``(states, entry_ids, displaced)`` per unique signature:
        HIT (``entry_ids`` names its line) for a resident; for an absent
        signature that the admission policy lets in (every one unless
        ``gated``), MAU on the line it claims, or MNU with id -1 when
        its set is full.  Admitted signatures claim lines in
        first-occurrence order whatever the policy, which equals a
        sequential replay of the batch.  ``counts`` (rows per unique,
        ``np.bincount(inverse)``) is taken from the caller when it has
        them.

        The signatures are checked and their sets computed once, here,
        and handed to the MCACHE's probe and insert.

        With an eviction policy, residents first *touch* their line's
        recency/frequency state in first-occurrence order, and an
        admitted signature whose set is full recycles the policy's
        victim line (:meth:`VectorizedMCache.replace_line`) instead of
        being rejected: MAU on the victim's line.  Within a set every
        free-way claim precedes every recycle, so one batch insert
        followed by the recycles in arrival order is the per-signature
        replay.  Frequencies count rows, not batches, so a batch with
        five rows of one signature weighs five.

        A recycled line keeps its entry id, so one id can name several
        uniques of this batch: a resident whose line was recycled, or an
        earlier admit whose fresh line was recycled again.  Only the
        last claimant owns the line; ``displaced`` marks the others so
        :meth:`serve` never stores their rows under the new owner's id.
        """
        m = self.mcache
        evictor = self._evictor
        uniques = coerce_packed(uniques)
        num_unique = len(uniques)
        sets = signature_sets(uniques, m.num_sets)
        present, entry_ids = m.probe_batch(uniques, sets)
        states = np.empty(num_unique, dtype=np.int8)
        states.fill(MNU_CODE)
        states[present] = HIT_CODE
        if counts is None:
            counts = np.bincount(inverse, minlength=num_unique)
        displaced = np.zeros(num_unique, dtype=bool)
        # The uniques in first-occurrence (arrival) order.
        arrival = first_index.argsort()

        if evictor is not None:
            residents = arrival[present[arrival]]
            if len(residents):
                resident_ids = entry_ids[residents]
                for set_index, way, count in zip(
                        sets[residents].tolist(),
                        (resident_ids % m.ways).tolist(),
                        counts[residents].tolist()):
                    evictor.touch(set_index, way, count)

        absent = ~present
        if gated:
            absent = self._admitted(uniques, absent, counts, payload_bytes,
                                    batch_index)
        admitted = arrival[absent[arrival]]
        if not len(admitted):
            return states, entry_ids, displaced
        claimed_ids = m.insert(uniques[admitted], sets[admitted])
        entry_ids[admitted] = claimed_ids
        # A freshly claimed line is stamped with its claiming batch; a
        # recycled one keeps its stamp until its new row is written.
        self._entry_batch[claimed_ids[claimed_ids >= 0]] = batch_index
        if evictor is None:
            states[admitted[claimed_ids >= 0]] = MAU_CODE
            return states, entry_ids, displaced

        states[admitted] = MAU_CODE
        # entry id -> the unique position currently owning that line.
        owner = dict(zip(resident_ids.tolist(), residents.tolist())) \
            if len(residents) else {}
        for position, set_index, entry, count in zip(
                admitted.tolist(), sets[admitted].tolist(),
                claimed_ids.tolist(), counts[admitted].tolist()):
            if entry >= 0:
                evictor.insert(set_index, entry % m.ways, count)
            else:
                entry = self._recycle(set_index, uniques[position], count)
                entry_ids[position] = entry
                if entry in owner:
                    displaced[owner[entry]] = True
            owner[entry] = position
        return states, entry_ids, displaced

    def _recycle(self, set_index: int, signature, count: int = 1) -> int:
        """Hand the policy's victim line in ``set_index`` to ``signature``;
        returns the line's entry id, which the new owner inherits."""
        way = self._evictor.victim(set_index)
        entry = self.mcache.replace_line(set_index, way, signature)
        self._evictor.replace(set_index, way, count)
        self.counters.evicted += 1
        return entry

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, vectors: np.ndarray, compute, batch_index: int
              ) -> tuple[np.ndarray, ServeOutcome]:
        """Return one result row per input row, reusing where possible.

        ``compute(first_indices)`` receives the row indices (into
        ``vectors``) of the unique inputs that need computing and must
        return one result row per index, in order.  Cached rows are
        served without calling it; duplicates within the batch share
        one computation.  Returns ``(rows, outcome)`` where ``outcome``
        details this call's reuse decisions.

        One pass per batch: each policy pass (TTL, exact check) runs
        only when its policy is on and something can trigger it, and
        the row ledger comes from the rows-per-unique counts.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("serve expects 2D (rows, features) vectors")
        self._check_widths(vectors.shape[1])
        num_rows = len(vectors)
        counters = self.counters
        counters.requests += num_rows
        if num_rows == 0:
            return np.empty((0, 0)), ServeOutcome()

        policy = self.policy
        exact_check = policy.exact_check
        signatures = self.hasher.signatures(vectors, policy.signature_bits)
        uniques, first_index, inverse = unique_signatures(signatures)
        num_unique = len(uniques)
        counts = np.bincount(inverse)
        states, entry_ids, displaced = self._probe_and_admit(
            uniques, first_index, inverse, vectors.shape[1] * 8,
            batch_index, counts=counts)

        # Intra-batch aliasing: with ``exact_check`` a row may only
        # share its signature group's result if it has the *bytes* of
        # the group's first occurrence — a colliding (similar-but-
        # different) row is computed on its own instead.  Bytes, not
        # ``==``: NaN never equals itself, yet identical NaN payloads
        # have identical results.  Without the check, signature trust
        # applies within the batch exactly as it does across batches:
        # that is MERCURY's approximate-reuse semantics.  A batch of
        # distinct signatures has no group to alias into.
        num_aliased = 0
        if exact_check and num_unique < num_rows:
            # Only rows past their group's first can alias.
            representative = first_index[inverse]
            later = (representative != np.arange(num_rows)).nonzero()[0]
            aliased_rows = later[~_same_bytes(
                vectors[later], vectors[representative[later]])]
            num_aliased = len(aliased_rows)
            counters.collisions += num_aliased

        # Residents (existed before the batch) that may serve their
        # stored result: valid data, not expired, and with
        # ``exact_check`` the first occurrence's exact bytes.
        reusable = states == HIT_CODE
        reused = reusable.nonzero()[0]
        num_resident = len(reused)
        inserted = (states == MAU_CODE).nonzero()[0]
        refresh = None
        if num_resident:
            reused_ids = entry_ids[reused]
            valid = self._store_valid[reused_ids]
            if policy.ttl_batches is not None:
                expired = batch_index - self._entry_batch[reused_ids] \
                    > policy.ttl_batches
                counters.expired += int(np.count_nonzero(expired))
                valid &= ~expired
            if np.count_nonzero(valid) < num_resident:
                # Expired or data-invalidated: recompute and refresh.
                refresh = reused[~valid]
                reusable[refresh] = False
                reused, reused_ids = reused[valid], reused_ids[valid]
            if exact_check and len(reused):
                match = _same_bytes(self._store_payloads[reused_ids],
                                    vectors[first_index[reused]])
                if np.count_nonzero(match) < len(reused):
                    collided = reused[~match]
                    counters.collisions += len(collided)
                    reusable[collided] = False
                    reused, reused_ids = reused[match], reused_ids[match]

        # A recycled line keeps its entry id, so the victim's row stays
        # in the store until the new owner's row replaces it below; if
        # ``compute`` raises first, it must not be served for the new
        # owner.  (A resident displaced by a recycle was judged above
        # and reads its row below, before the new owner's row lands.)
        if len(inserted):
            self._store_valid[entry_ids[inserted]] = False

        needs_compute = (~reusable).nonzero()[0]
        num_computed = len(needs_compute)
        compute_rows = first_index[needs_compute]
        if num_aliased:
            compute_rows = np.concatenate([compute_rows, aliased_rows])
        computed = None
        if len(compute_rows):
            computed = np.asarray(compute(compute_rows), dtype=np.float64)
            if computed.ndim != 2 or len(computed) != len(compute_rows):
                raise ValueError("compute must return one row per index")

        # Assemble per-unique results: reused rows from the store,
        # computed rows from the caller.
        width = computed.shape[1] if computed is not None else \
            self._stored_width()
        unique_rows = np.empty((num_unique, width), dtype=np.float64)
        if len(reused):
            unique_rows[reused] = self._store_rows[reused_ids]
        if num_computed:
            unique_rows[needs_compute] = computed[:num_computed]

        # Admit fresh computations: newly claimed lines and refreshed
        # (expired / data-invalidated) residents.  Collisions keep the
        # original owner's payload (first-writer-wins); rejected
        # signatures have no line to write, and neither do uniques
        # whose line was recycled later in this batch.  What remains
        # names distinct lines.
        admit = inserted if refresh is None \
            else np.concatenate([inserted, refresh])
        if np.count_nonzero(displaced):
            admit = admit[~displaced[admit]]
        if len(admit):
            admit_ids = entry_ids[admit]
            self._store_write(
                admit_ids, unique_rows[admit],
                vectors[first_index[admit]] if exact_check else None)
            self._entry_batch[admit_ids] = batch_index

        results = unique_rows[inverse]
        if num_aliased:
            results[aliased_rows] = computed[num_computed:]

        # Row-level accounting: the rows of reused uniques are cross
        # hits, the other rows past each unique's first are intra hits,
        # and aliased rows are computes, not hits.
        cross_hit_rows = sum(counts[reused].tolist())
        if num_aliased:
            cross_hit_rows -= int(np.count_nonzero(
                reusable[inverse[aliased_rows]]))
        outcome = ServeOutcome(
            rows=num_rows,
            unique=num_unique,
            cross_hit_rows=cross_hit_rows,
            intra_hit_rows=(num_rows - num_computed - num_aliased
                            - cross_hit_rows),
            aliased_rows=num_aliased,
            reused_unique=len(reused),
            computed_unique=num_computed,
            inserted_unique=len(inserted),
            rejected_unique=num_unique - num_resident - len(inserted))
        counters.cross_hits += outcome.cross_hit_rows
        counters.intra_hits += outcome.intra_hit_rows
        counters.computed += num_computed + num_aliased
        counters.inserted += outcome.inserted_unique
        counters.rejected += outcome.rejected_unique

        return results, outcome

    def _stored_width(self) -> int:
        return 0 if self._store_rows is None else self._store_rows.shape[1]

    def admit_external(self, vector, row, batch_index: int) -> bool:
        """Insert-or-refresh one externally computed ``(vector, row)``.

        The hot-key replication push: another shard already computed
        ``row`` for ``vector`` and replicates the pair here so a future
        probe hits locally.  A resident signature is refreshed in place
        (data overwritten, age stamp reset to ``batch_index`` — so the
        TTL invalidation rule applies to replicas exactly as to locally
        computed entries); an absent one claims a line through the
        cache's own capacity rules, evicting a victim if a replacement
        policy is configured.  Pushes bypass the admission gate (the
        pusher already knows the key is hot) but never bypass capacity:
        returns ``False`` when a no-replacement cache has no free way.
        Not counted as a request — only the ``replicated`` counter
        moves.
        """
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        row = np.asarray(row, dtype=np.float64).reshape(1, -1)
        self._check_widths(vector.shape[1], row.shape[1])
        signatures = self.hasher.signatures(vector,
                                            self.policy.signature_bits)
        only = np.zeros(1, dtype=np.int64)
        states, entry_ids, _ = self._probe_and_admit(
            signatures, only, only, vector.shape[1] * 8, batch_index,
            gated=False)
        if states[0] == MNU_CODE:
            return False
        entry = int(entry_ids[0])
        self._store_write(np.array([entry]), row,
                          vector if self.policy.exact_check else None)
        self._entry_batch[entry] = batch_index
        self.counters.replicated += 1
        return True

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> tuple[dict, dict]:
        """Serialize the cache as ``(meta, arrays)``.

        ``meta`` is JSON-safe (counters, payload width, policy
        fingerprint); ``arrays`` holds plain numpy arrays fit for
        ``np.savez`` without pickling: the resident signatures in
        ``(set, way)`` order with their lines' batch stamps and
        valid-data mask, the stored payload/result matrices of the
        lines with data (dense — one stream has one vector length, so
        widths are uniform), the admission gate's memory and, under an
        eviction policy, its recency/frequency/segment arrays, so the
        restored cache evicts exactly as the donor would have.
        """
        entry_ids, signatures = self.mcache.resident()
        has_data = self._store_valid[entry_ids]
        data_ids = entry_ids[has_data]
        rows = self._store_rows[data_ids] if len(data_ids) \
            else np.empty((0, 0))
        if self.policy.exact_check and len(data_ids):
            payloads = self._store_payloads[data_ids]
        else:
            payloads = np.empty((0, 0))

        seen_keys = sorted(self._seen)
        arrays = {
            "signatures": signatures,
            "entry_batch": self._entry_batch[entry_ids],
            "has_data": has_data,
            "payloads": payloads,
            "rows": rows,
            "seen_counts": np.array([self._seen[key][0]
                                     for key in seen_keys],
                                    dtype=np.int64),
            "seen_batches": np.array([self._seen[key][1]
                                      for key in seen_keys],
                                     dtype=np.int64),
        }
        if self.policy.admission == "frequency" and seen_keys:
            # The gate may hold multi-word keys before any line does.
            if isinstance(seen_keys[0], bytes):
                arrays["seen_keys"] = np.stack(
                    [np.frombuffer(key, dtype=np.uint64)
                     for key in seen_keys])
            else:
                arrays["seen_keys"] = np.array(seen_keys, dtype=np.int64)
        else:
            arrays["seen_keys"] = np.empty(0, dtype=np.int64)
        if self._evictor is not None:
            arrays.update(self._evictor.state_arrays())
        meta = {
            "state_version": STATE_VERSION,
            "entries": int(len(signatures)),
            "payload_width": self._payload_width,
            "counters": {name: int(value)
                         for name, value in vars(self.counters).items()},
            "policy": self.policy.fingerprint(),
        }
        return meta, arrays

    def load_state_dict(self, meta: dict, arrays: dict) -> None:
        """Rebuild the cache from a :meth:`state_dict` payload.

        The restored cache is state-identical to the donor: same lines,
        same stored data, same ages, same counters — so it reproduces
        the donor's hit behaviour on any subsequent traffic.
        """
        if meta.get("state_version") != STATE_VERSION:
            raise ValueError(
                f"snapshot state_version {meta.get('state_version')!r} "
                f"does not match supported {STATE_VERSION}")
        if meta["policy"] != self.policy.fingerprint():
            raise ValueError("snapshot was taken under a different policy; "
                             "refusing to restore")
        self.clear()
        self._payload_width = meta["payload_width"]
        signatures = np.asarray(arrays["signatures"])
        if len(signatures):
            bits = self.policy.signature_bits
            if signatures.shape[1:] != (() if bits <= FAST_PACK_BITS
                                        else (words_for_bits(bits),)):
                raise ValueError(
                    f"snapshot signatures of shape {signatures.shape[1:]} "
                    f"per row are not {bits}-bit signatures")
            # Signatures in (set, way) order re-insert onto increasing
            # lines, each probing back to its own: a duplicate resolves
            # to its first copy's line, and an overfull set or an
            # out-of-order signature breaks the order.
            entry_ids = self.mcache.insert(signatures)
            if (entry_ids < 0).any() or (np.diff(entry_ids) <= 0).any() \
                    or not np.array_equal(
                        self.mcache.probe_batch(signatures)[1], entry_ids):
                raise ValueError("snapshot signatures did not rebuild "
                                 "cleanly (corrupt or wrong geometry)")
            self._entry_batch[entry_ids] = arrays["entry_batch"]
            has_data = np.asarray(arrays["has_data"], dtype=bool)
            data_ids = entry_ids[has_data]
            if len(data_ids):
                rows = np.asarray(arrays["rows"], dtype=np.float64)
                self._store_write(
                    data_ids, rows,
                    np.asarray(arrays["payloads"], dtype=np.float64)
                    if self.policy.exact_check else None)
        seen_keys = np.asarray(arrays.get("seen_keys",
                                          np.empty(0, dtype=np.int64)))
        seen_counts = np.asarray(arrays.get("seen_counts",
                                            np.empty(0, dtype=np.int64)))
        seen_batches = np.asarray(arrays.get("seen_batches",
                                             np.empty(0, dtype=np.int64)))
        self._seen = {}
        for position in range(len(seen_counts)):
            key = seen_keys[position]
            key = key.tobytes() if key.ndim else int(key)
            self._seen[key] = (int(seen_counts[position]),
                               int(seen_batches[position]))
        for name, value in meta["counters"].items():
            setattr(self.counters, name, int(value))
        if self._evictor is not None:
            if "ev_rank" not in arrays:
                raise ValueError("snapshot is missing the eviction "
                                 "metadata arrays")
            ranks = np.asarray(arrays["ev_rank"], dtype=np.int64)
            if not np.array_equal(np.flatnonzero(ranks >= 0),
                                  self.mcache.resident()[0]):
                raise ValueError("snapshot eviction metadata does not "
                                 "cover the resident lines")
            self._evictor.load_state_arrays(arrays)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return self.mcache.occupancy()

    def clear(self) -> None:
        self.mcache.clear()
        self._entry_batch[:] = 0
        self._seen = {}
        self._store_valid[:] = False
        self._store_rows = None
        self._store_payloads = None
        if self._evictor is not None:
            self._evictor.clear()
