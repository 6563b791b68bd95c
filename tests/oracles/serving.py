"""The serving cache's probe-and-admit step as it was first vectorised.

:class:`ReferenceSignatureResultCache` keeps the straightforward
bodies of :meth:`~repro.serving.cache.SignatureResultCache.serve`,
``_probe_and_admit``, ``_admitted_absents`` and ``_recycle``: every
helper re-validates its signatures and recomputes set indices, every
policy pass runs whether or not it is on, and the row ledger is built
from per-row masks.  The store, snapshot and admission-gate memory are
the production cache's own, so ``tests/test_serve_parity.py`` can run
one session through both and require the same served bytes,
``ServeOutcome`` values, counters and ``state_dict`` arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.hitmap_sim import signature_sets
from repro.core.rpq import unique_signatures
from repro.serving.cache import (ServeOutcome, SignatureResultCache,
                                 _same_bytes)


class ReferenceSignatureResultCache(SignatureResultCache):
    """:class:`SignatureResultCache` with the one-pass-per-helper bodies."""

    def _admitted_absents(self, uniques, absent, counts,
                          payload_bytes: int,
                          batch_index: int) -> np.ndarray:
        """Which absent unique positions may claim a line this batch."""
        if self.policy.admission == "always":
            return absent
        if self.policy.admission == "size":
            return absent if (
                self.policy.admission_max_bytes is None
                or payload_bytes <= self.policy.admission_max_bytes) \
                else absent[:0]
        # frequency
        wants = []
        for position in absent:
            key = self._signature_key(uniques[position])
            seen = self._seen.get(key, (0, 0))[0] + int(counts[position])
            if seen >= self.policy.admission_min_frequency:
                self._seen.pop(key, None)
                wants.append(position)
            else:
                self._seen[key] = (seen, batch_index)
        self._prune_seen()
        return np.asarray(wants, dtype=np.int64)

    def _probe_and_admit(self, uniques, first_index, inverse,
                         payload_bytes: int, batch_index: int,
                         gated: bool = True
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe residents and insert admitted absents.

        Returns ``(states, entry_ids, displaced)`` per unique signature:
        HIT (``entry_ids`` names its line) for a resident; for an absent
        signature that the admission policy lets in (every one unless
        ``gated``), MAU on the line it claims, or MNU with id -1 when
        its set is full.  Admitted signatures claim lines in
        first-occurrence order whatever the policy, which equals a
        sequential replay of the batch.

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
        present, entry_ids = m.probe_batch(uniques)
        states = np.full(len(uniques), MNU_CODE, dtype=np.int8)
        states[present] = HIT_CODE
        counts = np.bincount(inverse, minlength=len(uniques))
        displaced = np.zeros(len(uniques), dtype=bool)

        if evictor is not None:
            residents = np.flatnonzero(present)
            # entry id -> the unique position currently owning that line.
            owner = dict(zip(entry_ids[residents].tolist(),
                             residents.tolist()))
            for position in residents[np.argsort(first_index[residents],
                                                 kind="stable")]:
                set_index, way = divmod(int(entry_ids[position]), m.ways)
                evictor.touch(set_index, way, count=int(counts[position]))

        absent = np.flatnonzero(~present)
        admitted = self._admitted_absents(
            uniques, absent, counts, payload_bytes, batch_index) \
            if gated else absent
        if not len(admitted):
            return states, entry_ids, displaced
        arrival = admitted[np.argsort(first_index[admitted], kind="stable")]
        claimed_ids = m.insert(uniques[arrival])
        entry_ids[arrival] = claimed_ids
        self._entry_batch[claimed_ids[claimed_ids >= 0]] = batch_index
        if evictor is None:
            states[arrival[claimed_ids >= 0]] = MAU_CODE
            return states, entry_ids, displaced

        states[arrival] = MAU_CODE
        arrival_sets = signature_sets(uniques[arrival], m.num_sets)
        for position, set_index, entry in zip(
                arrival.tolist(), arrival_sets.tolist(),
                claimed_ids.tolist()):
            if entry >= 0:
                evictor.insert(set_index, entry % m.ways,
                               count=int(counts[position]))
            else:
                entry = self._recycle(set_index, uniques[position],
                                      int(counts[position]))
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
        self._evictor.replace(set_index, way, count=count)
        self.counters.evicted += 1
        return entry

    def serve(self, vectors: np.ndarray, compute, batch_index: int
              ) -> tuple[np.ndarray, ServeOutcome]:
        """Return one result row per input row, reusing where possible.

        ``compute(first_indices)`` receives the row indices (into
        ``vectors``) of the unique inputs that need computing and must
        return one result row per index, in order.  Cached rows are
        served without calling it; duplicates within the batch share
        one computation.  Returns ``(rows, outcome)`` where ``outcome``
        details this call's reuse decisions.
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

        signatures = self.hasher.signatures(vectors,
                                            self.policy.signature_bits)
        uniques, first_index, inverse = unique_signatures(signatures)
        num_unique = len(uniques)
        states, entry_ids, displaced = self._probe_and_admit(
            uniques, first_index, inverse, vectors.shape[1] * 8,
            batch_index)

        # Intra-batch aliasing: with ``exact_check`` a row may only
        # share its signature group's result if it has the *bytes* of
        # the group's first occurrence — a colliding (similar-but-
        # different) row is computed on its own instead.  Bytes, not
        # ``==``: NaN never equals itself, yet identical NaN payloads
        # have identical results.  Without the check, signature trust
        # applies within the batch exactly as it does across batches:
        # that is MERCURY's approximate-reuse semantics.
        if self.policy.exact_check:
            aliased = ~_same_bytes(vectors, vectors[first_index[inverse]])
            counters.collisions += int(aliased.sum())
        else:
            aliased = np.zeros(num_rows, dtype=bool)

        resident = states == HIT_CODE              # existed before batch
        inserted = states == MAU_CODE              # claimed a line now
        rejected = states == MNU_CODE              # set full, no entry

        # Which resident entries may serve their stored result?
        reusable = resident.copy()
        refresh = np.zeros(num_unique, dtype=bool)
        if resident.any():
            res_idx = np.flatnonzero(resident)
            res_entries = entry_ids[res_idx]
            valid = self._store_valid[res_entries].copy()
            if self.policy.ttl_batches is not None:
                age = batch_index - self._entry_batch[res_entries]
                expired = age > self.policy.ttl_batches
                counters.expired += int(expired.sum())
                valid &= ~expired
            stale = res_idx[~valid]
            reusable[stale] = False
            refresh[stale] = True
            if self.policy.exact_check and valid.any():
                live = res_idx[valid]
                match = _same_bytes(self._store_payloads[entry_ids[live]],
                                    vectors[first_index[live]])
                collided = live[~match]
                counters.collisions += len(collided)
                reusable[collided] = False

        # A recycled line keeps its entry id, so the victim's row stays
        # in the store until the new owner's row replaces it below; if
        # ``compute`` raises first, it must not be served for the new
        # owner.  (A resident displaced by a recycle was judged above
        # and reads its row below, before the new owner's row lands.)
        self._store_valid[entry_ids[inserted]] = False

        needs_compute = ~reusable
        aliased_rows = np.flatnonzero(aliased)
        group_rows = first_index[needs_compute]
        compute_rows = np.concatenate([group_rows, aliased_rows]) \
            if len(aliased_rows) else group_rows
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
        if reusable.any():
            reuse_idx = np.flatnonzero(reusable)
            unique_rows[reuse_idx] = self._store_rows[entry_ids[reuse_idx]]
        if computed is not None:
            unique_rows[needs_compute] = computed[:len(group_rows)]

        # Admit fresh computations: newly claimed lines and refreshed
        # (expired / data-invalidated) residents.  Collisions keep the
        # original owner's payload (first-writer-wins); rejected
        # signatures have no line to write, and neither do uniques
        # whose line was recycled later in this batch.
        admit = np.flatnonzero((inserted | refresh) & ~displaced)
        if len(admit):
            admit_ids = entry_ids[admit]
            self._store_write(
                admit_ids, unique_rows[admit],
                vectors[first_index[admit]] if self.policy.exact_check
                else None)
            self._entry_batch[admit_ids] = batch_index

        results = unique_rows[inverse]
        if len(aliased_rows):
            results[aliased_rows] = computed[len(group_rows):]

        # Row-level accounting (aliased rows are computes, not hits).
        is_first = np.zeros(num_rows, dtype=bool)
        is_first[first_index] = True
        row_cross = reusable[inverse] & ~aliased
        row_intra = needs_compute[inverse] & ~is_first & ~aliased
        outcome = ServeOutcome(
            rows=num_rows,
            unique=num_unique,
            cross_hit_rows=int(row_cross.sum()),
            intra_hit_rows=int(row_intra.sum()),
            aliased_rows=int(aliased.sum()),
            reused_unique=int(reusable.sum()),
            computed_unique=int(needs_compute.sum()),
            inserted_unique=int(inserted.sum()),
            rejected_unique=int(rejected.sum()))
        counters.cross_hits += outcome.cross_hit_rows
        counters.intra_hits += outcome.intra_hit_rows
        counters.computed += outcome.computed_unique + outcome.aliased_rows
        counters.inserted += outcome.inserted_unique
        counters.rejected += outcome.rejected_unique

        return results, outcome
