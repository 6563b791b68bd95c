"""The batch MCACHE: MERCURY's signature-indexed result cache.

MCACHE differs from a conventional cache in two ways (§III-B3): the tag
(a signature) is produced *before* the data, so tag and data validity
are tracked separately, and there is **no replacement** — when a set is
full, new signatures are simply not inserted (their Hitmap entry
becomes MNU).

:class:`VectorizedMCache` is the *persistent* tag store behind the
serving :class:`~repro.serving.cache.SignatureResultCache`: the tag /
Valid-Tag state of the ``(set, way)`` grid as dense numpy arrays, read
by one non-mutating :meth:`~VectorizedMCache.probe_batch` (and
:meth:`~VectorizedMCache.resident` for a snapshot) and written by one
:meth:`~VectorizedMCache.insert` (plus
:meth:`~VectorizedMCache.replace_line` for a replacement policy and
:meth:`~VectorizedMCache.clear`).  It models the signature phase only
and counts nothing; the computed results, and the hit ledger, live in
the serving cache, keyed by entry id.  Lines never move, so a line's
entry id is its slot ``set * ways + way``.
Training's freshly-cleared-per-layer Hitmap needs no persistent state
and runs the stateless :class:`~repro.core.session.ReuseSession`
instead.

The line-level model of the hardware lives with the tests
(``tests/oracles/mcache.py``); ``tests/test_mcache_differential.py``
replays randomized traces through it and through the serving cache's
probe-and-admit path and asserts equal Hitmap states, lines and
per-row HIT / MAU / MNU counts.

The serving cache probes a batch's distinct signatures, then inserts
the absent ones it admits in first-occurrence order, which is a
sequential replay of the batch:

* a signature already resident is a HIT;
* an inserted signature whose set still has a free way claims the
  lowest free way (MAU);
* an inserted signature whose set is full gets no line — MNU, no
  replacement (§III-B3, Figure 9) — unless the cache's eviction
  policy recycles a victim line for it.

Because Valid-Tag bits are only ever cleared by a full :meth:`clear`,
the occupied ways of a set are always a prefix ``0..occupancy-1``:
that prefix is the Valid-Tag state, and it lets the batch insert
compute way indices arithmetically.

Signatures wider than 62 bits — reachable through adaptive signature
growth — arrive in the multi-word ``(n_vectors, n_words)`` ``uint64``
representation (:mod:`repro.core.rpq`), and the store then keeps a
``(set, way, word)`` array of full signature values; matching is an
all-words equality, so nothing drops to Python loops.  One cache life
hashes at one signature length, so the first insert after construction
or :meth:`clear` fixes the tag format (int64, or words of one width)
and a batch in any other format is refused.  Equality by full value
and set indexing by ``value % num_sets`` are exactly the line-level
model's (set, tag) split.
"""

from __future__ import annotations

import numpy as np

from repro.core.hitmap_sim import rank_within_groups, signature_sets
from repro.core.rpq import coerce_packed


class VectorizedMCache:
    """Set-associative, no-replacement cache with batch probe/insert.

    ``entries`` total lines, ``ways`` associativity.
    """

    def __init__(self, entries: int = 1024, ways: int = 16):
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways != 0:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        # Tag per line; -1 on a line without a valid tag, so an int64
        # probe needs no separate Valid-Tag read.
        self._tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        # Multi-word format: full signature values, one row of words
        # per line, most-significant word first.
        self._tag_words: np.ndarray | None = None
        self._occupancy = np.zeros(self.num_sets, dtype=np.int64)
        # A signature's shape past the batch axis — () for int64,
        # (n_words,) for multi-word — fixed by the first insert.
        self._format: tuple | None = None

    def _store_tags(self, values: np.ndarray, sets: np.ndarray,
                    ways: np.ndarray) -> None:
        """Write checked signatures' tags into their lines."""
        if values.ndim == 2:
            self._tag_words[sets, ways] = values
        else:
            self._tags[sets, ways] = values // self.num_sets

    # ------------------------------------------------------------------
    # Signature phase — batch probe and insert
    # ------------------------------------------------------------------
    def _checked(self, signatures, sets):
        """``(signatures, sets)`` of a probe or insert argument.

        Callers that hold signatures already checked by
        :func:`coerce_packed` pass their set indices
        (:func:`~repro.core.hitmap_sim.signature_sets`) along, and
        neither is recomputed.  Signatures in a format other than the
        resident ones' are refused.
        """
        if sets is None:
            signatures = coerce_packed(signatures)
            sets = signature_sets(signatures, self.num_sets)
        if self._format not in (None, signatures.shape[1:]):
            raise ValueError(
                f"signatures of shape {signatures.shape[1:]} per row do "
                f"not match the cache's {self._format}; one cache holds "
                f"one signature length until it is cleared")
        return signatures, sets

    def probe_batch(self, signatures, sets: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Non-mutating batch lookup; returns (present, entry_ids).

        ``entry_ids`` is a fresh array, -1 where a signature is absent.
        ``sets`` may carry the signatures' set indices when the caller
        has already checked them (see :meth:`_checked`).
        """
        sigs, sets = self._checked(signatures, sets)
        present = np.zeros(len(sigs), dtype=bool)
        entry_ids = np.empty(len(sigs), dtype=np.int64)
        entry_ids.fill(-1)
        if self._format is None:
            return present, entry_ids
        if sigs.ndim == 1:
            # Lines without a valid tag hold -1, which no quotient equals.
            match = self._tags[sets] == (sigs // self.num_sets)[:, None]
        else:
            match = (self._tag_words[sets] == sigs[:, None, :]).all(axis=2)
            match &= np.arange(self.ways) < self._occupancy[sets][:, None]
        # At most one way of a set matches.
        rows, ways = match.nonzero()
        present[rows] = True
        entry_ids[rows] = sets[rows] * self.ways + ways
        return present, entry_ids

    def insert(self, signatures, sets: np.ndarray | None = None
               ) -> np.ndarray:
        """Claim a line for each signature; returns their entry ids.

        ``signatures`` must be distinct, absent from the cache and in
        arrival order — what a caller has just probed as absent and
        admitted.  Within each set they claim the free ways in order:
        the ``k``-th lands in way ``occupancy + k`` (the line-level
        model's "first invalid way" scan) while that is below ``ways``.
        A signature whose set is already full gets -1 and no line: the
        paper's MNU, or a victim for the caller's replacement policy to
        recycle.  ``sets`` is as for :meth:`probe_batch`.
        """
        sigs, sets = self._checked(signatures, sets)
        entry_ids = np.empty(len(sigs), dtype=np.int64)
        entry_ids.fill(-1)
        occupancy = self._occupancy[sets]
        if not np.count_nonzero(occupancy < self.ways):
            # A saturated cache under a replacement policy, the serving
            # steady state (or an empty batch): nothing can claim a line.
            return entry_ids
        if self._format is None:
            self._format = sigs.shape[1:]
            if sigs.ndim == 2:
                self._tag_words = np.zeros(
                    (self.num_sets, self.ways, sigs.shape[1]),
                    dtype=np.uint64)
        by_set = np.argsort(sets, kind="stable")
        ways = np.empty(len(sigs), dtype=np.int64)
        ways[by_set] = occupancy[by_set] + rank_within_groups(sets[by_set])
        claimed = np.flatnonzero(ways < self.ways)
        claimed_sets, claimed_ways = sets[claimed], ways[claimed]
        self._store_tags(sigs[claimed], claimed_sets, claimed_ways)
        np.add.at(self._occupancy, claimed_sets, 1)
        entry_ids[claimed] = claimed_sets * self.ways + claimed_ways
        return entry_ids

    def replace_line(self, set_index: int, way: int, signature) -> int:
        """Evict the resident of ``(set, way)`` and hand its line to
        ``signature``; returns the line's entry id.

        The replacement-policy hook: the victim's tag is overwritten and
        the new owner inherits the line, and so its entry id.  Whoever
        keeps results by entry id must drop the victim's result.
        Occupancy is unchanged, so the valid-way prefix invariant that
        the batch insert relies on still holds.
        """
        if not 0 <= set_index < self.num_sets or not 0 <= way < self.ways:
            raise IndexError(f"({set_index}, {way}) outside the "
                             f"({self.num_sets}, {self.ways}) grid")
        if way >= self._occupancy[set_index]:
            raise ValueError(f"({set_index}, {way}) holds no line to "
                             f"replace")
        value = np.asarray(signature)
        if value.ndim == 0 and value.dtype == np.int64 \
                and self._format == ():
            # One int64 signature into the int64 store: plain integers.
            value = int(value)
            if value < 0:
                raise ValueError("signatures must be non-negative")
            tag, value_set = divmod(value, self.num_sets)
            if value_set != set_index:
                raise ValueError("signature does not map to the victim's "
                                 "set")
            self._tags[set_index, way] = tag
        else:
            sigs, sets = self._checked(value[None], None)
            if int(sets[0]) != set_index:
                raise ValueError("signature does not map to the victim's "
                                 "set")
            self._store_tags(sigs, sets, np.array([way]))
        return set_index * self.ways + way

    def clear(self) -> None:
        """Full reset (new channel / new set of input vectors)."""
        self._tags[:] = -1
        self._tag_words = None
        self._occupancy[:] = 0
        self._format = None

    # ------------------------------------------------------------------
    def resident(self) -> tuple[np.ndarray, np.ndarray]:
        """``(entry_ids, signatures)`` of the valid lines, in ``(set,
        way)`` order; the signatures are fresh arrays in the cache's
        format (empty ``int64`` while it has none)."""
        slots = np.flatnonzero(np.arange(self.ways)
                               < self._occupancy[:, None])
        if self._tag_words is not None:
            return slots, self._tag_words.reshape(
                self.entries, -1)[slots]
        return slots, (self._tags.reshape(-1)[slots] * self.num_sets
                       + slots // self.ways)

    def occupancy(self) -> int:
        """Number of lines with a valid tag."""
        return int(self._occupancy.sum())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"VectorizedMCache(entries={self.entries}, ways={self.ways}, "
                f"occupancy={self.occupancy()})")
