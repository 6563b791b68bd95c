"""The batch MCACHE: MERCURY's signature-indexed result cache.

MCACHE differs from a conventional cache in two ways (§III-B3): the tag
(a signature) is produced *before* the data, so tag and data validity
are tracked separately, and there is **no replacement** — when a set is
full, new signatures are simply not inserted (their Hitmap entry
becomes MNU).

:class:`VectorizedMCache` is the *persistent* tag store behind the
serving :class:`~repro.serving.cache.SignatureResultCache`: the tag /
Valid-Tag state of the ``(set, way)`` grid as dense numpy arrays, read
by one non-mutating :meth:`~VectorizedMCache.probe_batch` and written
by one :meth:`~VectorizedMCache.insert` (plus
:meth:`~VectorizedMCache.replace_line` for a replacement policy and
:meth:`~VectorizedMCache.clear`).  It models the signature phase only
and counts nothing; the computed results, and the hit ledger, live in
the serving cache, keyed by the entry ids this store hands out.
Training's freshly-cleared-per-layer Hitmap needs no persistent state
and runs the stateless :class:`~repro.core.session.ReuseSession`
instead.

The line-level model of the hardware lives with the tests
(``tests/oracles/mcache.py``); ``tests/test_mcache_differential.py``
replays randomized traces through it and through the serving cache's
probe-and-admit path and asserts equal Hitmap states, entry ids and
per-row HIT / MAU / MNU counts.

The serving cache probes a batch's distinct signatures, then inserts
the absent ones it admits in first-occurrence order, which is a
sequential replay of the batch:

* a signature already resident is a HIT;
* an inserted signature whose set still has a free way claims the
  lowest free way and the next entry id (MAU);
* an inserted signature whose set is full gets no line — MNU, no
  replacement (§III-B3, Figure 9) — unless the cache's eviction
  policy recycles a victim line for it.

Because Valid-Tag bits are only ever cleared by a full :meth:`clear`,
the occupied ways of a set are always a prefix ``0..occupancy-1``,
which is what lets the batch insert compute way indices arithmetically.

Signatures wider than 62 bits — reachable through adaptive signature
growth — arrive in the multi-word ``(n_vectors, n_words)`` ``uint64``
representation (:mod:`repro.core.rpq`).  The first such insert
promotes the tag store to a ``(set, way, word)`` array holding full
signature values; matching becomes an all-words equality, so nothing
drops to Python loops.  Equality by full value and set indexing by
``value % num_sets`` are exactly the line-level model's (set, tag)
split, so mixed int64/multi-word traces stay bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.core.hitmap_sim import rank_within_groups, signature_sets
from repro.core.rpq import coerce_packed, pad_words, signature_words


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
        # Multi-word mode: full signature values, one row of words per
        # line, most-significant word first.  ``None`` while every
        # resident signature fits the int64 tag path.
        self._tag_words: np.ndarray | None = None
        self._valid_tag = np.zeros((self.num_sets, ways), dtype=bool)
        self._line_entry = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self._occupancy = np.zeros(self.num_sets, dtype=np.int64)
        # entry_id -> (set, way); entry ids are dense 0..N-1, one per
        # line ever claimed, so plain arrays indexed by id replace the
        # line-level model's dict.  A recycled line keeps its id.
        self._entry_set = np.empty(0, dtype=np.int64)
        self._entry_way = np.empty(0, dtype=np.int64)
        self._next_entry_id = 0

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------
    def _normalize(self, arr: np.ndarray) -> np.ndarray:
        """Bring checked signatures (:func:`coerce_packed`) to the tag
        store's representation: 1-D int64 or 2-D multi-word uint64.

        Promotes the persistent tag store to multi-word mode the first
        time a batch needs it; afterwards int64 batches are widened on
        the fly so mixed traces keep comparing by full value.
        """
        if arr.ndim == 2:
            self._enter_words_mode(arr.shape[1])
            return pad_words(arr, self._tag_words.shape[2])
        if self._tag_words is not None:
            # int64 batch while wide signatures are resident: widen.
            return pad_words(arr.astype(np.uint64)[:, None],
                             self._tag_words.shape[2])
        return arr

    def _widen_tag_words(self, words: np.ndarray,
                         num_words: int) -> np.ndarray:
        """Left-pad (MSB side) a (set, way, word) store to ``num_words``."""
        if words.shape[2] >= num_words:
            return words
        widened = np.zeros((self.num_sets, self.ways, num_words),
                           dtype=np.uint64)
        widened[:, :, num_words - words.shape[2]:] = words
        return widened

    def _int64_tag_words(self, num_words: int) -> np.ndarray:
        """The int64-mode lines as full-value words (invalid lines 0)."""
        full = (self._tags * self.num_sets
                + np.arange(self.num_sets, dtype=np.int64)[:, None])
        words = np.zeros((self.num_sets, self.ways, num_words),
                         dtype=np.uint64)
        words[:, :, -1] = np.where(self._valid_tag, full, 0).astype(
            np.uint64)
        return words

    def _enter_words_mode(self, num_words: int) -> None:
        """Promote (or widen) the tag store to hold full-value words."""
        if self._tag_words is None:
            self._tag_words = self._int64_tag_words(num_words)
        else:
            self._tag_words = self._widen_tag_words(self._tag_words,
                                                    num_words)

    def _tag_words_view(self, num_words: int) -> np.ndarray:
        """Tags as full-value words without mutating state.

        The read-path twin of :meth:`_enter_words_mode`.
        """
        if self._tag_words is not None:
            return self._widen_tag_words(self._tag_words, num_words)
        return self._int64_tag_words(num_words)

    def _store_tags(self, values: np.ndarray, sets: np.ndarray,
                    ways: np.ndarray) -> None:
        """Write normalized signatures' tags into their lines."""
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
        neither is recomputed.
        """
        if sets is None:
            signatures = coerce_packed(signatures)
            sets = signature_sets(signatures, self.num_sets)
        return signatures, sets

    def probe_batch(self, signatures, sets: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Non-mutating batch lookup; returns (present, entry_ids).

        ``entry_ids`` is a fresh array, -1 where a signature is absent.
        Unlike :meth:`insert`, a multi-word probe never promotes the
        tag store: representation mismatches are bridged by a temporary
        word view.  ``sets`` may carry the signatures' set indices when
        the caller has already checked them (see :meth:`_checked`).
        """
        sigs, sets = self._checked(signatures, sets)
        if sigs.ndim == 1 and self._tag_words is None:
            # Lines without a valid tag hold -1, which no quotient equals.
            match = self._tags[sets] == (sigs // self.num_sets)[:, None]
        else:
            store_words = 1 if self._tag_words is None \
                else self._tag_words.shape[2]
            sigs = signature_words(sigs)
            width = max(sigs.shape[1], store_words)
            sigs = pad_words(sigs, width)
            match = self._valid_tag[sets] & (
                self._tag_words_view(width)[sets]
                == sigs[:, None, :]).all(axis=2)
        # At most one way of a set matches.
        rows, ways = match.nonzero()
        present = np.zeros(len(sigs), dtype=bool)
        present[rows] = True
        entry_ids = np.empty(len(sigs), dtype=np.int64)
        entry_ids.fill(-1)
        entry_ids[rows] = self._line_entry[sets[rows], ways]
        return present, entry_ids

    def insert(self, signatures, sets: np.ndarray | None = None
               ) -> np.ndarray:
        """Claim a line for each signature; returns their entry ids.

        ``signatures`` must be distinct, absent from the cache and in
        arrival order — what a caller has just probed as absent and
        admitted.  Within each set they claim the free ways in order:
        the ``k``-th lands in way ``occupancy + k`` (the line-level
        model's "first invalid way" scan) while that is below ``ways``,
        and the claimed lines take the next entry ids in arrival order.
        A signature whose set is already full gets -1 and no line: the
        paper's MNU, or a victim for the caller's replacement policy to
        recycle.  ``sets`` is as for :meth:`probe_batch`.
        """
        sigs, sets = self._checked(signatures, sets)
        sigs = self._normalize(sigs)
        entry_ids = np.empty(len(sigs), dtype=np.int64)
        entry_ids.fill(-1)
        occupancy = self._occupancy[sets]
        if not np.count_nonzero(occupancy < self.ways):
            # A saturated cache under a replacement policy, the serving
            # steady state: nothing can claim a line.
            return entry_ids
        by_set = np.argsort(sets, kind="stable")
        ways = np.empty(len(sigs), dtype=np.int64)
        ways[by_set] = occupancy[by_set] + rank_within_groups(sets[by_set])
        claimed = np.flatnonzero(ways < self.ways)
        claimed_sets, claimed_ways = sets[claimed], ways[claimed]
        new_ids = self._next_entry_id + np.arange(len(claimed),
                                                  dtype=np.int64)
        self._store_tags(sigs[claimed], claimed_sets, claimed_ways)
        self._valid_tag[claimed_sets, claimed_ways] = True
        self._line_entry[claimed_sets, claimed_ways] = new_ids
        np.add.at(self._occupancy, claimed_sets, 1)
        self._entry_set = np.concatenate([self._entry_set, claimed_sets])
        self._entry_way = np.concatenate([self._entry_way, claimed_ways])
        self._next_entry_id += len(claimed)
        entry_ids[claimed] = new_ids
        return entry_ids

    def replace_line(self, set_index: int, way: int, signature) -> int:
        """Evict the resident of ``(set, way)`` and hand its line to
        ``signature``; returns the line's entry id.

        The replacement-policy hook: the victim's tag is overwritten and
        the new owner inherits the victim's entry id, so ids stay bounded
        by ``entries`` however many evictions a long-running cache
        sees.  Whoever keeps results by entry id must drop the victim's
        result.  Occupancy is unchanged, so the valid-way prefix
        invariant that the batch insert relies on still holds.
        """
        if not 0 <= set_index < self.num_sets or not 0 <= way < self.ways:
            raise IndexError(f"({set_index}, {way}) outside the "
                             f"({self.num_sets}, {self.ways}) grid")
        if not self._valid_tag[set_index, way]:
            raise ValueError(f"({set_index}, {way}) holds no line to "
                             f"replace")
        value = np.asarray(signature)
        if value.ndim == 0 and value.dtype == np.int64 \
                and self._tag_words is None:
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
            sigs = self._normalize(coerce_packed(value[None]))
            if int(signature_sets(sigs, self.num_sets)[0]) != set_index:
                raise ValueError("signature does not map to the victim's "
                                 "set")
            self._store_tags(sigs, np.array([set_index]), np.array([way]))
        return int(self._line_entry[set_index, way])

    def clear(self) -> None:
        """Full reset (new channel / new set of input vectors)."""
        self._tags[:] = -1
        self._valid_tag[:] = False
        self._tag_words = None
        self._line_entry[:] = -1
        self._occupancy[:] = 0
        self._entry_set = np.empty(0, dtype=np.int64)
        self._entry_way = np.empty(0, dtype=np.int64)
        self._next_entry_id = 0

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of lines with a valid tag."""
        return int(self._valid_tag.sum())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"VectorizedMCache(entries={self.entries}, ways={self.ways}, "
                f"occupancy={self.occupancy()})")
