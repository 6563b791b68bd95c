"""The batch MCACHE: MERCURY's signature-indexed result cache.

MCACHE differs from a conventional cache in two ways (§III-B3): the tag
(a signature) is produced *before* the data, so tag and data validity
are tracked separately, and there is **no replacement** — when a set is
full, new signatures are simply not inserted (their Hitmap entry
becomes MNU).

:class:`VectorizedMCache` keeps the tag / Valid-Tag state as dense
numpy arrays over the ``(set, way)`` grid and services a whole batch of
probes with sort-based group-by operations, the same technique as
:func:`repro.core.hitmap_sim.simulate_hitmap` but against *persistent*
cache state.  It models the signature phase only; the computed results
live in :class:`~repro.core.session.ReuseSession`'s dense store, keyed
by the entry ids this cache hands out.

The line-level model of the hardware lives with the tests
(``tests/oracles/mcache.py``); ``tests/test_mcache_differential.py``
replays randomized traces through both and asserts equal Hitmap states,
entry ids and stats counters.

Batch semantics match a sequential replay of the trace:

* a signature already resident (from this batch or an earlier one) is a
  HIT on every occurrence;
* the first occurrence of a new signature whose set still has a free
  way is MAU, claims the lowest free way and the next entry id;
* later occurrences of an inserted signature are HITs on that entry;
* every occurrence of a new signature whose set was already full at its
  first occurrence is MNU — no replacement (§III-B3, Figure 9).

Because Valid-Tag bits are only ever cleared by a full :meth:`clear`,
the occupied ways of a set are always a prefix ``0..occupancy-1``,
which is what lets the batch insert compute way indices arithmetically.

Signatures wider than 62 bits — reachable through adaptive signature
growth — arrive in the multi-word ``(n_vectors, n_words)`` ``uint64``
representation (:mod:`repro.core.rpq`).  The first such batch promotes
the tag store to a ``(set, way, word)`` array holding full signature
values; matching becomes an all-words equality and grouping a
lexicographic row sort, so nothing drops to Python loops.  Equality by
full value and set indexing by ``value % num_sets`` are exactly the
line-level model's (set, tag) split, so mixed int64/multi-word traces
stay bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hitmap import CODE_TO_STATE, HIT_CODE, HitState
from repro.core.hitmap_sim import (HitmapSimulation, rank_within_groups,
                                   signature_sets, simulate_hitmap)
from repro.core.rpq import (coerce_packed, pad_words, signature_words,
                            unique_signatures)


@dataclass
class MCacheStats:
    """Access counters for characterisation (Figure 15a)."""

    hits: int = 0
    mau: int = 0
    mnu: int = 0
    # Lines recycled by a replacement policy (persistent serving
    # sessions only; the paper's no-replacement model never evicts).
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.mau + self.mnu

    def as_fractions(self) -> dict:
        total = max(self.accesses, 1)
        return {"HIT": self.hits / total, "MAU": self.mau / total,
                "MNU": self.mnu / total}


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
        self.stats = MCacheStats()
        self._tags = np.zeros((self.num_sets, ways), dtype=np.int64)
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
        # False while every array is in its cleared state, making the
        # per-layer ``clear`` on the simulate hot path free.
        self._dirty = False

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------
    def _normalize(self, signatures) -> np.ndarray:
        """Return a 1-D int64 array or a 2-D multi-word uint64 array.

        Promotes the persistent tag store to multi-word mode the first
        time a batch needs it; afterwards int64 batches are widened on
        the fly so mixed traces keep comparing by full value.
        """
        arr = coerce_packed(signatures)
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
        self._dirty = True
        if self._tag_words is None:
            self._tag_words = self._int64_tag_words(num_words)
        else:
            self._tag_words = self._widen_tag_words(self._tag_words,
                                                    num_words)

    # ------------------------------------------------------------------
    # Signature phase — batch probe and insert
    # ------------------------------------------------------------------
    def lookup_or_insert_batch(self, signatures) -> tuple[np.ndarray, np.ndarray]:
        """Probe MCACHE with a batch of signatures in arrival order.

        Equivalent to calling the line-level model's ``lookup_or_insert``
        once per element; returns ``(states, entry_ids)`` where
        ``states`` is an ``int8`` array of state codes
        (:data:`~repro.core.hitmap.HIT_CODE` / ``MAU_CODE`` /
        ``MNU_CODE``) and ``entry_ids`` holds the owning cache entry
        (-1 for MNU).
        """
        sigs = self._normalize(signatures)
        if len(sigs) == 0:
            return (np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64))
        unique_values, first_index, inverse = unique_signatures(sigs)
        return self._probe_prepared(unique_values, first_index, inverse,
                                    len(sigs))

    def _match_resident(self, unique_values: np.ndarray,
                        unique_sets: np.ndarray) -> np.ndarray:
        """(U, ways) bool: which candidate lines hold each unique value."""
        candidate_valid = self._valid_tag[unique_sets]
        if unique_values.ndim == 2:
            candidates = self._tag_words[unique_sets]        # (U, ways, W)
            equal = (candidates == unique_values[:, None, :]).all(axis=2)
        else:
            unique_tags = unique_values // self.num_sets
            equal = np.asarray(self._tags[unique_sets]
                               == unique_tags[:, None], dtype=bool)
        return candidate_valid & equal

    def _store_tags(self, unique_values: np.ndarray, inserted: np.ndarray,
                    inserted_sets: np.ndarray,
                    inserted_ways: np.ndarray) -> None:
        """Write the winning signatures' tags into their claimed lines."""
        if unique_values.ndim == 2:
            self._tag_words[inserted_sets, inserted_ways] = \
                unique_values[inserted]
        else:
            self._tags[inserted_sets, inserted_ways] = \
                unique_values[inserted] // self.num_sets

    def _probe_prepared(self, unique_values, first_index, inverse,
                        num_probes) -> tuple[np.ndarray, np.ndarray]:
        """Batch probe/insert given a precomputed group-by of the batch."""
        num_unique = len(unique_values)
        unique_sets = signature_sets(unique_values, self.num_sets)

        # Which unique signatures are already resident?  An empty cache
        # (the per-layer fresh-clear path) skips the (U, ways) candidate
        # gather, which matters for fully-associative geometries.
        unique_entry = np.full(num_unique, -1, dtype=np.int64)
        if self._next_entry_id == 0:
            present = np.zeros(num_unique, dtype=bool)
        else:
            match = self._match_resident(unique_values, unique_sets)
            present = match.any(axis=1)
            present_way = np.argmax(match, axis=1)
            unique_entry[present] = self._line_entry[
                unique_sets[present], present_way[present]]

        # Absent uniques compete for free ways in first-occurrence order.
        absent = np.flatnonzero(~present)
        arrival = absent[np.argsort(first_index[absent], kind="stable")]
        arrival_sets = unique_sets[arrival]
        by_set = np.argsort(arrival_sets, kind="stable")
        sorted_sets = arrival_sets[by_set]
        rank_within_set = rank_within_groups(sorted_sets)

        free_ways = self.ways - self._occupancy[sorted_sets]
        inserted_sorted = rank_within_set < free_ways
        inserted_arrival = np.empty(len(arrival), dtype=bool)
        inserted_arrival[by_set] = inserted_sorted
        # Valid ways form a prefix, so the k-th insertion into a set
        # lands in way occupancy + k (the line-level model's "first
        # invalid way" scan).
        way_sorted = self._occupancy[sorted_sets] + rank_within_set
        way_arrival = np.empty(len(arrival), dtype=np.int64)
        way_arrival[by_set] = way_sorted

        inserted = arrival[inserted_arrival]   # unique indices, arrival order
        inserted_sets = unique_sets[inserted]
        inserted_ways = way_arrival[inserted_arrival]
        new_ids = self._next_entry_id + np.arange(len(inserted), dtype=np.int64)
        self._dirty = True

        self._store_tags(unique_values, inserted, inserted_sets, inserted_ways)
        self._valid_tag[inserted_sets, inserted_ways] = True
        self._line_entry[inserted_sets, inserted_ways] = new_ids
        np.add.at(self._occupancy, inserted_sets, 1)
        self._entry_set = np.concatenate([self._entry_set, inserted_sets])
        self._entry_way = np.concatenate([self._entry_way, inserted_ways])
        self._next_entry_id += len(inserted)
        unique_entry[inserted] = new_ids

        # Per-unique category: 0 resident before batch, 1 inserted, 2 rejected.
        unique_state = np.empty(num_unique, dtype=np.int8)
        unique_state[present] = 0
        unique_state[arrival] = np.where(inserted_arrival, 1, 2)

        is_first = np.zeros(num_probes, dtype=bool)
        is_first[first_index] = True
        # Per-unique categories map straight onto the dense state codes:
        # resident (0) is HIT on every occurrence, inserted (1) is MAU on
        # the first occurrence and HIT afterwards, rejected (2) is MNU —
        # the same numbers as HIT_CODE=0 / MAU_CODE=1 / MNU_CODE=2, so a
        # single in-place fixup of intra-batch hits yields the codes.
        codes = unique_state[inverse]
        codes[(codes == 1) & ~is_first] = HIT_CODE
        counts = np.bincount(codes, minlength=3)
        self.stats.hits += int(counts[0])
        self.stats.mau += int(counts[1])
        self.stats.mnu += int(counts[2])
        return codes, unique_entry[inverse]

    def lookup_or_insert(self, signature: int) -> tuple[HitState, int]:
        """Scalar probe, for API parity with the line-level model."""
        states, entries = self.lookup_or_insert_batch([signature])
        return CODE_TO_STATE[int(states[0])], int(entries[0])

    def probe_batch(self, signatures) -> tuple[np.ndarray, np.ndarray]:
        """Non-mutating batch lookup; returns (present, entry_ids).

        Unlike the insert path, a multi-word probe never promotes the
        tag store: representation mismatches are bridged by a temporary
        word view.
        """
        sigs = coerce_packed(signatures)
        if len(sigs) == 0:
            return (np.empty(0, dtype=bool), np.empty(0, dtype=np.int64))

        if sigs.ndim == 1 and self._tag_words is None:
            sets = signature_sets(sigs, self.num_sets)
            match = self._match_resident(sigs, sets)
        else:
            store_words = 1 if self._tag_words is None \
                else self._tag_words.shape[2]
            sigs = signature_words(sigs)
            width = max(sigs.shape[1], store_words)
            sigs = pad_words(sigs, width)
            sets = signature_sets(sigs, self.num_sets)
            candidates = self._tag_words_view(width)
            match = self._valid_tag[sets] & (
                candidates[sets] == sigs[:, None, :]).all(axis=2)

        present = match.any(axis=1)
        way = np.argmax(match, axis=1)
        entry_ids = np.full(len(sigs), -1, dtype=np.int64)
        entry_ids[present] = self._line_entry[sets[present], way[present]]
        return present, entry_ids

    def _tag_words_view(self, num_words: int) -> np.ndarray:
        """Tags as full-value words without mutating state.

        The read-path twin of :meth:`_enter_words_mode`.
        """
        if self._tag_words is not None:
            return self._widen_tag_words(self._tag_words, num_words)
        return self._int64_tag_words(num_words)

    def probe(self, signature: int) -> tuple[bool, int]:
        """Non-mutating scalar lookup; returns (present, entry_id)."""
        present, entry_ids = self.probe_batch([signature])
        return bool(present[0]), int(entry_ids[0])

    def replace_line(self, set_index: int, way: int, signature) -> int:
        """Evict the resident of ``(set, way)`` and hand its line to
        ``signature``; returns the line's entry id.

        The replacement-policy hook: the victim's tag is overwritten and
        the new owner inherits the victim's entry id, so ids stay bounded
        by ``entries`` however many evictions a long-running session
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
        sigs = self._normalize(np.asarray(signature)[None])
        if int(signature_sets(sigs, self.num_sets)[0]) != set_index:
            raise ValueError("signature does not map to the victim's set")
        self._store_tags(sigs, np.array([0]),
                         np.array([set_index]), np.array([way]))
        self.stats.evictions += 1
        return int(self._line_entry[set_index, way])

    # ------------------------------------------------------------------
    # Hitmap simulation (fresh cache, one batch — the reuse-engine path)
    # ------------------------------------------------------------------
    def simulate(self, signatures) -> HitmapSimulation:
        """Clear the cache, replay one batch and return its Hitmap.

        Produces the same :class:`HitmapSimulation` as
        :func:`repro.core.hitmap_sim.simulate_hitmap` for the same
        geometry; access counters accumulate in :attr:`stats` across
        calls.  Because the replay starts from (and returns to) an empty
        cache — the reuse engine's freshly-cleared-MCACHE-per-layer
        semantics — the classification is exactly the stateless group-by
        simulation, so this hot path skips the persistent probe/insert
        machinery entirely: no tag writes, no entry-id bookkeeping, and
        ``clear`` is a no-op while the cache is already clean.
        """
        self.clear()
        simulation = simulate_hitmap(signatures, num_sets=self.num_sets,
                                     ways=self.ways)
        self.stats.hits += simulation.hits
        self.stats.mau += simulation.mau
        self.stats.mnu += simulation.mnu
        return simulation

    def clear(self) -> None:
        """Full reset (new channel / new set of input vectors)."""
        if not self._dirty:
            return
        self._dirty = False
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

    def utilization(self) -> float:
        return self.occupancy() / self.entries

    def __repr__(self) -> str:  # pragma: no cover
        return (f"VectorizedMCache(entries={self.entries}, ways={self.ways}, "
                f"occupancy={self.occupancy()})")
