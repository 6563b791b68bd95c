"""Vectorised simulation of the signature phase.

Probing a line-level MCACHE model once per vector from Python is exact
but slow for the tens of thousands of vectors a convolution layer
produces.  ``simulate_hitmap`` reproduces the *same* HIT / MAU / MNU
decisions (the test suite checks equivalence against the line-level
model in ``tests/oracles``) using numpy group-by operations:

* the first occurrence of a signature whose set still has a free way is
  MAU and owns the cache line;
* later occurrences of an inserted signature are HIT and point at the
  owner;
* occurrences of a signature whose set was already full at its first
  occurrence are MNU (no replacement — Figure 9).

Signatures arrive either as a 1-D ``int64`` array or — beyond 62 bits —
as the multi-word ``(n_vectors, n_words)`` ``uint64`` representation
(:mod:`repro.core.rpq`); the multi-word path groups by lexicographic
row sort and stays fully vectorised.  Any other representation is
rejected (:func:`~repro.core.rpq.coerce_packed`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.hitmap import CODE_TO_STATE, HIT_CODE, Hitmap, MNU_CODE
from repro.core.rpq import coerce_packed, unique_signatures, words_mod


@dataclass
class HitmapSimulation:
    """Outcome of the signature phase for one set of vectors.

    ``states`` carries the dense ``int8`` state codes
    (:data:`~repro.core.hitmap.HIT_CODE` = 0, ``MAU_CODE`` = 1,
    ``MNU_CODE`` = 2) — no Python enum objects on the hot path; the
    enum view is :meth:`state_objects` / :meth:`to_hitmap`.
    """

    states: np.ndarray          # int8 codes: HIT=0, MAU=1, MNU=2
    representative: np.ndarray  # int array; HIT rows point at their source
    hits: int
    mau: int
    mnu: int
    unique_signatures: int

    def state_objects(self) -> np.ndarray:
        """The user-facing enum view: an object array of ``HitState``."""
        return CODE_TO_STATE[self.states]

    def to_hitmap(self) -> Hitmap:
        """Materialise a :class:`Hitmap` without per-entry validation cost."""
        hitmap = Hitmap(len(self.states))
        hitmap._states = list(CODE_TO_STATE[self.states])
        hitmap._source = [int(src) if code == HIT_CODE else None
                          for code, src in zip(self.states.tolist(),
                                               self.representative.tolist())]
        return hitmap


class GroupedSimulation(Sequence):
    """The per-group Hitmaps of one grouped signature phase.

    A sequence of :class:`HitmapSimulation` — one per group, in order,
    each a row view of the concatenation — that also carries what
    whole-stack callers need, so they never walk the groups: the
    concatenated ``states`` codes, the ``representative`` row map over
    the concatenation (a HIT row points at its source's row in the
    concatenated frame, every other row at itself), and the HIT / MAU /
    MNU / unique-signature totals over all groups.

    Built from a list of simulations, or by
    :func:`simulate_hitmap_grouped`, which leaves the per-group views
    to be built when first indexed: the reuse engine reads only the
    last one.  Indexing (negative indices and slices too), ``len``,
    iteration and ``==`` against a list behave as on a list.
    """

    def __init__(self, groups, *, states: np.ndarray,
                 representative: np.ndarray, hits: int, mau: int, mnu: int,
                 unique_signatures: int):
        self._views = list(groups)
        self.states = states
        self.representative = representative
        self.hits = hits
        self.mau = mau
        self.mnu = mnu
        self.unique_signatures = unique_signatures
        # Lazy form only: group row bounds and each unique's group.
        self._bounds: list[int] | None = None
        self._unique_groups: np.ndarray | None = None

    @classmethod
    def _lazy(cls, bounds: list[int], unique_groups: np.ndarray,
              **fields) -> "GroupedSimulation":
        grouped = cls([None] * (len(bounds) - 1), **fields)
        grouped._bounds = bounds
        grouped._unique_groups = unique_groups
        return grouped

    def _view(self, group: int) -> HitmapSimulation:
        lo, hi = self._bounds[group], self._bounds[group + 1]
        states = self.states[lo:hi]
        hits, mau, mnu = np.bincount(states, minlength=3).tolist()
        return HitmapSimulation(
            states=states, representative=self.representative[lo:hi] - lo,
            hits=hits, mau=mau, mnu=mnu, unique_signatures=int(
                np.diff(np.searchsorted(self._unique_groups,
                                        [group, group + 1]))[0]))

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[group]
                    for group in range(*index.indices(len(self)))]
        view = self._views[index]
        if view is None:
            group = range(len(self))[index]
            view = self._views[group] = self._view(group)
        return view

    def __eq__(self, other):
        if isinstance(other, (list, GroupedSimulation)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def rank_within_groups(sorted_keys: np.ndarray) -> np.ndarray:
    """Rank of each element within its run of equal, pre-sorted keys.

    ``sorted_keys`` must be grouped (equal values adjacent); the result
    counts 0, 1, 2, ... within each run.  Shared by the stateless
    group-by simulation below and the batch MCACHE's insert competition
    (:mod:`repro.core.mcache_vec`) so the two stay structurally, not
    just observably, identical.
    """
    num_keys = len(sorted_keys)
    if num_keys == 0:
        return np.empty(0, dtype=np.int64)
    new_group = np.ones(num_keys, dtype=bool)
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    group_starts = np.flatnonzero(new_group)
    group_ids = np.cumsum(new_group) - 1
    return np.arange(num_keys) - group_starts[group_ids]


def signature_sets(unique_values: np.ndarray, num_sets: int) -> np.ndarray:
    """Cache-set index per unique signature, for either representation."""
    if unique_values.ndim == 2:
        return words_mod(unique_values, num_sets)
    return (unique_values % num_sets).astype(np.int64)


def simulate_hitmap(signatures: np.ndarray, num_sets: int,
                    ways: int) -> HitmapSimulation:
    """Classify every signature as HIT, MAU or MNU.

    Parameters
    ----------
    signatures:
        Packed signatures in arrival order: 1-D integers or the
        multi-word 2-D form.
    num_sets, ways:
        MCACHE geometry; insertion into a set stops once ``ways``
        distinct signatures have claimed its lines.
    """
    if num_sets <= 0 or ways <= 0:
        raise ValueError("num_sets and ways must be positive")
    signatures = coerce_packed(signatures)
    if len(signatures) == 0:
        return HitmapSimulation(states=np.empty(0, dtype=np.int8),
                                representative=np.empty(0, dtype=np.int64),
                                hits=0, mau=0, mnu=0, unique_signatures=0)
    return _simulate_vectorised(signatures, num_sets, ways)


def _classify_uniques(unique_sets: np.ndarray, first_index: np.ndarray,
                      inverse: np.ndarray, num_vectors: int,
                      ways: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared classification core given a group-by of the batch.

    ``unique_sets`` names the cache set competed for by each unique
    signature (callers may offset it to model independent caches — the
    multi-group path); returns ``(codes, representative)`` over the
    ``num_vectors`` probes.
    """
    # Decide which unique signatures win a cache line: order them by
    # first occurrence and admit the first `ways` per set.  The
    # (set, arrival) order usually packs into one int64 key
    # ``set << row_bits | first_index``: the keys are distinct, so one
    # unstable sort of the keys themselves gives the stable order, and
    # the first index in the low bits names each unique via ``inverse``.
    num_uniques = len(unique_sets)
    inserted_unique = np.empty(num_uniques, dtype=bool)
    max_set = int(unique_sets.max()) if num_uniques else 0
    row_bits = max(num_vectors - 1, 0).bit_length()
    if max_set.bit_length() + row_bits <= 63:
        keys = np.sort((unique_sets.astype(np.int64, copy=False)
                        << row_bits) | first_index)
        rank_within_set = rank_within_groups(keys >> row_bits)
        in_set_order = inverse[keys & ((1 << row_bits) - 1)]
        inserted_unique[in_set_order] = rank_within_set < ways
    else:  # pragma: no cover — needs ~2^62 composite sets
        arrival_order = np.argsort(first_index, kind="stable")
        sets_in_arrival = unique_sets[arrival_order]
        by_set = np.argsort(sets_in_arrival, kind="stable")
        rank_within_set = rank_within_groups(sets_in_arrival[by_set])
        inserted_in_arrival = np.empty(num_uniques, dtype=bool)
        inserted_in_arrival[by_set] = rank_within_set < ways
        inserted_unique[arrival_order] = inserted_in_arrival

    # An inserted signature's first occurrence is MAU and its later
    # ones HIT — with HIT_CODE = 0 and MAU_CODE = 1 that is the
    # first-occurrence flag itself; rows of a rejected signature are
    # MNU.  HIT rows point at their signature's first occurrence (for a
    # MAU row that is the row itself); MNU rows point at themselves.
    rejected = np.flatnonzero(~inserted_unique[inverse])
    is_first = np.zeros(num_vectors, dtype=bool)
    is_first[first_index] = True
    codes = is_first.view(np.int8)
    codes[rejected] = MNU_CODE
    representative = first_index[inverse]
    representative[rejected] = rejected
    return codes, representative


def _simulate_vectorised(signatures: np.ndarray, num_sets: int,
                         ways: int) -> HitmapSimulation:
    """numpy group-by implementation for either packed representation."""
    num_vectors = len(signatures)
    unique_values, first_index, inverse = unique_signatures(signatures)
    unique_sets = signature_sets(unique_values, num_sets)
    codes, representative = _classify_uniques(
        unique_sets, first_index, inverse, num_vectors, ways)
    hits, mau, mnu = np.bincount(codes, minlength=3).tolist()
    return HitmapSimulation(states=codes, representative=representative,
                            hits=hits, mau=mau, mnu=mnu,
                            unique_signatures=len(unique_values))


def simulate_hitmap_grouped(signatures, group_sizes, num_sets: int,
                            ways: int,
                            signature_bits: int | None = None
                            ) -> GroupedSimulation:
    """Per-group Hitmaps for a concatenation of signature batches.

    Bit-identical to calling :func:`simulate_hitmap` once per group —
    each group is classified against its own fresh MCACHE — but the
    group-by runs once over the whole concatenation: group ``g``'s
    signatures compete only for composite sets ``g * num_sets + set``,
    so no signature can hit, or steal a way from, another group.  This
    is the batched signature phase behind the reuse engine's
    per-channel convolution path, where per-call overhead used to
    dominate (one engine call per input channel).

    ``signatures`` holds the groups back to back in arrival order (1-D
    int64 or the multi-word 2-D form); ``group_sizes`` their lengths.
    The result is a :class:`GroupedSimulation`: one
    :class:`HitmapSimulation` per group — row views whose representative
    indices are local to the group, exactly as the per-call path
    produces them — plus the concatenated arrays and the totals.

    ``signature_bits``, when the caller knows every signature fits that
    many bits, lets the composite (group, signature) key fuse into one
    int64, which :func:`~repro.core.rpq.unique_signatures` groups with a
    single packed ``(group, signature, row)`` sort; without it, or past
    62 bits, the groups go through a lexicographic row sort.  Either
    way the work is a constant number of numpy passes over the whole
    concatenation; a per-group view is built only when indexed.
    """
    if num_sets <= 0 or ways <= 0:
        raise ValueError("num_sets and ways must be positive")
    group_sizes = np.asarray(group_sizes, dtype=np.int64).reshape(-1)
    if (group_sizes < 0).any():
        raise ValueError("group sizes must be non-negative")
    signatures = coerce_packed(signatures)
    num_vectors = len(signatures)
    if int(group_sizes.sum()) != num_vectors:
        raise ValueError("group sizes must sum to the number of signatures")

    num_groups = len(group_sizes)
    starts = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(group_sizes, out=starts[1:])
    group_ids = np.repeat(np.arange(num_groups, dtype=np.int64),
                          group_sizes)
    fused_bits = None
    if (signatures.ndim == 1 and signature_bits is not None
            and signature_bits + max(num_groups - 1, 0).bit_length() <= 62
            and (num_vectors == 0
                 or int(signatures.max()) < (1 << signature_bits))):
        fused_bits = int(signature_bits)

    if fused_bits is not None:
        # Fused single-key path: (group << bits) | signature is unique
        # per (group, signature) pair and sorts group-major, so one
        # int64 group-by replaces the two-column lexsort.
        fused = (group_ids << fused_bits) | signatures
        unique_values, first_index, inverse = unique_signatures(fused)
        unique_groups = unique_values >> fused_bits
        unique_sets = signature_sets(
            unique_values & ((np.int64(1) << fused_bits) - 1), num_sets)
    else:
        word_groups = group_ids.astype(np.uint64)
        if signatures.ndim == 2:
            composite = np.hstack([word_groups[:, None], signatures])
        else:
            composite = np.stack([word_groups,
                                  signatures.astype(np.uint64)], axis=1)
        unique_values, first_index, inverse = unique_signatures(composite)
        unique_groups = unique_values[:, 0].astype(np.int64)
        unique_sets = signature_sets(
            unique_values[:, 1] if unique_values.shape[1] == 2
            else unique_values[:, 1:], num_sets)
    # The cache set is derived from the signature alone (exactly the
    # single-group rule), then offset per group so groups never share a
    # set: per-group fresh-MCACHE semantics inside one group-by.
    composite_sets = unique_groups * num_sets + unique_sets

    states, representative = _classify_uniques(
        composite_sets, first_index, inverse, num_vectors, ways)
    hits, mau, mnu = np.bincount(states, minlength=3).tolist()
    return GroupedSimulation._lazy(
        starts.tolist(), unique_groups, states=states,
        representative=representative, hits=hits, mau=mau, mnu=mnu,
        unique_signatures=len(unique_groups))
