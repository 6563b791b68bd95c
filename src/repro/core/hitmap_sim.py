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

One core serves the plain signature phase and the grouped one
(:func:`simulate_hitmap_interleaved`, a fresh MCACHE per group): a
plain batch is the one-group case.  Both return one
:class:`HitmapSimulation` over the whole frame (group ``g``'s Hitmap is
its strided view ``[g::groups]``, which no production caller builds).
Each row's ``(group, signature, row)`` fuses into one int64 key, so one
sort groups the batch and orders every signature's rows by arrival.
Signatures arrive either as a 1-D ``int64`` array or — beyond 62 bits —
as the multi-word ``(n_vectors, n_words)`` ``uint64`` representation
(:mod:`repro.core.rpq`); those, and keys too wide for 63 bits, group by
one lexicographic row sort instead and stay fully vectorised.  Any
other representation is rejected (:func:`~repro.core.rpq.coerce_packed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hitmap import MAU_CODE, MNU_CODE
from repro.core.rpq import coerce_packed, words_mod


@dataclass(eq=False)
class HitmapSimulation:
    """Outcome of the signature phase for one frame of vectors.

    ``states`` carries the dense ``int8`` state codes
    (:data:`~repro.core.hitmap.HIT_CODE` = 0, ``MAU_CODE`` = 1,
    ``MNU_CODE`` = 2) and ``representative`` every row's source row in
    the same frame: a HIT row's MAU row, every other row itself.
    ``hits``, ``mau``, ``mnu`` and ``unique_signatures`` are totals
    over the frame.
    """

    states: np.ndarray          # int8 codes: HIT=0, MAU=1, MNU=2
    representative: np.ndarray  # int array; HIT rows point at their source
    hits: int
    mau: int
    mnu: int
    unique_signatures: int


def rank_within_groups(sorted_keys: np.ndarray) -> np.ndarray:
    """Rank of each element within its run of equal, pre-sorted keys.

    ``sorted_keys`` must be grouped (equal values adjacent); the result
    counts 0, 1, 2, ... within each run.  Shared by the signature-phase
    admission below and the batch MCACHE's insert competition
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

    The one-group case of the shared core behind
    :func:`simulate_hitmap_interleaved`.
    """
    return _classify(signatures, 1, num_sets, ways, None)


def simulate_hitmap_interleaved(signatures, groups: int, num_sets: int,
                                ways: int,
                                signature_bits: int | None = None
                                ) -> HitmapSimulation:
    """The Hitmap of ``groups`` interleaved signature batches.

    Row ``n * groups + g`` of ``signatures`` (1-D int64 or the
    multi-word 2-D form) is the ``n``-th signature of group ``g``.
    Bit-identical to calling :func:`simulate_hitmap` on each group's
    rows ``signatures[g::groups]`` — every group is classified against
    its own fresh MCACHE — but the work is one pass of the shared core
    over the whole frame: group ``g``'s signatures compete only for
    composite sets ``g * num_sets + set``, so no signature can hit, or
    steal a way from, another group.  This is the batched signature
    phase behind the reuse engine's per-channel convolution path.

    ``signature_bits``, when the caller knows every signature fits that
    many bits, is the fused key's signature width (a batch that does
    not fit it takes the lexicographic sort); without it the width is
    read off the batch.

    The result is one :class:`HitmapSimulation` in the interleaved
    frame: group ``g``'s Hitmap is the strided view ``states[g::groups]``,
    and a HIT row's representative is a row of its own group.  The
    counts are totals over all groups.
    """
    if groups < 1:
        raise ValueError("groups must be positive")
    return _classify(signatures, groups, num_sets, ways, signature_bits)


def _group_by(signatures: np.ndarray, groups: int, num_sets: int,
              signature_bits: int | None):
    """Sort the frame's rows by ``(group, signature, row)``.

    Returns ``(order, starts, unique_groups, unique_sets)``: the rows
    in that order, the start of each ``(group, signature)`` run in it
    (one run per unique signature of a group, the run's first row its
    first occurrence), and each unique's group and cache set
    ``signature % num_sets``.
    """
    num_rows = len(signatures)
    row_bits = max(num_rows - 1, 0).bit_length()
    bits = None
    if signatures.ndim == 1:
        if signature_bits is None:
            # The OR of all values is as wide as the widest.
            bits = int(np.bitwise_or.reduce(signatures)).bit_length()
        elif int(signatures.max()) < (1 << signature_bits):
            bits = int(signature_bits)
    if bits is not None and (groups - 1).bit_length() + bits + row_bits <= 63:
        # One key per row, ``group << (bits + row_bits) | signature <<
        # row_bits | row``.  The keys are distinct, so an unstable sort
        # of the keys themselves is the stable (group, signature)
        # order, and the row falls out of the low bits.  Row ``n *
        # groups + g`` is group ``g``, so the group field is one
        # broadcast OR over the frame's ``(n, groups)`` view.
        keys = (signatures.reshape(-1, groups)
                | np.arange(groups, dtype=np.int64) << bits).reshape(-1)
        keys <<= row_bits
        keys |= np.arange(num_rows, dtype=np.int64)
        keys.sort()
        order = keys & ((1 << row_bits) - 1)
        keys >>= row_bits
        new_run = np.empty(num_rows, dtype=bool)
        new_run[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        unique_keys = keys[starts]
        unique_groups = unique_keys >> bits
        unique_keys &= (1 << bits) - 1
        return order, starts, unique_groups, _sets_of(unique_keys, num_sets)
    # Multi-word signatures, or keys past 63 bits: a stable
    # lexicographic sort of (group, words...) — lexsort's last key is
    # primary — with ties in row order.
    row_groups = np.arange(num_rows, dtype=np.int64) % groups
    columns = signatures if signatures.ndim == 2 else signatures[:, None]
    order = np.lexsort((*(columns[:, col] for col in
                          range(columns.shape[1] - 1, -1, -1)),
                        row_groups))
    sorted_columns = columns[order]
    sorted_groups = row_groups[order]
    new_run = np.ones(num_rows, dtype=bool)
    new_run[1:] = ((sorted_columns[1:] != sorted_columns[:-1]).any(axis=1)
                   | (sorted_groups[1:] != sorted_groups[:-1]))
    starts = np.flatnonzero(new_run)
    return order, starts, sorted_groups[starts], \
        _sets_of(signatures[order[starts]], num_sets)


def _sets_of(unique_values: np.ndarray, num_sets: int) -> np.ndarray:
    """:func:`signature_sets`, by a mask when ``num_sets`` is a power of 2."""
    if unique_values.ndim == 1 and num_sets & (num_sets - 1) == 0:
        return unique_values & (num_sets - 1)
    return signature_sets(unique_values, num_sets)


def _classify(signatures, groups: int, num_sets: int, ways: int,
              signature_bits: int | None):
    """The shared signature-phase core over an interleaved frame."""
    if num_sets <= 0 or ways <= 0:
        raise ValueError("num_sets and ways must be positive")
    signatures = coerce_packed(signatures)
    num_rows = len(signatures)
    if num_rows % groups:
        raise ValueError(f"{num_rows} signatures do not split into "
                         f"{groups} groups")
    if num_rows == 0:
        return HitmapSimulation(states=np.empty(0, dtype=np.int8),
                                representative=np.empty(0, dtype=np.int64),
                                hits=0, mau=0, mnu=0, unique_signatures=0)
    order, starts, unique_groups, local_sets = _group_by(
        signatures, groups, num_sets, signature_bits)

    # Every row points at its run's first row, its signature's first
    # occurrence in its group; that row is MAU, the others HIT.
    first_rows = order[starts]
    run_lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=run_lengths[:-1])
    run_lengths[-1] = num_rows - starts[-1]
    representative = np.empty(num_rows, dtype=np.int64)
    representative[order] = first_rows.repeat(run_lengths)
    codes = np.zeros(num_rows, dtype=np.int8)
    codes[first_rows] = MAU_CODE

    # Admission: each group's set admits its first `ways` uniques by
    # first arrival.  Only a set holding more uniques than that can
    # reject one, so only the uniques of such sets are ranked, by one
    # distinct key ``composite set << row_bits | first row`` each.
    # (It fits 63 bits: a wider key needs ``set_sizes`` and the
    # signatures to take over 16 GB between them.)
    rejected_rows = np.empty(0, dtype=np.int64)
    rejected_uniques = 0
    unique_sets = unique_groups * num_sets + local_sets
    set_sizes = np.bincount(unique_sets)
    if int(set_sizes.max()) > ways:
        contested = np.flatnonzero(set_sizes[unique_sets] > ways)
        row_bits = max(num_rows - 1, 0).bit_length()
        keys = unique_sets[contested] << row_bits
        keys |= first_rows[contested]
        keys.sort()
        rejected_firsts = keys[rank_within_groups(keys >> row_bits) >= ways]
        rejected_firsts &= (1 << row_bits) - 1
        rejected_uniques = len(rejected_firsts)
        # Every row of a rejected unique is MNU and its own source.
        rejected = np.zeros(num_rows, dtype=bool)
        rejected[rejected_firsts] = True
        rejected_rows = np.flatnonzero(rejected[representative])
        codes[rejected_rows] = MNU_CODE
        representative[rejected_rows] = rejected_rows

    mau = len(starts) - rejected_uniques
    mnu = len(rejected_rows)
    return HitmapSimulation(states=codes, representative=representative,
                            hits=num_rows - mau - mnu, mau=mau, mnu=mnu,
                            unique_signatures=len(starts))
