"""Training's signature phase: the paper's per-layer MCACHE flush.

:class:`ReuseSession` is what the training
:class:`~repro.core.reuse.ReuseEngine` runs between hashing a layer
call's vectors and multiplying them.  Every :meth:`~ReuseSession.classify`
call sees a freshly-cleared MCACHE, so similarity is exploited only
*within* one batch, as the hardware flushes the MCACHE per layer
(§III-B3).  The session therefore keeps no cache state: classification
is the stateless group-by of :mod:`repro.core.hitmap_sim`, returning
one :class:`~repro.core.hitmap_sim.HitmapSimulation` per call, and the
ride is one GEMM over the batch with every HIT row's input replaced by
its representative's.  Only the run's count of flushes accumulates; the
HIT/MAU/MNU counts of each call go to the engine's one ledger,
:class:`~repro.core.stats.ReuseStats` (Figure 15a).

Serving's persistent, evicting, snapshotting store is a separate
extension, :class:`repro.serving.cache.SignatureResultCache`; the two
share the MCACHE geometry rules and nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.core.hitmap_sim import (HitmapSimulation, simulate_hitmap,
                                   simulate_hitmap_interleaved)


class ReuseSession:
    """The signature phase and cache ride of one training engine.

    ``entries``/``ways`` give the MCACHE geometry each classification
    replays: set-associative with no replacement, so a signature whose
    set is full at its first occurrence is computed every time (MNU).
    """

    def __init__(self, entries: int, ways: int):
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways != 0:
            raise ValueError("entries must be divisible by ways")
        self.ways = ways
        self.num_sets = entries // ways
        # Lifetime count of MCACHE flushes: one per classified batch
        # (one per group of a grouped classification).
        self.clears = 0

    def classify(self, signatures) -> HitmapSimulation:
        """Simulate the MCACHE signature phase for one batch (Figure 9).

        The batch sees a freshly-cleared MCACHE, so the classification
        is the stateless group-by
        (:func:`~repro.core.hitmap_sim.simulate_hitmap`): no tag writes
        and no entry ids, only the count of flushes accumulates.
        """
        simulation = simulate_hitmap(signatures, num_sets=self.num_sets,
                                     ways=self.ways)
        self.clears += 1
        return simulation

    def classify_groups(self, signatures, groups: int,
                        signature_bits: int) -> HitmapSimulation:
        """The Hitmap of ``groups`` interleaved batches, each group's
        strided view bit-identical to :meth:`classify` on its rows.

        ``signatures`` holds ``groups`` interleaved batches — int64 or
        multi-word rows, row ``n * groups + g`` the ``n``-th signature of
        group ``g`` — in the row order of a convolution's segment view,
        so no copy puts them group-major.  All groups go through one
        pass of the shared signature-phase core
        (:func:`~repro.core.hitmap_sim.simulate_hitmap_interleaved`),
        which :meth:`classify` runs as its one-group case, into one
        Hitmap over the interleaved frame.  Each group sees a fresh
        MCACHE: signatures never match, and never steal ways, across
        groups, and each counts as one clear.
        """
        simulation = simulate_hitmap_interleaved(
            signatures, groups, num_sets=self.num_sets, ways=self.ways,
            signature_bits=signature_bits)
        self.clears += groups
        return simulation

    @staticmethod
    def ride(vectors: np.ndarray, weights: np.ndarray,
             simulation: HitmapSimulation) -> np.ndarray:
        """The cache ride: one GEMM over the input rows, with every HIT
        row replaced by its representative's row.

        A HIT row reuses its representative's dot products (its source
        is its MAU row, every other row is its own), so the product is
        ``vectors @ weights`` with the HIT rows' inputs substituted.
        Each row that does not hit is the same row at the same position
        in a GEMM of the same shape as the engine-less product (and of
        the same operand layout: the layers pass C-contiguous rows), so
        it equals that product's row bit for bit; a Hitmap without hits
        gives the engine-less product itself.
        """
        if not simulation.hits:
            return vectors @ weights
        return vectors.take(simulation.representative, axis=0) @ weights

    @staticmethod
    def ride_groups(vectors: np.ndarray, weights: np.ndarray,
                    simulation: HitmapSimulation) -> np.ndarray:
        """The cache ride of ``(vectors, groups * length)`` rows whose
        ``length``-wide segments were classified group by group.

        ``simulation`` is the interleaved frame of
        :meth:`classify_groups`: its row ``n * groups + g`` is the
        ``g``-th segment of row ``n``, which is row ``n * groups + g``
        of the ``(vectors * groups, length)`` segment view too.  So one
        gather of the segment view by the representatives replaces
        every HIT segment with its representative's segment of the same
        group, and the substituted rows go through one ``@ weights``,
        the ``(groups * length, filters)`` product the engine-less path
        runs.  As in :meth:`ride`, a row none of whose segments hits
        equals the engine-less product's row bit for bit.
        """
        if not simulation.hits:
            return vectors @ weights
        segments = vectors.reshape(len(simulation.representative), -1)
        return segments.take(simulation.representative, axis=0).reshape(
            vectors.shape) @ weights
