"""The MERCURY reuse engine.

:class:`ReuseEngine` is the functional model of MERCURY: every dot
product a layer would perform is routed through :meth:`ReuseEngine.matmul`,
which

1. computes (or reloads) RPQ signatures for the incoming vectors,
2. probes a freshly-cleared MCACHE with each signature to build the
   Hitmap (HIT / MAU / MNU) — one
   :class:`~repro.core.hitmap_sim.HitmapSimulation` per call, used by
   the next step and then dropped,
3. executes the dot products of MAU and MNU vectors exactly and gives
   each HIT vector its representative's dot products: the product runs
   once, as one GEMM of the engine-less shape, over the vectors with
   every HIT vector replaced by its representative, and
4. records the call's HIT/MAU/MNU counts and shapes in
   :class:`~repro.core.stats.ReuseStats`, the run's one reuse ledger,
   which the accelerator cycle model and the adaptation policies
   consume.

This mirrors the paper's split: the functional effect of MERCURY (which
results are reused, and therefore how training accuracy is affected) is
independent of the hardware timing, which lives in
:mod:`repro.accelerator`.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptation import SignatureLengthScheduler, SimilarityStoppage
from repro.core.config import MercuryConfig
from repro.core.rpq import RPQHasher
from repro.core.session import ReuseSession
from repro.core.signature import SignatureTable
from repro.core.stats import ReuseStats


class ExactCountingEngine:
    """A drop-in engine that performs exact matmuls but records layer shapes.

    Used to characterise the baseline accelerator: it sees exactly the
    same stream of (vectors, weights) calls as the reuse engine, so the
    cycle model can charge the baseline cost for each of them.
    """

    def __init__(self):
        self.stats = ReuseStats()

    def matmul(self, vectors: np.ndarray, weights: np.ndarray, *,
               layer: str, phase: str = "forward") -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        record = self.stats.record_for(layer, phase)
        record.merge_call(vectors=vectors.shape[0], hits=0, mau=0,
                          mnu=vectors.shape[0],
                          vector_length=vectors.shape[1],
                          num_filters=weights.shape[1],
                          signature_bits=0,
                          unique_signatures=vectors.shape[0],
                          detection_on=False)
        return vectors @ weights

    def end_iteration(self, loss: float | None = None) -> None:
        """No adaptation for the baseline; kept for interface parity."""


class ReuseEngine:
    """Functional MERCURY: signature-based grouping of dot products."""

    def __init__(self, config: MercuryConfig | None = None):
        self.config = config or MercuryConfig()
        self.hasher = RPQHasher(seed=self.config.rpq_seed)
        self.signature_table = SignatureTable()
        self.stats = ReuseStats()          # cumulative over the run
        self.batch_stats = ReuseStats()    # reset at every end_iteration
        self.scheduler = SignatureLengthScheduler(
            initial_bits=self.config.signature_bits,
            max_bits=self.config.max_signature_bits,
            plateau_iterations=self.config.plateau_iterations,
            tolerance=self.config.loss_plateau_tolerance)
        self.stoppage = SimilarityStoppage(
            stoppage_batches=self.config.stoppage_batches,
            pipelined_signatures=self.config.pipelined_signatures)
        self.iterations = 0
        # The signature phase and cache ride: every layer call sees a
        # freshly-cleared MCACHE, matching the hardware's per-channel
        # flush.  ``stats`` is the run's one HIT/MAU/MNU ledger
        # (Figure 15a).
        self.session = ReuseSession(self.config.mcache_entries,
                                    self.config.mcache_ways)

    # ------------------------------------------------------------------
    @property
    def signature_bits(self) -> int:
        """Signature length currently in force (grows via adaptation)."""
        return self.scheduler.bits

    def _detection_enabled(self, layer: str, phase: str) -> bool:
        return (not self.config.adaptive_stoppage
                or self.stoppage.is_enabled_for(layer, phase))

    # ------------------------------------------------------------------
    def _signatures_for(self, vectors: np.ndarray, layer: str,
                        phase: str) -> tuple[np.ndarray, bool]:
        """Return signatures, reloading forward ones in backward if legal."""
        if phase == "backward":
            record = self.signature_table.lookup(layer, vectors.shape[1],
                                                 vectors.shape[0])
            if record is not None:
                return record.signatures, True
        # Every batch reaching the engine is a freshly extracted array,
        # hashed once; the only cross-call reuse of signatures is the
        # table reload above (§III-C2).
        signatures = self.hasher.signatures(vectors, self.signature_bits)
        return signatures, False

    # ------------------------------------------------------------------
    def matmul(self, vectors: np.ndarray, weights: np.ndarray, *,
               layer: str, phase: str = "forward") -> np.ndarray:
        """Multiply ``vectors`` (rows) by ``weights`` with signature reuse."""
        vectors = np.asarray(vectors, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if vectors.ndim != 2 or weights.ndim != 2:
            raise ValueError("matmul expects 2D vectors and weights")
        if vectors.shape[1] != weights.shape[0]:
            raise ValueError(
                f"shape mismatch: vectors {vectors.shape} x weights {weights.shape}")

        num_vectors, vector_length = vectors.shape
        num_filters = weights.shape[1]

        if not self._detection_enabled(layer, phase):
            result = vectors @ weights
            self._record(layer, phase, vectors=num_vectors, hits=0, mau=0,
                         mnu=num_vectors, vector_length=vector_length,
                         num_filters=num_filters, unique=num_vectors,
                         detection_on=False)
            return result

        signatures, reloaded = self._signatures_for(vectors, layer, phase)
        simulation = self.session.classify(signatures)
        result = ReuseSession.ride(vectors, weights, simulation)

        if phase == "forward":
            self.signature_table.store(layer, vector_length,
                                       self.signature_bits, signatures)

        self._record(layer, phase, vectors=num_vectors,
                     hits=simulation.hits, mau=simulation.mau,
                     mnu=simulation.mnu, vector_length=vector_length,
                     num_filters=num_filters,
                     unique=simulation.unique_signatures,
                     detection_on=True, signatures_reloaded=reloaded)
        return result

    # ------------------------------------------------------------------
    def matmul_groups(self, vectors: np.ndarray, weights: np.ndarray, *,
                      groups: int, layer: str) -> np.ndarray:
        """A forward ``vectors @ weights`` whose rows are hashed in
        ``groups`` equal segments, each segment position on its own.

        This is a convolution's per-channel reuse (§III-B): each row of
        the ``(vectors, groups * length)`` patch matrix holds one
        ``length``-wide segment per input channel.  Every group gets
        its own signature phase on a fresh MCACHE — signatures never
        match, and never steal ways, across groups — with the
        statistics, clears and signature-table state of one forward
        :meth:`matmul` call per group.  The product is
        one GEMM of the engine-less shape over the rows with every HIT
        segment replaced by its representative's
        (:meth:`ReuseSession.ride_groups`).  The work is constant
        however many groups there are: one hash of the ``(vectors *
        groups, length)`` segment view, one multi-group classification
        of its signatures in the view's own row order, the interleaved
        frame where row ``n * groups + g`` is group ``g``
        (:meth:`ReuseSession.classify_groups`), one ride that gathers
        the view's rows by the frame's representatives, and one
        statistics merge.  The signature table keeps the last group's
        rows, ``signatures[groups - 1::groups]``.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if vectors.ndim != 2 or weights.ndim != 2:
            raise ValueError("matmul_groups expects 2D vectors and weights")
        if vectors.shape[1] != weights.shape[0]:
            raise ValueError(f"shape mismatch: vectors {vectors.shape} x "
                             f"weights {weights.shape}")
        if groups < 1 or vectors.shape[1] % groups:
            raise ValueError(f"{vectors.shape[1]} features do not split "
                             f"into {groups} groups")
        num_vectors, width = vectors.shape
        vector_length = width // groups
        num_filters = weights.shape[1]
        rows = num_vectors * groups

        if not self._detection_enabled(layer, "forward"):
            self._record(layer, "forward", vectors=rows, hits=0, mau=0,
                         mnu=rows, vector_length=vector_length,
                         num_filters=num_filters, unique=rows,
                         detection_on=False, calls=groups)
            return vectors @ weights

        # The projection is per row, so one hash of the segment view
        # gives every group the signatures a per-group hash would, in
        # the interleaved frame that classification and ride share.
        signatures = self.hasher.signatures(
            vectors.reshape(rows, vector_length), self.signature_bits)
        simulation = self.session.classify_groups(signatures, groups,
                                                  self.signature_bits)
        result = ReuseSession.ride_groups(vectors, weights, simulation)

        # One call per group would overwrite the table record group by
        # group; only the last group's survives.
        self.signature_table.store(layer, vector_length,
                                   self.signature_bits,
                                   signatures[groups - 1::groups])
        self._record(layer, "forward", vectors=rows, hits=simulation.hits,
                     mau=simulation.mau, mnu=simulation.mnu,
                     vector_length=vector_length, num_filters=num_filters,
                     unique=simulation.unique_signatures,
                     detection_on=True, calls=groups)
        return result

    # ------------------------------------------------------------------
    def _record(self, layer: str, phase: str, *, vectors: int, hits: int,
                mau: int, mnu: int, vector_length: int, num_filters: int,
                unique: int, detection_on: bool,
                signatures_reloaded: bool = False, calls: int = 1) -> None:
        for stats in (self.stats, self.batch_stats):
            record = stats.record_for(layer, phase)
            record.merge_call(vectors=vectors, hits=hits, mau=mau, mnu=mnu,
                              vector_length=vector_length,
                              num_filters=num_filters,
                              signature_bits=self.signature_bits,
                              unique_signatures=unique,
                              detection_on=detection_on,
                              signatures_reloaded=signatures_reloaded,
                              calls=calls)

    # ------------------------------------------------------------------
    def end_iteration(self, loss: float | None = None) -> None:
        """Close out one training iteration.

        Feeds the loss to the signature-length scheduler and the batch
        statistics to the per-layer stoppage policy, then clears the
        per-batch statistics.
        """
        self.iterations += 1
        if loss is not None and self.config.adaptive_signature_length:
            self.scheduler.observe_loss(float(loss))
        if self.config.adaptive_stoppage:
            for record in self.batch_stats.all_records():
                if record.similarity_detection_on:
                    self.stoppage.observe_batch(record)
        self.batch_stats = ReuseStats()

    # ------------------------------------------------------------------
    def disabled_layers(self) -> list[str]:
        """Layers whose similarity detection has been switched off."""
        return self.stoppage.disabled_layers()
