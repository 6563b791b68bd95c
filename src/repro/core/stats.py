"""Reuse statistics.

The functional reuse engine records, for every (layer, phase) pair, how
many vectors were processed, how they were classified (HIT / MAU / MNU),
the vector length, the number of weight columns and the signature length
in force.  The accelerator cycle model consumes these records to produce
every performance figure in the paper, so they are the contract between
the functional and the timing layers of this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LayerReuseStats:
    """Accumulated reuse statistics for one (layer, phase)."""

    layer: str
    phase: str
    vector_length: int = 0
    num_filters: int = 0
    signature_bits: int = 0
    calls: int = 0
    total_vectors: int = 0
    hits: int = 0
    mau: int = 0
    mnu: int = 0
    unique_signatures: int = 0
    similarity_detection_on: bool = True
    # Vectors whose signature had to be generated vs. reloaded from the
    # signature table saved during forward propagation (§III-C2); the
    # cycle model only charges signature-generation cycles for the
    # former.
    signature_computed_vectors: int = 0
    signature_reloaded_vectors: int = 0

    @property
    def misses(self) -> int:
        return self.mau + self.mnu

    @property
    def hit_fraction(self) -> float:
        if self.total_vectors == 0:
            return 0.0
        return self.hits / self.total_vectors

    @property
    def computed_vectors(self) -> int:
        """Vectors whose dot products were actually executed."""
        return self.total_vectors - self.hits

    @property
    def skipped_macs(self) -> int:
        """Multiply-accumulate operations skipped thanks to reuse."""
        return self.hits * self.vector_length * self.num_filters

    @property
    def baseline_macs(self) -> int:
        return self.total_vectors * self.vector_length * self.num_filters

    def merge_call(self, *, vectors: int, hits: int, mau: int, mnu: int,
                   vector_length: int, num_filters: int, signature_bits: int,
                   unique_signatures: int, detection_on: bool,
                   signatures_reloaded: bool = False,
                   calls: int = 1) -> None:
        """Accumulate the outcome of ``calls`` same-shape matmul calls.

        The counts are totals over those calls; the shape fields and
        the detection flag describe each of them alike.
        """
        self.calls += calls
        self.total_vectors += vectors
        self.hits += hits
        self.mau += mau
        self.mnu += mnu
        self.vector_length = vector_length
        self.num_filters = num_filters
        self.signature_bits = signature_bits
        self.unique_signatures += unique_signatures
        self.similarity_detection_on = detection_on
        if detection_on:
            if signatures_reloaded:
                self.signature_reloaded_vectors += vectors
            else:
                self.signature_computed_vectors += vectors


@dataclass
class ReuseStats:
    """All per-layer records for one training run (or one batch)."""

    records: dict = field(default_factory=dict)

    def record_for(self, layer: str, phase: str) -> LayerReuseStats:
        key = (layer, phase)
        if key not in self.records:
            self.records[key] = LayerReuseStats(layer=layer, phase=phase)
        return self.records[key]

    def layers(self, phase: str | None = None) -> list[str]:
        names = []
        for (layer, rec_phase) in self.records:
            if phase is None or rec_phase == phase:
                if layer not in names:
                    names.append(layer)
        return names

    def get(self, layer: str, phase: str) -> LayerReuseStats | None:
        return self.records.get((layer, phase))

    def all_records(self) -> list[LayerReuseStats]:
        return list(self.records.values())

    # ------------------------------------------------------------------
    @property
    def total_vectors(self) -> int:
        return sum(r.total_vectors for r in self.records.values())

    @property
    def total_hits(self) -> int:
        return sum(r.hits for r in self.records.values())

    @property
    def total_skipped_macs(self) -> int:
        return sum(r.skipped_macs for r in self.records.values())

    @property
    def total_baseline_macs(self) -> int:
        return sum(r.baseline_macs for r in self.records.values())

    @property
    def overall_hit_fraction(self) -> float:
        total = self.total_vectors
        if total == 0:
            return 0.0
        return self.total_hits / total

    def mac_reduction(self) -> float:
        """Fraction of baseline MACs avoided through reuse."""
        baseline = self.total_baseline_macs
        if baseline == 0:
            return 0.0
        return self.total_skipped_macs / baseline

    def clear(self) -> None:
        self.records.clear()

    def summary(self) -> dict:
        """Aggregate view used by reports and benchmarks."""
        return {
            "total_vectors": self.total_vectors,
            "total_hits": self.total_hits,
            "hit_fraction": self.overall_hit_fraction,
            "mac_reduction": self.mac_reduction(),
            "layers": len(self.layers()),
        }
