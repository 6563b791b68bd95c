"""Unlimited similarity detection (Figure 17c).

This comparison point assumes an ideal accelerator that can find *all*
repeated elements in a layer's inputs and weights and reuse each
distinct (input value, weight value) product — with zero detection cost.
The paper reports MERCURY landing within a couple of percent of this
bound, because whole-vector signature reuse captures most of the
element-level redundancy while paying only the RPQ cost.

Values are bucketised before counting (`value_resolution`), mirroring
the fixed-point arithmetic of the accelerator: two elements equal at
that resolution are considered "similar elements".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.capture import CaptureEngine


@dataclass
class UnlimitedSimilarityLayerReport:
    layer: str
    total_macs: float
    required_macs: float

    @property
    def speedup(self) -> float:
        if self.required_macs == 0:
            return 1.0
        return self.total_macs / self.required_macs


class UnlimitedSimilarityBound:
    """Ideal element-level similarity reuse over inputs and weights."""

    def __init__(self, value_resolution: float = 1e-2):
        if value_resolution <= 0:
            raise ValueError("value_resolution must be positive")
        self.value_resolution = value_resolution

    def _bucketise(self, array: np.ndarray) -> np.ndarray:
        return np.round(np.asarray(array, dtype=np.float64)
                        / self.value_resolution).astype(np.int64)

    def layer_report(self, layer: str, vectors: np.ndarray,
                     weights: np.ndarray) -> UnlimitedSimilarityLayerReport:
        """MAC counts for one stage.

        For every filter column, only one multiplication per *distinct
        bucketised input value* in a vector is required (its products
        with that filter's weights can be shared across repeated
        elements); the per-vector unique-value count therefore bounds
        the required multiplies.  A row's distinct values are counted on
        its sorted buckets: one for the first, plus one per change.
        """
        num_vectors, vector_length = vectors.shape
        num_filters = weights.shape[1]
        total = float(num_vectors * vector_length * num_filters)

        distinct = 0
        if vector_length:  # an empty row has no distinct value
            ordered = np.sort(self._bucketise(vectors), axis=1)
            distinct = num_vectors + int(np.count_nonzero(
                ordered[:, 1:] != ordered[:, :-1]))
        required = float(distinct) * num_filters
        return UnlimitedSimilarityLayerReport(layer=layer, total_macs=total,
                                              required_macs=required)

    def model_speedup(self, capture: CaptureEngine,
                      phase: str | None = None) -> float:
        total = 0.0
        required = 0.0
        for (layer, rec_phase), calls in capture.captured.items():
            if phase is not None and rec_phase != phase:
                continue
            for vectors, weights in calls:
                report = self.layer_report(layer, vectors, weights)
                total += report.total_macs
                required += report.required_macs
        if required == 0:
            return 1.0
        return total / required
