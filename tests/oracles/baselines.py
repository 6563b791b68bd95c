"""The unlimited-similarity bound's per-row ``np.unique`` count."""

from __future__ import annotations

import numpy as np

from repro.baselines.unlimited_similarity import (
    UnlimitedSimilarityBound, UnlimitedSimilarityLayerReport)


class LoopUnlimitedSimilarityBound(UnlimitedSimilarityBound):
    """Counts each row's distinct bucketised values with ``np.unique``."""

    def layer_report(self, layer: str, vectors: np.ndarray,
                     weights: np.ndarray) -> UnlimitedSimilarityLayerReport:
        num_vectors, vector_length = vectors.shape
        num_filters = weights.shape[1]
        total = float(num_vectors * vector_length * num_filters)

        bucketised = self._bucketise(vectors)
        unique_per_vector = np.array(
            [len(np.unique(bucketised[row])) for row in range(num_vectors)],
            dtype=np.float64)
        required = float(unique_per_vector.sum() * num_filters)
        return UnlimitedSimilarityLayerReport(layer=layer, total_macs=total,
                                              required_macs=required)
