"""Engine-level oracles: the per-group grouped path and line-level Hitmaps.

Both return an ordinary :class:`~repro.core.reuse.ReuseEngine` with one
bound method swapped on the instance, so a layer or a training run can
drive it exactly like the production engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import HitmapSimulation
from repro.core.reuse import ReuseEngine
from tests.oracles.differential import scalar_reference_simulation


def substitute_segments(vectors, representatives, length: int):
    """``vectors`` with the ``g``-th ``length``-wide segment of each row
    replaced by that segment of row ``representatives[g][row]``, one
    (row, group) at a time."""
    substituted = vectors.copy()
    for group, representative in enumerate(representatives):
        segment = slice(group * length, (group + 1) * length)
        for row, source in enumerate(representative):
            substituted[row, segment] = vectors[source, segment]
    return substituted


def per_call_matmul_groups(engine: ReuseEngine, vectors, weights, *,
                           groups: int, layer: str):
    """The grouped path's oracle: one signature phase per group, then
    one product over the rows with every HIT segment substituted.

    Group ``g`` is the ``g``-th ``length``-wide segment of every row.
    Each group is hashed on its own, classified by its own
    ``engine.session.classify`` call and recorded as one forward call,
    exactly as a forward ``engine.matmul`` on that group's segments
    would; the substituted rows are then built one segment at a time
    (:func:`substitute_segments`) and multiplied once.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    num_vectors, width = vectors.shape
    length = width // groups
    num_filters = weights.shape[1]
    if not engine._detection_enabled(layer, "forward"):
        for _ in range(groups):
            engine._record(layer, "forward", vectors=num_vectors, hits=0,
                           mau=0, mnu=num_vectors, vector_length=length,
                           num_filters=num_filters, unique=num_vectors,
                           detection_on=False)
        return vectors @ weights
    representatives = []
    for group in range(groups):
        group_vectors = np.ascontiguousarray(
            vectors[:, group * length:(group + 1) * length])
        signatures = engine.hasher.signatures(group_vectors,
                                              engine.signature_bits)
        simulation = engine.session.classify(signatures)
        representatives.append(simulation.representative)
        engine.signature_table.store(layer, length, engine.signature_bits,
                                     signatures)
        engine._record(layer, "forward", vectors=num_vectors,
                       hits=simulation.hits, mau=simulation.mau,
                       mnu=simulation.mnu, vector_length=length,
                       num_filters=num_filters,
                       unique=simulation.unique_signatures,
                       detection_on=True)
    return substitute_segments(vectors, representatives, length) @ weights


def per_call_engine(config: MercuryConfig) -> ReuseEngine:
    """A reuse engine whose ``matmul_groups`` is the per-group loop."""
    engine = ReuseEngine(config)

    def matmul_groups(vectors, weights, *, groups, layer):
        return per_call_matmul_groups(engine, vectors, weights,
                                      groups=groups, layer=layer)

    engine.matmul_groups = matmul_groups
    return engine


def scalar_engine(config: MercuryConfig) -> ReuseEngine:
    """A reuse engine whose Hitmaps come from the line-level MCACHE."""
    engine = ReuseEngine(config)
    num_sets, ways = engine.session.num_sets, config.mcache_ways

    def classify(signatures):
        return scalar_reference_simulation(signatures, num_sets, ways)

    def classify_groups(signatures, groups, signature_bits):
        # Group g is every groups-th row from row g (the interleaved
        # frame); its local rows n map back to frame rows n * groups + g.
        simulations = [classify(signatures[group::groups])
                       for group in range(groups)]
        states = np.empty(len(signatures), dtype=np.int8)
        representative = np.empty(len(signatures), dtype=np.int64)
        for group, simulation in enumerate(simulations):
            states[group::groups] = simulation.states
            representative[group::groups] = \
                simulation.representative * groups + group
        return HitmapSimulation(
            states=states, representative=representative,
            hits=sum(simulation.hits for simulation in simulations),
            mau=sum(simulation.mau for simulation in simulations),
            mnu=sum(simulation.mnu for simulation in simulations),
            unique_signatures=sum(simulation.unique_signatures
                                  for simulation in simulations))

    engine.session.classify = classify
    engine.session.classify_groups = classify_groups
    return engine
