"""Engine-level oracles: the per-call grouped path and line-level Hitmaps.

Both return an ordinary :class:`~repro.core.reuse.ReuseEngine` with one
bound method swapped on the instance, so a layer or a training run can
drive it exactly like the production engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import GroupedSimulation
from repro.core.reuse import ReuseEngine
from tests.oracles.differential import scalar_reference_simulation


def per_call_matmul_groups(engine: ReuseEngine, vectors, weights, *,
                           layer: str):
    """The grouped path's oracle: one forward ``engine.matmul`` call per
    group, each with its own signature phase and its own masked ride."""
    return [engine.matmul(group_vectors, group_weights, layer=layer)
            for group_vectors, group_weights in zip(vectors, weights)]


def per_call_engine(config: MercuryConfig) -> ReuseEngine:
    """A reuse engine whose ``matmul_groups`` is the per-call loop."""
    engine = ReuseEngine(config)

    def matmul_groups(vectors, weights, *, layer):
        return per_call_matmul_groups(engine, vectors, weights, layer=layer)

    engine.matmul_groups = matmul_groups
    return engine


def scalar_engine(config: MercuryConfig) -> ReuseEngine:
    """A reuse engine whose Hitmaps come from the line-level MCACHE."""
    engine = ReuseEngine(config)
    num_sets, ways = engine.session.num_sets, config.mcache_ways

    def classify(signatures):
        return scalar_reference_simulation(signatures, num_sets, ways)

    def classify_groups(signature_groups, signature_bits):
        simulations = [classify(signatures)
                       for signatures in signature_groups]
        offsets = np.cumsum([0] + [len(simulation.states)
                                   for simulation in simulations])
        return GroupedSimulation(
            simulations,
            states=np.concatenate([simulation.states
                                   for simulation in simulations]),
            representative=np.concatenate(
                [simulation.representative + offset
                 for simulation, offset in zip(simulations, offsets)]),
            hits=sum(simulation.hits for simulation in simulations),
            mau=sum(simulation.mau for simulation in simulations),
            mnu=sum(simulation.mnu for simulation in simulations),
            unique_signatures=sum(simulation.unique_signatures
                                  for simulation in simulations))

    engine.session.classify = classify
    engine.session.classify_groups = classify_groups
    return engine
