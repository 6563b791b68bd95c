"""Dataflow models.

The paper evaluates MERCURY on three dataflows (§IV):

* **Row-stationary** (the default, Eyeriss-style): filter rows stream
  horizontally, input rows diagonally, partial sums accumulate
  vertically.  Reuse skips a dot product entirely when the Hitmap entry
  is HIT.
* **Weight-stationary**: weights are pinned in PEs and input vectors are
  broadcast; MERCURY loads the random filters first, then skips similar
  vectors while reading them from global memory.
* **Input-stationary**: inputs are pinned and weights are broadcast; on
  a HIT the remaining weight stream for that vector is skipped.

For the cycle model each dataflow contributes (a) the PE-set geometry
(how many PEs cooperate on one dot product), (b) a *reuse efficiency*
— what fraction of HIT vectors' MACs is actually recoverable given the
dataflow's scheduling granularity — and (c) per-vector control overhead
for checking the Hitmap / skipping.  Efficiencies below 1.0 for the
weight- and input-stationary dataflows reflect the coarser skip
granularity the paper describes (whole-vector skips only once the
broadcast has been set up) and reproduce the paper's ordering of the
average speedups (RS 1.97x > WS 1.66x > IS 1.55x).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Dataflow:
    """Common dataflow parameters used by the cycle cost model."""

    name: str
    # PEs cooperating on one dot product (rows of the PE set).
    pe_set_size: int
    # Fraction of a HIT vector's MAC work that the dataflow can actually
    # skip (1.0 = perfect skip).
    reuse_efficiency: float
    # Cycles of control overhead per vector for Hitmap checks / skip
    # signalling.
    per_vector_overhead: int
    # Whether PE sets must synchronise after every filter (the simple
    # synchronous design); the asynchronous design removes the barrier.
    supports_async: bool = True

    def __post_init__(self):
        if self.pe_set_size <= 0:
            raise ValueError("pe_set_size must be positive")
        if not 0.0 <= self.reuse_efficiency <= 1.0:
            raise ValueError("reuse_efficiency must be in [0, 1]")
        if self.per_vector_overhead < 0:
            raise ValueError("per_vector_overhead must be non-negative")


class RowStationary(Dataflow):
    """Eyeriss-style row-stationary dataflow (the paper's baseline)."""

    def __init__(self, pe_set_size: int = 3):
        super().__init__(name="row_stationary", pe_set_size=pe_set_size,
                         reuse_efficiency=1.0, per_vector_overhead=1,
                         supports_async=True)


class WeightStationary(Dataflow):
    """Weight-stationary dataflow.

    Vectors are skipped while being read from the global buffer, after
    the broadcast schedule for the current weights has been committed,
    so a fraction of each skipped vector's work is not recoverable.
    """

    def __init__(self, pe_set_size: int = 3, reuse_efficiency: float = 0.88):
        super().__init__(name="weight_stationary", pe_set_size=pe_set_size,
                         reuse_efficiency=reuse_efficiency,
                         per_vector_overhead=2, supports_async=False)


class InputStationary(Dataflow):
    """Input-stationary dataflow.

    A HIT can only take effect when the stationary input vector is
    swapped, so skip opportunities are the coarsest of the three
    dataflows.
    """

    def __init__(self, pe_set_size: int = 3, reuse_efficiency: float = 0.82):
        super().__init__(name="input_stationary", pe_set_size=pe_set_size,
                         reuse_efficiency=reuse_efficiency,
                         per_vector_overhead=2, supports_async=False)


_DATAFLOWS = {
    "row_stationary": RowStationary,
    "weight_stationary": WeightStationary,
    "input_stationary": InputStationary,
}


def make_dataflow(name: str, **kwargs) -> Dataflow:
    """Factory for dataflows by configuration name."""
    try:
        factory = _DATAFLOWS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataflow {name!r}; choose from {sorted(_DATAFLOWS)}"
        ) from None
    return factory(**kwargs)
