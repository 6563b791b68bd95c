"""The Hitmap: per-input-vector HIT / MAU / MNU marks.

The Hitmap is what keeps the accelerator dataflow regular in spite of
skipped computations (§III-B3): before a PE set starts the dot products
for an input vector it consults the Hitmap entry —

* ``HIT``  — an earlier vector produced the same signature and its
  results live in MCACHE; the dot product is skipped.
* ``MAU``  — *miss and update*: the signature was inserted into MCACHE,
  so the PE set must compute and store its result.
* ``MNU``  — *miss no update*: the MCACHE set was full, the signature
  was not inserted; compute but do not store.

Two representations coexist.  The :class:`HitState` enum is the
user-facing view (and the vocabulary of the line-level MCACHE oracle
the tests keep); every hot path — batch classification, the serving
cache's probe/admit loops, the cache ride — carries the dense ``int8``
*state codes* :data:`HIT_CODE` / :data:`MAU_CODE` / :data:`MNU_CODE`
instead, so no Python enum object is ever materialised per vector.
:func:`codes_to_states` / :func:`states_to_codes` convert at the
boundary.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

#: Dense ``int8`` state codes carried by every batch-classification
#: array (``HitmapSimulation.states``, ``SignatureResultCache``'s
#: probe-and-admit).
HIT_CODE: int = 0
MAU_CODE: int = 1
MNU_CODE: int = 2


class HitState(Enum):
    """State of one Hitmap entry."""

    HIT = "HIT"
    MAU = "MAU"
    MNU = "MNU"

    @property
    def code(self) -> int:
        """The dense ``int8`` code of this state (HIT=0, MAU=1, MNU=2)."""
        return STATE_TO_CODE[self]


#: code -> enum (an object array so ``CODE_TO_STATE[codes]`` vectorises).
CODE_TO_STATE = np.array([HitState.HIT, HitState.MAU, HitState.MNU],
                         dtype=object)
#: enum -> code.
STATE_TO_CODE = {HitState.HIT: HIT_CODE, HitState.MAU: MAU_CODE,
                 HitState.MNU: MNU_CODE}


def codes_to_states(codes: np.ndarray) -> np.ndarray:
    """Object array of :class:`HitState` for an ``int8`` code array."""
    return CODE_TO_STATE[np.asarray(codes, dtype=np.int8)]


def states_to_codes(states) -> np.ndarray:
    """``int8`` code array for a sequence of :class:`HitState` values."""
    return np.fromiter((STATE_TO_CODE[state] for state in states),
                       dtype=np.int8, count=len(states))


class Hitmap:
    """A per-vector array of :class:`HitState` values with counters."""

    def __init__(self, num_vectors: int):
        if num_vectors < 0:
            raise ValueError("num_vectors must be non-negative")
        self.num_vectors = num_vectors
        self._states: list[HitState | None] = [None] * num_vectors
        # For HIT entries, index of the earlier vector whose results are
        # reused (the MAU vector holding the matching signature).
        self._source: list[int | None] = [None] * num_vectors

    def set(self, index: int, state: HitState, source: int | None = None) -> None:
        """Record the state of vector ``index``.

        ``source`` is required for HIT entries and must point at an
        earlier vector.
        """
        if not 0 <= index < self.num_vectors:
            raise IndexError(f"vector index {index} out of range")
        if state is HitState.HIT:
            if source is None:
                raise ValueError("HIT entries need the source vector index")
            if not 0 <= source < index:
                raise ValueError("HIT source must be an earlier vector")
        self._states[index] = state
        self._source[index] = source

    def get(self, index: int) -> HitState:
        state = self._states[index]
        if state is None:
            raise KeyError(f"vector {index} has no Hitmap entry yet")
        return state

    def source(self, index: int) -> int | None:
        """For a HIT entry, the earlier vector whose result is reused."""
        return self._source[index]

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """Counts of each state (and of unmarked entries)."""
        result = {HitState.HIT: 0, HitState.MAU: 0, HitState.MNU: 0, None: 0}
        for state in self._states:
            result[state] += 1
        return result

    def hit_fraction(self) -> float:
        """Fraction of vectors marked HIT (reused computations)."""
        if self.num_vectors == 0:
            return 0.0
        return self.counts()[HitState.HIT] / self.num_vectors

    def __len__(self) -> int:
        return self.num_vectors
