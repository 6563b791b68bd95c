"""The enum Hitmap: one ``HitState`` object per vector.

Production carries the Hitmap as the dense ``int8`` codes of
:mod:`repro.core.hitmap` inside one
:class:`~repro.core.hitmap_sim.HitmapSimulation` per frame.  This is
the obviously-right view the line-level :class:`~tests.oracles.mcache.MCache`
speaks: a :class:`HitState` per entry, a validated :class:`Hitmap`
object, the converters between the two vocabularies, and the per-group
views of an interleaved frame.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE


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

    @classmethod
    def from_simulation(cls, simulation) -> "Hitmap":
        """The enum view of a production ``HitmapSimulation``, entry by
        entry through :meth:`set` (so every HIT's source is validated)."""
        hitmap = cls(len(simulation.states))
        for index, (code, source) in enumerate(zip(
                simulation.states.tolist(),
                simulation.representative.tolist())):
            state = CODE_TO_STATE[code]
            hitmap.set(index, state,
                       source if state is HitState.HIT else None)
        return hitmap

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


def group_states(simulation, groups: int, group: int) -> np.ndarray:
    """Group ``group``'s codes in an interleaved frame of ``groups``."""
    return simulation.states[group::groups]


def group_representative(simulation, groups: int,
                         group: int) -> np.ndarray:
    """Group ``group``'s representatives as rows of the group itself."""
    return simulation.representative[group::groups] // groups


def group_views(simulation, groups: int) -> list:
    """Every group's ``(states, representative)`` view, in group order."""
    return [(group_states(simulation, groups, group),
             group_representative(simulation, groups, group))
            for group in range(groups)]
