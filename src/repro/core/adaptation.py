"""Adaptation policies (§III-D).

Two mechanisms keep MERCURY from hurting accuracy or performance as
training converges:

* **Signature length growth** — once the running training loss stops
  improving for ``K`` consecutive iterations, the signature is extended
  by one bit.  Longer signatures only merge vectors that are *more*
  similar, so accuracy impact shrinks while some reuse is given up.

* **Per-layer stoppage** — MERCURY analytically compares the cycles it
  spends generating signatures (``C_S``) against the cycles it saves by
  skipping dot products.  If signature generation costs more than it
  saves for ``T`` consecutive batches in a layer, similarity detection
  is turned off for that layer (the adaptivity plotted in Figure 14a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stats import LayerReuseStats


class SignatureLengthScheduler:
    """Grow the signature length when the loss plateaus."""

    def __init__(self, initial_bits: int = 20, max_bits: int = 64,
                 plateau_iterations: int = 5, tolerance: float = 1e-3):
        if initial_bits <= 0:
            raise ValueError("initial_bits must be positive")
        if max_bits < initial_bits:
            raise ValueError("max_bits must be >= initial_bits")
        if plateau_iterations <= 0:
            raise ValueError("plateau_iterations must be positive")
        self.bits = initial_bits
        self.max_bits = max_bits
        self.plateau_iterations = plateau_iterations
        self.tolerance = tolerance
        self._last_loss: float | None = None
        self._flat_count = 0
        self.growth_events: list[int] = []
        self._iteration = 0

    def observe_loss(self, loss: float) -> int:
        """Record one iteration's loss; returns the signature length to use."""
        self._iteration += 1
        if self._last_loss is not None:
            if abs(self._last_loss - loss) <= self.tolerance:
                self._flat_count += 1
            else:
                self._flat_count = 0
        self._last_loss = loss

        if self._flat_count >= self.plateau_iterations and self.bits < self.max_bits:
            self.bits += 1
            self.growth_events.append(self._iteration)
            self._flat_count = 0
        return self.bits


@dataclass
class _LayerStoppageState:
    costly_batches: int = 0
    disabled: bool = False


class SimilarityStoppage:
    """Per-layer switch that disables similarity detection when unprofitable.

    Cost accounting follows the paper (C_S vs C_B in §III-D): the
    signature-generation cost is the multiply-accumulate work spent
    producing signatures (each signature bit is a dot product of the
    input vector with one random filter), while the saving is the MAC
    work skipped by HIT vectors.  Both are expressed in MAC operations
    of the same PE array — the array maps either kind of dot product the
    same way — so they are directly comparable.  Pipelining reduces the
    effective signature cost by roughly half (Figure 8).
    """

    def __init__(self, stoppage_batches: int = 3,
                 pipelined_signatures: bool = True):
        if stoppage_batches <= 0:
            raise ValueError("stoppage_batches must be positive")
        self.stoppage_batches = stoppage_batches
        self.pipelined_signatures = pipelined_signatures
        self._layers: dict[str, _LayerStoppageState] = {}

    def _state(self, layer: str) -> _LayerStoppageState:
        if layer not in self._layers:
            self._layers[layer] = _LayerStoppageState()
        return self._layers[layer]

    # ------------------------------------------------------------------
    def signature_cost_cycles(self, *, num_vectors: int, vector_length: int,
                              signature_bits: int) -> float:
        """MAC-equivalent cost of generating signatures for one batch.

        Every signature bit is a length-``vector_length`` dot product
        with a random filter.  Without pipelining the PE set is busy for
        twice the multiply time of each bit (idle adder cycles,
        Figure 8a); the ORg pipelining recovers that factor of ~2.
        """
        macs_per_vector = signature_bits * vector_length
        total = num_vectors * macs_per_vector
        if self.pipelined_signatures:
            return float(total)
        return float(2 * total)

    def saved_cycles(self, *, hits: int, vector_length: int,
                     num_filters: int) -> float:
        """MAC work avoided by HIT vectors."""
        return float(hits * vector_length * num_filters)

    # ------------------------------------------------------------------
    def is_enabled(self, layer: str) -> bool:
        return not self._state(layer).disabled

    @staticmethod
    def key_for(layer: str, phase: str) -> str:
        """Stoppage bookkeeping key; forward and backward are independent."""
        return f"{layer}::{phase}"

    def observe_batch(self, stats: LayerReuseStats) -> bool:
        """Update the stoppage state after a batch; returns enabled flag."""
        state = self._state(self.key_for(stats.layer, stats.phase))
        if state.disabled:
            return False

        cost = self.signature_cost_cycles(
            num_vectors=stats.total_vectors,
            vector_length=stats.vector_length,
            signature_bits=stats.signature_bits)
        saved = self.saved_cycles(hits=stats.hits,
                                  vector_length=stats.vector_length,
                                  num_filters=stats.num_filters)

        if cost > saved:
            state.costly_batches += 1
        else:
            state.costly_batches = 0

        if state.costly_batches >= self.stoppage_batches:
            state.disabled = True
        return not state.disabled

    def is_enabled_for(self, layer: str, phase: str) -> bool:
        return self.is_enabled(self.key_for(layer, phase))

    def disabled_layers(self) -> list[str]:
        return [name for name, state in self._layers.items() if state.disabled]

    def force_disable(self, layer: str, phase: str = "forward") -> None:
        self._state(self.key_for(layer, phase)).disabled = True

    def reset(self) -> None:
        self._layers.clear()
