"""Configuration for the MERCURY scheme."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MercuryConfig:
    """All tunables of the MERCURY design.

    Defaults follow the paper's chosen configuration: an initial 20-bit
    signature that grows as training converges, a 1024-entry 16-way
    MCACHE with no replacement, and adaptation thresholds ``K`` (loss
    plateau length before growing the signature) and ``T`` (consecutive
    costly batches before a layer's similarity detection is switched
    off).

    The reuse scope is the paper's and has no knobs: every layer reuses
    in the forward and the backward pass, backward reloads the forward
    signatures when the vector length matches (§III-C2), and a
    convolution hashes each input channel's ``k x k`` patches on their
    own (§III-B).  Only the stoppage policy switches detection off.
    """

    # --- Signature / RPQ ------------------------------------------------
    signature_bits: int = 20
    max_signature_bits: int = 64
    rpq_seed: int = 1234

    # --- MCACHE ---------------------------------------------------------
    mcache_entries: int = 1024
    mcache_ways: int = 16

    # --- Adaptation (§III-D) ---------------------------------------------
    # Increase signature length by one bit when the running loss changes
    # by less than ``loss_plateau_tolerance`` for ``plateau_iterations``
    # (the paper's K) consecutive iterations.
    plateau_iterations: int = 5
    loss_plateau_tolerance: float = 1e-3
    # Turn a layer's similarity detection off when signature cost
    # exceeds the saved cycles for ``stoppage_batches`` (the paper's T)
    # consecutive batches.
    stoppage_batches: int = 3
    adaptive_signature_length: bool = True
    adaptive_stoppage: bool = True

    # --- Accelerator ------------------------------------------------------
    dataflow: str = "row_stationary"
    num_pes: int = 168
    pipelined_signatures: bool = True
    asynchronous_pe_sets: bool = True

    def __post_init__(self):
        if self.signature_bits <= 0:
            raise ValueError("signature_bits must be positive")
        if self.signature_bits > self.max_signature_bits:
            raise ValueError("signature_bits cannot exceed max_signature_bits")
        if self.mcache_entries <= 0 or self.mcache_ways <= 0:
            raise ValueError("MCACHE entries and ways must be positive")
        if self.mcache_entries % self.mcache_ways != 0:
            raise ValueError("mcache_entries must be divisible by mcache_ways")
        if self.dataflow not in ("row_stationary", "weight_stationary",
                                 "input_stationary"):
            raise ValueError(f"unknown dataflow {self.dataflow!r}")

    def replace(self, **changes) -> "MercuryConfig":
        """Return a copy with the given fields changed."""
        from dataclasses import replace as dc_replace
        return dc_replace(self, **changes)
