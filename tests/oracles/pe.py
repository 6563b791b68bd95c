"""Processing element model: a cycle-level twin of the analytic PE timing.

A MERCURY PE is the standard Eyeriss-style PE (input/weight registers,
multiplier, adder, input buffer) extended with the ORg register used to
pipeline signature calculation and, for the asynchronous design, a
second input buffer with valid / InUse / FlUse flags (Figure 11).

The class below is a small cycle-accurate model of one PE's MAC
pipeline.  No library code simulates a PE cycle by cycle; the tests use
it to check the PE timing the analytical formulas in
:mod:`repro.accelerator.signature_pipeline` assume (a fully pipelined
MAC, the ORg register's saved cycle) and the asynchronous buffer
handshake.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PEConfig:
    """Latency parameters of one PE (in cycles)."""

    multiply_latency: int = 1
    add_latency: int = 1
    mcache_read_latency: int = 1
    # Asynchronous design: number of input buffers per PE.
    input_buffers: int = 2

    def __post_init__(self):
        if self.multiply_latency <= 0 or self.add_latency <= 0:
            raise ValueError("latencies must be positive")
        if self.input_buffers not in (1, 2):
            raise ValueError("PEs have one (sync) or two (async) input buffers")


@dataclass
class InputBuffer:
    """One PE input buffer with its valid bit."""

    valid: bool = False
    contents: object = None

    def load(self, contents) -> None:
        self.contents = contents
        self.valid = True

    def release(self) -> None:
        self.contents = None
        self.valid = False


class ProcessingElement:
    """Cycle-level model of one PE's multiply/accumulate datapath.

    The model tracks the busy time of the multiplier and the adder
    separately so the ORg-register pipelining trick — which frees the
    adder one cycle earlier so it can forward the row partial sum — can
    be represented faithfully.
    """

    def __init__(self, config: PEConfig | None = None):
        self.config = config or PEConfig()
        self.cycle = 0
        self.mac_count = 0
        self.org_register = None
        self.input_buffers = [InputBuffer() for _ in range(self.config.input_buffers)]
        self.in_use = 0   # which input buffer feeds the datapath (InUse)
        self.fl_use = 0   # which shared filter this PE works on (FlUse)
        self.busy = False

    # ------------------------------------------------------------------
    def multiply_accumulate(self, count: int = 1) -> int:
        """Advance time for ``count`` back-to-back MAC operations."""
        if count < 0:
            raise ValueError("count must be non-negative")
        latency = self.config.multiply_latency + self.config.add_latency - 1
        if count == 0:
            return self.cycle
        # Fully pipelined MAC: first result after `latency`, then 1/cycle.
        self.cycle += latency + (count - 1)
        self.mac_count += count
        return self.cycle

    def row_dot_product(self, row_length: int, use_org: bool = False) -> int:
        """Cycles to multiply-accumulate one row of an input vector.

        Without the ORg register the adder is busy accumulating the row
        until one cycle after the final multiply; with ORg the first
        product of the *next* row is parked in ORg, freeing the adder to
        forward the partial sum immediately (§III-B2).
        """
        if row_length <= 0:
            raise ValueError("row_length must be positive")
        cycles = row_length + 1  # multiplies plus final accumulate
        if use_org:
            cycles -= 1
        self.cycle += cycles
        self.mac_count += row_length
        return self.cycle

    # ------------------------------------------------------------------
    def load_input(self, contents, buffer_index: int | None = None) -> int:
        """Load new input rows into a free buffer; returns the buffer used."""
        if buffer_index is None:
            free = [i for i, b in enumerate(self.input_buffers) if not b.valid]
            if not free:
                raise RuntimeError("no free input buffer (PE would stall)")
            buffer_index = free[0]
        self.input_buffers[buffer_index].load(contents)
        return buffer_index

    def switch_input(self) -> None:
        """Flip InUse to the other buffer (asynchronous design)."""
        if self.config.input_buffers != 2:
            raise RuntimeError("switch_input requires the two-buffer PE")
        self.input_buffers[self.in_use].release()
        self.in_use = 1 - self.in_use
        if not self.input_buffers[self.in_use].valid:
            raise RuntimeError("switched to an empty input buffer")

    def reset(self) -> None:
        self.cycle = 0
        self.mac_count = 0
        self.org_register = None
        for buffer in self.input_buffers:
            buffer.release()
        self.in_use = 0
        self.fl_use = 0
        self.busy = False
