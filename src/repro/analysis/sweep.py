"""Scenario sweep runner: models x dataflows x MCACHE organisations.

Layered on top of the batch simulation engine, this module expands a
grid of scenarios into :class:`SweepPoint` records, evaluates each one
with the paper-scale cycle model (hit rates adjusted for the MCACHE
geometry by simulating a representative layer trace on the vectorized
engine) and aggregates the rows into a JSON-serialisable
:class:`SweepResults`.

``run_sweep`` fans the grid out over a ``multiprocessing`` pool — the
points are independent, so the sweep scales with cores — and falls back
to in-process evaluation for tiny grids or ``processes=0``.

Typical use (see also ``examples/sweep_all.py``)::

    from repro.analysis.sweep import build_grid, run_sweep

    points = build_grid(models=["vgg13", "resnet50"],
                        dataflows=["row_stationary", "weight_stationary"],
                        organizations=[(512, 8), (1024, 16)])
    results = run_sweep(points, processes=4)
    results.save("sweep.json")
    print(results.summary())
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from repro.accelerator.dataflow import make_dataflow
from repro.accelerator.mercury_sim import MercurySimulator
from repro.accelerator.workloads import build_workload, workload_to_stats
from repro.analysis.grid import (GridResults, expand_grid,
                                point_row, run_grid)
from repro.core.config import MercuryConfig
from repro.core.hitmap_sim import simulate_hitmap

# Result-row schema: every dict produced by evaluate_point carries at
# least these keys (asserted by tests/test_bench_smoke.py).
RESULT_KEYS = frozenset({
    "model", "dataflow", "mcache_entries", "mcache_ways", "signature_bits",
    "baseline_cycles", "mercury_cycles", "signature_cycles", "compute_cycles",
    "speedup", "signature_fraction", "layers_on", "layers_off",
    "hit_scale", "hit_scale_raw", "elapsed_s",
})

DEFAULT_ORGANIZATIONS = ((512, 8), (1024, 16), (2048, 16))
REFERENCE_ORGANIZATION = (1024, 16)   # the paper's chosen MCACHE


@dataclass(frozen=True)
class SweepPoint:
    """One scenario: a model on a dataflow with an MCACHE organisation."""

    model: str
    dataflow: str = "row_stationary"
    mcache_entries: int = 1024
    mcache_ways: int = 16
    signature_bits: int = 20


def build_grid(models, dataflows=("row_stationary",),
               organizations=(REFERENCE_ORGANIZATION,),
               signature_bits=(20,)) -> list[SweepPoint]:
    """Cross product of the four scenario axes, in deterministic order."""
    combos = expand_grid({"model": models, "dataflow": dataflows,
                          "organization": organizations,
                          "signature_bits": signature_bits})
    return [SweepPoint(model=combo["model"], dataflow=combo["dataflow"],
                       mcache_entries=combo["organization"][0],
                       mcache_ways=combo["organization"][1],
                       signature_bits=combo["signature_bits"])
            for combo in combos]


@lru_cache(maxsize=None)
def _achieved_hit_fraction(entries: int, ways: int, num_vectors: int,
                           unique_signatures: int, seed: int) -> float:
    """Hit fraction of one organisation on a synthetic layer trace.

    The trace draws ``num_vectors`` probes from ``unique_signatures``
    random signature values — the arrival pattern of a convolution
    layer with the paper's measured similarity — and classifies it with
    the signature-phase core.  Deterministic in all arguments (and cached, so
    the reference organisation is simulated once per process).
    """
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << 20, size=max(unique_signatures, 1))
    trace = rng.choice(pool, size=num_vectors)
    num_sets, remainder = divmod(entries, ways)
    if remainder:
        raise ValueError("entries must be divisible by ways")
    return simulate_hitmap(trace, num_sets, ways).hits / num_vectors


def measure_hit_scale(entries: int, ways: int, num_vectors: int = 12544,
                      base_hit_fraction: float = 0.65,
                      seed: int = 7) -> float:
    """Relative hit rate of an MCACHE organisation vs the paper default.

    Mirrors the Figure 16 methodology: the same trace is replayed on the
    candidate and the reference (1024-entry, 16-way) organisation and
    the achieved hit fractions are ratioed, yielding the factor by which
    the workload's similarity profile is scaled.
    """
    unique = max(1, round(num_vectors * (1.0 - base_hit_fraction)))
    candidate = _achieved_hit_fraction(entries, ways, num_vectors, unique,
                                       seed)
    reference = _achieved_hit_fraction(*REFERENCE_ORGANIZATION, num_vectors,
                                       unique, seed)
    if reference == 0.0:
        return 1.0
    return candidate / reference


def evaluate_point(point: SweepPoint) -> dict:
    """Evaluate one scenario; returns a JSON-safe result row."""
    start = time.perf_counter()
    config = MercuryConfig(signature_bits=point.signature_bits,
                           mcache_entries=point.mcache_entries,
                           mcache_ways=point.mcache_ways,
                           dataflow=point.dataflow)
    raw_hit_scale = measure_hit_scale(point.mcache_entries, point.mcache_ways)
    # Clamp like Figure 16: organisations beyond the reference cannot
    # scale similarity indefinitely.  The row records the applied value.
    hit_scale = min(raw_hit_scale, 1.2)
    workload = build_workload(point.model,
                              signature_bits=point.signature_bits,
                              hit_scale=hit_scale)
    stats = workload_to_stats(workload)
    simulator = MercurySimulator(config,
                                 dataflow=make_dataflow(point.dataflow))
    report = simulator.simulate(stats, point.model,
                                apply_analytic_stoppage=True)
    row = point_row(point, {**report.to_dict(), "hit_scale": hit_scale,
                            "hit_scale_raw": raw_hit_scale},
                    started=start)
    return row


@dataclass
class SweepResults(GridResults):
    """Aggregated cycle-model rows with JSON persistence and summaries."""

    schema: ClassVar[str] = "cycle-sweep"
    result_keys: ClassVar[frozenset] = RESULT_KEYS

    # -- summaries ------------------------------------------------------
    def geomean_speedup(self, **filters) -> float:
        """Geometric-mean speedup over rows matching ``filters``."""
        return self.geomean("speedup", **filters)

    def best_per_model(self) -> dict[str, dict]:
        """Highest-speedup row for each model."""
        best: dict[str, dict] = {}
        for row in self.rows:
            current = best.get(row["model"])
            if current is None or row["speedup"] > current["speedup"]:
                best[row["model"]] = row
        return best

    def summary(self) -> dict:
        """Per-dataflow geomeans plus the overall best configurations."""
        dataflows = sorted({row["dataflow"] for row in self.rows})
        return {
            **self.base_summary(),
            "geomean_by_dataflow": {name: self.geomean_speedup(dataflow=name)
                                    for name in dataflows},
            "best_per_model": {model: {"dataflow": row["dataflow"],
                                       "mcache_entries": row["mcache_entries"],
                                       "mcache_ways": row["mcache_ways"],
                                       "speedup": row["speedup"]}
                               for model, row in self.best_per_model().items()},
        }


def run_sweep(points, processes: int | None = None) -> SweepResults:
    """Evaluate a grid of scenarios, in parallel when it pays off.

    ``processes=0`` (or a single-point grid) evaluates in-process;
    otherwise a ``multiprocessing`` pool of ``processes`` workers
    (default: all cores, capped at the number of points) maps over the
    grid.
    """
    rows, elapsed = run_grid(points, evaluate_point, processes=processes)
    return SweepResults(rows=rows, elapsed_s=elapsed)
