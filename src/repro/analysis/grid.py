"""Shared grid-execution machinery for the sweep runners.

Both sweep families — the analytic cycle-model sweep
(:mod:`repro.analysis.sweep`) and the functional training-accuracy
sweep (:mod:`repro.analysis.functional_sweep`) — are shaped the same
way: expand a cross product of scenario axes into frozen point records,
evaluate every point independently (optionally over a
``multiprocessing`` pool) and aggregate the JSON-safe result rows into
a persistable results object.  This module holds that common shape:

* :func:`expand_grid` — deterministic cross-product expansion;
* :func:`run_grid` — the fan-out executor with an in-process fallback;
* :func:`point_row` — the shared result-row assembly (the point's
  scenario axes + the measured metrics + ``elapsed_s``), so no sweep
  family hand-rolls its envelope fields;
* :class:`GridResults` — the base results container with the shared
  JSON envelope (``{"schema": ..., "elapsed_s": ..., "rows": [...]}``),
  filtering, geometric-mean and summary-envelope helpers.

Subclasses set two class attributes: ``schema`` (the marker written
into and checked against the JSON envelope, so a cycle-sweep file is
not silently loaded as a functional sweep) and ``result_keys`` (the
minimum key set every row must carry — the contract the smoke tests
assert).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Mapping

import numpy as np

from repro.durable import commit


def expand_grid(axes: Mapping[str, Iterable]) -> list[dict]:
    """Cross product of the given axes, in deterministic order.

    The first axis varies slowest (outermost loop), matching the row
    order both sweep runners have always produced.  Axis values are
    materialised once, so generators are accepted.
    """
    names = list(axes)
    values = [list(axes[name]) for name in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*values)]


def run_grid(points, evaluate: Callable[[object], dict],
             processes: int | None = None) -> tuple[list[dict], float]:
    """Evaluate every point; returns ``(rows, elapsed_seconds)``.

    ``processes=0`` (or a single-point grid) evaluates in-process;
    otherwise a ``multiprocessing`` pool of ``processes`` workers
    (default: all cores, capped at the number of points) maps over the
    grid.  ``evaluate`` must be a picklable module-level callable and
    rows come back in grid order either way.
    """
    points = list(points)
    start = time.perf_counter()
    if processes == 0 or len(points) <= 1:
        rows = [evaluate(point) for point in points]
    else:
        workers = min(processes or multiprocessing.cpu_count(),
                      max(len(points), 1))
        with multiprocessing.Pool(processes=workers) as pool:
            rows = pool.map(evaluate, points)
    return rows, time.perf_counter() - start


def point_row(point, metrics: Mapping, *,
              started: float | None = None) -> dict:
    """Assemble one result row: scenario axes + measured metrics.

    ``point`` is a frozen point dataclass (or a plain mapping); its
    fields become the row's axis columns, ``metrics`` the measurement
    columns, and — when ``started`` carries a ``time.perf_counter()``
    origin — ``elapsed_s`` closes the envelope.  Every sweep family
    builds its rows through here so the envelope contract
    (axes ∪ metrics ⊇ ``result_keys``) has a single implementation.
    """
    row = dict(dataclasses.asdict(point)) \
        if dataclasses.is_dataclass(point) else dict(point)
    row.update(metrics)
    if started is not None:
        row["elapsed_s"] = time.perf_counter() - started
    return row


@dataclass
class GridResults:
    """Aggregated sweep rows with JSON persistence and row queries."""

    rows: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    # Overridden by subclasses; ``load`` enforces the schema marker.
    schema: ClassVar[str] = "grid"
    result_keys: ClassVar[frozenset] = frozenset()

    def __len__(self) -> int:
        return len(self.rows)

    # -- persistence ----------------------------------------------------
    def _envelope(self) -> dict:
        return {"schema": self.schema, "elapsed_s": self.elapsed_s,
                "rows": self.rows}

    def to_json(self) -> str:
        return json.dumps(self._envelope(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        commit(Path(path).parent, Path(path).name, self._envelope())

    @classmethod
    def load(cls, path) -> "GridResults":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # Files written before the schema marker existed load as-is;
        # a *different* marker means the wrong results class was used.
        found = payload.get("schema", cls.schema)
        if found != cls.schema:
            raise ValueError(
                f"{path} holds {found!r} results, not {cls.schema!r}")
        return cls(rows=payload["rows"], elapsed_s=payload["elapsed_s"])

    # -- summaries ------------------------------------------------------
    def base_summary(self) -> dict:
        """The summary fields every results family shares."""
        return {"points": len(self.rows), "elapsed_s": self.elapsed_s}

    def column_mean(self, column: str) -> float:
        return float(np.mean([row[column] for row in self.rows]))

    def column_max(self, column: str) -> float:
        return float(max(row[column] for row in self.rows))

    def grouped_mean(self, group_by: str, column: str) -> dict[str, float]:
        """Mean of ``column`` per distinct value of ``group_by``."""
        groups: dict[str, list[float]] = {}
        for row in self.rows:
            groups.setdefault(row[group_by], []).append(row[column])
        return {key: float(np.mean(values))
                for key, values in groups.items()}

    # -- row queries ----------------------------------------------------
    def matching_rows(self, **filters) -> list[dict]:
        """Rows whose values equal every ``filters`` entry."""
        return [row for row in self.rows
                if all(row[key] == value for key, value in filters.items())]

    def geomean(self, column: str, **filters) -> float:
        """Geometric mean of ``column`` over rows matching ``filters``."""
        values = [row[column] for row in self.matching_rows(**filters)]
        if not values:
            raise ValueError(f"no rows match {filters!r}")
        return float(np.exp(np.mean(np.log(values))))
