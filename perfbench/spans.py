"""Spans recorded from outside the program, around repro's public calls.

The benchmark never edits ``repro``: :meth:`Tracer.patch` registers a
timing wrapper for one attribute (a bound method, a module-level
function or a static method), :meth:`Tracer.install` swaps every
registered wrapper in and :meth:`Tracer.uninstall` puts the originals
back, so traced and untraced work can alternate in one process.

Spans nest on one stack (every wrapped call is synchronous, including
the ones made from inside the serving event loop).  A span's *self*
time is its duration minus the time its child spans cover.  Spans are
grouped into *units* — one training step or one serving micro-batch —
whose root span is not a layer: the share of a unit's wall clock that
its layer spans cover is :meth:`Tracer.coverage`.  The first spans are
also kept as Chrome trace events (plain JSON, opens in Perfetto).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Unit:
    """Per-layer sums of one unit: ``layers[name] = [self_ns, incl_ns,
    calls]``; ``counts`` holds what the count hooks recorded."""

    __slots__ = ("kind", "wall_ns", "layers", "counts")

    def __init__(self, kind: str):
        self.kind = kind
        self.wall_ns = 0
        self.layers: dict[str, list] = {}
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Nanosecond spans with self time, grouped into units."""

    def __init__(self, event_limit: int = 40_000):
        self._patches: list = []
        self._seen: set = set()
        self._installed = False
        # Open spans: [layer, label, start_ns, child_ns].
        self._stack: list = []
        self._unit: Unit | None = None
        self.units: list[Unit] = []
        # Spans outside any unit (request routing): inclusive ns per call.
        self.loose: dict[str, list] = defaultdict(list)
        # (layer, label) -> [self_ns, incl_ns, calls] over every unit;
        # the label is a model ``layer_name`` inherited by child spans.
        self.by_label: dict[tuple, list] = defaultdict(lambda: [0, 0, 0])
        self.events: list = []
        self.event_limit = event_limit
        self._origin = time.perf_counter_ns()

    # -- span stack ------------------------------------------------------
    def _enter(self, layer: str, label) -> None:
        if label is None and self._stack:
            label = self._stack[-1][1]
        self._stack.append([layer, label, time.perf_counter_ns(), 0])

    def _exit(self) -> int:
        end = time.perf_counter_ns()
        layer, label, start, child = self._stack.pop()
        duration = end - start
        own = duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        # A layer re-entered from inside itself (a container's forward
        # calling its children's) counts its inclusive time and its
        # calls once, at the outermost span.
        outermost = parent is None or parent[0] != layer
        unit = self._unit
        if unit is not None:
            sums = unit.layers.get(layer)
            if sums is None:
                sums = unit.layers[layer] = [0, 0, 0]
            sums[0] += own
            if outermost:
                sums[1] += duration
                sums[2] += 1
            if label is not None:
                entry = self.by_label[(layer, label)]
                entry[0] += own
                if outermost:
                    entry[1] += duration
                    entry[2] += 1
        elif outermost:
            self.loose[layer].append(duration)
        if len(self.events) < self.event_limit:
            self.events.append({
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "ts": (start - self._origin) / 1e3, "dur": duration / 1e3,
                "pid": 1, "tid": 1,
                "args": {"label": label} if label is not None else {}})
        return duration

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span (for count hooks)."""
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the open unit (ignored outside units)."""
        if self._unit is not None:
            self._unit.counts[name] += value

    @contextmanager
    def unit(self, kind: str):
        """One training step or serving batch; its root span is ``kind``."""
        if self._unit is not None:
            raise RuntimeError(f"unit {kind!r} opened inside "
                               f"{self._unit.kind!r}")
        unit = self._unit = Unit(kind)
        self._enter(kind, None)
        try:
            yield unit
        finally:
            unit.wall_ns = self._exit()
            self._unit = None
            self.units.append(unit)

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, layer: str | None = None, *,
              label=None, label_kw: str | None = None, on_result=None,
              unit_kind=None, on_call=None) -> None:
        """Register a wrapper for ``owner.attr``.

        ``label`` names the model layer the span belongs to, or
        ``label_kw`` the keyword argument that carries it.
        ``on_result(tracer, args, kwargs, result)`` records counts after
        the call.  With ``unit_kind`` (a callable returning the kind)
        the wrapper opens a unit instead of a plain span, and
        ``on_call(tracer, args, kwargs)`` runs first inside it.
        Registering the same attribute twice is a no-op.
        """
        key = (id(owner), attr)
        if key in self._seen:
            return
        self._seen.add(key)
        own = getattr(owner, "__dict__", {})
        raw = own.get(attr) if attr in own else None
        target = getattr(owner, attr)
        tracer = self

        if unit_kind is not None:
            def wrapper(*args, **kwargs):
                with tracer.unit(unit_kind()):
                    if on_call is not None:
                        on_call(tracer, args, kwargs)
                    result = target(*args, **kwargs)
                    if on_result is not None:
                        on_result(tracer, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                tracer._enter(layer, kwargs.get(label_kw) if label_kw
                              else label)
                try:
                    result = target(*args, **kwargs)
                finally:
                    tracer._exit()
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result

        replacement = staticmethod(wrapper) \
            if isinstance(raw, staticmethod) else wrapper
        self._patches.append((owner, attr, raw, attr in own, replacement))
        if self._installed:
            setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, _raw, _owned, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, raw, owned, _replacement in reversed(self._patches):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._installed = False

    @contextmanager
    def installed(self, on: bool = True):
        """Run the block with every wrapper in place (when ``on``)."""
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------
    def units_of(self, prefix: str) -> list[Unit]:
        return [unit for unit in self.units if unit.kind.startswith(prefix)]

    def per_unit(self, prefix: str, layer: str, field: int = 0) -> list:
        """Milliseconds of ``layer`` per unit (field 0 = self, 1 = incl)."""
        return [unit.layers.get(layer, (0, 0, 0))[field] / 1e6
                for unit in self.units_of(prefix)]

    def per_unit_count(self, prefix: str, name: str) -> list:
        return [unit.counts.get(name, 0.0) for unit in self.units_of(prefix)]

    def mean_ms(self, prefix: str, layer: str, field: int = 0) -> float:
        """Mean milliseconds of ``layer`` per unit: unlike medians, the
        layers' means add up to the units' mean."""
        values = self.per_unit(prefix, layer, field)
        return sum(values) / len(values) if values else 0.0

    def mean_count(self, prefix: str, name: str) -> float:
        values = self.per_unit_count(prefix, name)
        return sum(values) / len(values) if values else 0.0

    def total_count(self, prefix: str, name: str) -> float:
        return float(sum(self.per_unit_count(prefix, name)))

    def coverage(self, prefix: str) -> float:
        """Share of the units' wall clock covered by layer spans: one
        minus the roots' own self time over the roots' duration."""
        wall = root = 0
        for unit in self.units_of(prefix):
            wall += unit.wall_ns
            root += unit.layers[unit.kind][0]
        return 1.0 - root / wall if wall else 0.0

    def layer_names(self, prefix: str) -> list[str]:
        names: set = set()
        for unit in self.units_of(prefix):
            names.update(unit.layers)
        return sorted(names)

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, handle)
