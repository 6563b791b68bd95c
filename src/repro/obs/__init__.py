"""Observability for the reuse stack: bus, metrics, audit, control.

A dependency-free telemetry layer threaded through serving *and*
training:

* :class:`~repro.obs.bus.EventBus` — typed events, bounded
  drop-counting subscriber queues; emission never blocks the hot path;
* :class:`~repro.obs.metrics.LogHistogram` /
  :class:`~repro.obs.metrics.MetricsRegistry` — mergeable log-bucketed
  percentile summaries, counters and gauges, rendered in the
  Prometheus text format on the HTTP ``/metrics`` endpoint;
* :class:`~repro.obs.recorder.AuditRecorder` — a versioned per-run
  manifest (config fingerprint, seed streams, per-window snapshots,
  controller decisions) persisted next to the cache snapshots;
* :class:`~repro.obs.controller.AdaptivePolicyController` — online
  TTL/admission/eviction (and optional signature-length) retuning
  from bus windows, with every decision audit-logged and reproducible
  via :func:`~repro.obs.controller.replay_decisions`.

The whole layer is opt-in and provably inert when off: a server built
without a :class:`Telemetry` handle takes the exact code paths it took
before this package existed, and golden replays stay byte-identical
with it on (events are emitted strictly off the decision path).
"""

from repro.obs.bus import DEFAULT_CAPACITY, Event, EventBus, Subscription
from repro.obs.controller import (AdaptivePolicyController,
                                  ControllerConfig, replay_decisions)
from repro.obs.metrics import (DEFAULT_GROWTH, METRIC_NAMES, LogHistogram,
                               MetricsCollector, MetricsRegistry)
from repro.obs.recorder import (AUDIT_FORMAT, AUDIT_MANIFEST,
                                AUDIT_VERSION, AuditRecorder,
                                read_manifest, render_manifest)


class Telemetry:
    """One run's observability bundle: bus + registry (+ audit/control).

    Hand an instance to :class:`~repro.serving.server.InferenceServer`
    (or the parallel server, or the trainer) to switch telemetry on.
    The bundle wires a metrics subscription onto its own bus and folds
    events into the registry whenever :meth:`pump` runs — at window
    boundaries, report time and every ``/metrics`` scrape — so the hot
    path only ever pays the bounded-queue append.
    """

    def __init__(self, *, audit_dir=None, controller=None,
                 window_batches: int = 4,
                 capacity: int = DEFAULT_CAPACITY, seeds=None):
        if window_batches <= 0:
            raise ValueError("window_batches must be positive")
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.collector = MetricsCollector(self.registry)
        self._metrics_sub = self.bus.subscribe(capacity=capacity,
                                               name="metrics")
        self.recorder = AuditRecorder(audit_dir) \
            if audit_dir is not None else None
        self.controller = controller
        self.window_batches = window_batches
        # Seed streams recorded into every audit manifest (e.g.
        # {"trace": 1, "pool": 0, "rpq": 1234}); purely declarative.
        self.seeds = dict(seeds) if seeds else {}

    def announce(self, kind: str, source: str, **payload) -> None:
        """Emit one lifecycle event and, with a recorder, audit it."""
        self.bus.emit(kind, source=source, **payload)
        if self.recorder is not None:
            self.recorder.record_event(kind, **payload)

    def pump(self) -> int:
        """Fold every queued event into the registry; returns how many."""
        return self.collector.drain(self._metrics_sub)

    def render_prometheus(self) -> str:
        """Pump, refresh the bus self-metrics, render ``/metrics``."""
        self.pump()
        stats = self.bus.stats()
        self.registry.set_gauge("repro_bus_events_total",
                                stats["emitted"])
        self.registry.set_gauge("repro_bus_dropped_total",
                                stats["dropped"])
        return self.registry.render_prometheus()

    def summary(self) -> dict:
        """Report-grade digest (rides on ``ServingReport.telemetry``)."""
        self.pump()
        return {
            "events": self.bus.emitted,
            "dropped": self.bus.dropped,
            "handled": self.collector.handled,
            "decisions": len(self.controller.decisions)
            if self.controller is not None else 0,
        }


__all__ = [
    "AUDIT_FORMAT",
    "AUDIT_MANIFEST",
    "AUDIT_VERSION",
    "AdaptivePolicyController",
    "AuditRecorder",
    "ControllerConfig",
    "DEFAULT_CAPACITY",
    "DEFAULT_GROWTH",
    "Event",
    "EventBus",
    "LogHistogram",
    "METRIC_NAMES",
    "MetricsCollector",
    "MetricsRegistry",
    "Subscription",
    "Telemetry",
    "read_manifest",
    "render_manifest",
    "replay_decisions",
]
