"""Streaming metrics: mergeable log-bucketed histograms + a registry.

:class:`LogHistogram` is the bounded distribution summary behind the
serving percentiles: values land in geometric buckets
``[growth**i, growth**(i+1))``, so any quantile read is exact in rank
and off by at most one bucket in value — a *relative* error bound of
``growth`` that holds at any stream length (unlike a fixed-size
reservoir, whose sampling error grows with the stream).  Bucket counts
are plain integers keyed by bucket index, which makes ``merge`` exact,
associative and commutative — shard histograms merge into the same
counts a single stream would produce (property-tested).

:class:`MetricsRegistry` holds named counters, gauges and histograms
(with optional labels) and renders the Prometheus text exposition
format for the HTTP ``/metrics`` endpoint.  The canonical metric
vocabulary — shared by the serving stack *and* the trainer, so both
speak the same names — lives in :data:`METRIC_NAMES`.

:class:`MetricsCollector` folds :class:`~repro.obs.bus.EventBus`
events into a registry; it is the only place event kinds are mapped to
metric names, so in-process shards and forwarded worker events produce
identical registries (the parallel-parity test pins this).
"""

from __future__ import annotations

import math

#: Default geometric bucket growth: ~9.6%-wide buckets, so quantiles
#: read from the histogram are within <10% relative error of the exact
#: stream quantile — at 50 k samples as at 50 M.
DEFAULT_GROWTH = 2.0 ** (1.0 / 7.5)

# ----------------------------------------------------------------------
# Canonical metric vocabulary (one naming scheme for trainer + server)
# ----------------------------------------------------------------------
#: name -> (type, help).  ``phase`` labels distinguish the producers:
#: ``phase="serving"`` (request/vector caches) vs ``phase="training"``
#: (the per-layer-flushed reuse engine) — same names, one vocabulary.
METRIC_NAMES = {
    "repro_reuse_requests_total":
        ("counter", "Rows offered to a reuse cache"),
    "repro_reuse_hits_total":
        ("counter", "Rows served from a reuse cache"),
    "repro_reuse_cross_hits_total":
        ("counter", "Rows reused across batches (persistent hits)"),
    "repro_reuse_intra_hits_total":
        ("counter", "Rows deduplicated within one batch"),
    "repro_reuse_computed_total":
        ("counter", "Rows that fell through to the model"),
    "repro_reuse_inserted_total":
        ("counter", "Rows admitted into a cache"),
    "repro_reuse_rejected_total":
        ("counter", "Rows refused by capacity or admission policy"),
    "repro_reuse_expired_total":
        ("counter", "Cache lines invalidated by TTL"),
    "repro_reuse_collisions_total":
        ("counter", "Signature matches rejected by the exact check"),
    "repro_reuse_evicted_total":
        ("counter", "Cache lines displaced by the eviction policy"),
    "repro_reuse_replicated_total":
        ("counter", "Rows pushed to peer shards by hot-key replication"),
    "repro_reuse_hit_rate":
        ("gauge", "Lifetime hit fraction of the reuse caches"),
    "repro_reuse_flash_clears_total":
        ("counter", "MCACHE clears (training's per-layer flushes and "
                    "controller-triggered serving cache flushes)"),
    "repro_reuse_signature_bits":
        ("gauge", "Active RPQ signature length"),
    "repro_serving_requests_total":
        ("counter", "Requests served (rows through shard batches)"),
    "repro_serving_batches_total":
        ("counter", "Micro-batches executed"),
    "repro_serving_batch_size":
        ("histogram", "Rows per executed micro-batch"),
    "repro_serving_latency_seconds":
        ("histogram", "Per-request serve latency"),
    "repro_serving_shard_requests":
        ("gauge", "Requests routed to one shard"),
    "repro_serving_shard_balance":
        ("gauge", "Max/mean request load across shards (1.0 = even)"),
    "repro_serving_recoveries_total":
        ("counter", "Worker respawns performed by the supervisor"),
    "repro_serving_snapshot_writes_total":
        ("counter", "Cache snapshots persisted"),
    "repro_serving_snapshot_restores_total":
        ("counter", "Cache snapshots restored"),
    "repro_l2_hits_total":
        ("counter", "Shared-L2 lookups served from the store"),
    "repro_l2_misses_total":
        ("counter", "Shared-L2 lookups that missed"),
    "repro_l2_inserts_total":
        ("counter", "Rows written through to the shared L2"),
    "repro_l2_flushes_total":
        ("counter", "Shared-L2 stores persisted to disk"),
    "repro_l2_loads_total":
        ("counter", "Shared-L2 stores loaded from disk"),
    "repro_router_hot_key_promotions_total":
        ("counter", "Signatures promoted to the replicated set"),
    "repro_controller_decisions_total":
        ("counter", "Adaptive-policy decisions applied"),
    "repro_training_epochs_total":
        ("counter", "Training epochs completed"),
    "repro_training_loss":
        ("gauge", "Last epoch's mean training loss"),
    "repro_training_accuracy":
        ("gauge", "Last epoch's training accuracy"),
    "repro_bus_events_total":
        ("counter", "Events emitted on the telemetry bus"),
    "repro_bus_dropped_total":
        ("counter", "Events dropped by bounded subscriber queues"),
}


class LogHistogram:
    """Mergeable log-bucketed histogram of a positive value stream.

    A value ``v > 0`` lands in bucket ``floor(log(v)/log(growth))`` —
    a pure function of the value, so identical streams bucket
    identically no matter how they are split across shards, and merge
    is exact integer addition (associative + commutative).  Non-
    positive values are counted in a dedicated zero bucket.  Exact
    ``count``/``sum``/``min``/``max`` ride along; quantiles report the
    geometric midpoint of the selected bucket, clamped to the observed
    range.
    """

    __slots__ = ("growth", "_log_growth", "buckets", "zeros", "count",
                 "total", "min", "max")

    def __init__(self, growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError("growth must exceed 1.0")
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        return math.floor(math.log(value) / self._log_growth)

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # -- merging --------------------------------------------------------
    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold another histogram in (in place); returns ``self``."""
        if not isinstance(other, LogHistogram):
            raise TypeError("can only merge another LogHistogram")
        if other.growth != self.growth:
            raise ValueError("cannot merge histograms with different "
                             "bucket growth")
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @classmethod
    def merged(cls, histograms) -> "LogHistogram":
        histograms = list(histograms)
        growth = histograms[0].growth if histograms else DEFAULT_GROWTH
        result = cls(growth)
        for histogram in histograms:
            result.merge(histogram)
        return result

    # -- reading --------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The value at quantile ``q`` (nearest rank, bucket midpoint).

        Within a factor of :attr:`growth` of the exact stream
        percentile — the bucket-width error bound the regression suite
        pins against the exact/reservoir oracles.
        """
        if not self.count:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q / 100.0 * self.count)))
        cumulative = self.zeros
        if rank <= cumulative:
            return max(0.0, self.min)
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if rank <= cumulative:
                midpoint = self.growth ** (index + 0.5)
                return float(min(self.max, max(self.min, midpoint)))
        return float(self.max)  # pragma: no cover — rank <= count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state(self) -> tuple:
        """Merge-order-independent identity (for equality assertions)."""
        return (self.growth, self.zeros, self.count,
                tuple(sorted(self.buckets.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, LogHistogram) \
            and self.state() == other.state()

    def __hash__(self):  # pragma: no cover — not used as a key
        return hash(self.state())

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> dict:
        return {
            "growth": self.growth,
            "zeros": self.zeros,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(index): bucket_count
                        for index, bucket_count in sorted(
                            self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogHistogram":
        histogram = cls(payload.get("growth", DEFAULT_GROWTH))
        histogram.zeros = int(payload.get("zeros", 0))
        histogram.count = int(payload.get("count", 0))
        histogram.total = float(payload.get("total", 0.0))
        histogram.min = math.inf if payload.get("min") is None \
            else float(payload["min"])
        histogram.max = -math.inf if payload.get("max") is None \
            else float(payload["max"])
        histogram.buckets = {int(index): int(bucket_count)
                             for index, bucket_count in
                             payload.get("buckets", {}).items()}
        return histogram


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class MetricsRegistry:
    """Named counters, gauges and histograms with optional labels."""

    def __init__(self):
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, LogHistogram] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted((str(key), str(value))
                                   for key, value in labels.items())))

    # -- writing --------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = self._key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[self._key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name, **labels).record(value)

    def histogram(self, name: str, **labels) -> LogHistogram:
        key = self._key(name, labels)
        if key not in self._histograms:
            self._histograms[key] = LogHistogram()
        return self._histograms[key]

    # -- reading --------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        return self._counters.get(self._key(name, labels), 0.0)

    def gauge(self, name: str, **labels) -> float:
        return self._gauges.get(self._key(name, labels), 0.0)

    def counters_dict(self) -> dict[str, float]:
        return {name + _label_suffix(labels): value
                for (name, labels), value in sorted(self._counters.items())}

    def gauges_dict(self) -> dict[str, float]:
        return {name + _label_suffix(labels): value
                for (name, labels), value in sorted(self._gauges.items())}

    def histograms_dict(self) -> dict[str, LogHistogram]:
        return {name + _label_suffix(labels): histogram
                for (name, labels), histogram in
                sorted(self._histograms.items())}

    def state(self) -> dict:
        """Comparable full state (the parity test's equality basis)."""
        return {
            "counters": self.counters_dict(),
            "gauges": self.gauges_dict(),
            "histograms": {series: histogram.state() for series, histogram
                           in self.histograms_dict().items()},
        }

    # -- Prometheus text exposition ------------------------------------
    def render_prometheus(self) -> str:
        """The ``/metrics`` payload (text format 0.0.4)."""
        lines: list[str] = []
        seen_headers: set[str] = set()

        def header(name: str, default_type: str) -> None:
            if name in seen_headers:
                return
            seen_headers.add(name)
            metric_type, help_text = METRIC_NAMES.get(
                name, (default_type, name.replace("_", " ")))
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric_type}")

        for (name, labels), value in sorted(self._counters.items()):
            header(name, "counter")
            lines.append(f"{name}{_label_suffix(labels)} {value:g}")
        for (name, labels), value in sorted(self._gauges.items()):
            header(name, "gauge")
            lines.append(f"{name}{_label_suffix(labels)} {value:g}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            header(name, "histogram")
            cumulative = histogram.zeros
            if cumulative:
                bucket_labels = dict(labels)
                bucket_labels["le"] = "0"
                lines.append(f"{name}_bucket"
                             f"{_label_suffix(tuple(sorted(bucket_labels.items())))}"
                             f" {cumulative}")
            for index in sorted(histogram.buckets):
                cumulative += histogram.buckets[index]
                edge = histogram.growth ** (index + 1)
                bucket_labels = dict(labels)
                bucket_labels["le"] = f"{edge:.6g}"
                lines.append(f"{name}_bucket"
                             f"{_label_suffix(tuple(sorted(bucket_labels.items())))}"
                             f" {cumulative}")
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(f"{name}_bucket"
                         f"{_label_suffix(tuple(sorted(inf_labels.items())))}"
                         f" {histogram.count}")
            lines.append(f"{name}_sum{_label_suffix(labels)} "
                         f"{histogram.total:g}")
            lines.append(f"{name}_count{_label_suffix(labels)} "
                         f"{histogram.count}")
        return "\n".join(lines) + "\n"


class MetricsCollector:
    """Fold bus events into a :class:`MetricsRegistry`.

    One mapping from event kinds to canonical metric names — shared by
    the in-process server, the parallel supervisor (which re-emits
    forwarded worker events) and the trainer, so every producer builds
    the same registry from the same traffic.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        self.handled = 0
        self._shard_requests: dict[str, int] = {}

    # -- event dispatch -------------------------------------------------
    def handle(self, event) -> None:
        self.handled += 1
        handler = getattr(self, "_on_" + event.kind.replace(".", "_"),
                          None)
        if handler is not None:
            handler(event)

    def drain(self, subscription) -> int:
        events = subscription.drain()
        for event in events:
            self.handle(event)
        return len(events)

    def _fold_reuse_delta(self, payload: dict, granularity: str) -> None:
        """Fold one ``counters`` payload: a CacheCounters delta whose
        field names are the ``repro_reuse_<field>_total`` suffixes."""
        registry = self.registry
        for key, delta in payload.items():
            delta = int(delta)
            if delta:
                registry.inc(f"repro_reuse_{key}_total", delta,
                             phase="serving", granularity=granularity)
        hits = int(payload.get("cross_hits", 0)) \
            + int(payload.get("intra_hits", 0))
        if hits:
            registry.inc("repro_reuse_hits_total", hits,
                         phase="serving", granularity=granularity)

    def _update_shard_balance(self, shard: str, rows: int) -> None:
        registry = self.registry
        self._shard_requests[shard] = \
            self._shard_requests.get(shard, 0) + rows
        registry.set_gauge("repro_serving_shard_requests",
                           self._shard_requests[shard], shard=shard)
        loads = list(self._shard_requests.values())
        mean = sum(loads) / len(loads)
        registry.set_gauge("repro_serving_shard_balance",
                           max(loads) / mean if mean else 0.0)

    # -- per-kind handlers ---------------------------------------------
    def _on_serve_batch(self, event) -> None:
        payload = event.payload
        registry = self.registry
        rows = int(payload.get("rows", 0))
        registry.inc("repro_serving_requests_total", rows)
        self._fold_reuse_delta(payload.get("counters", {}), "request")
        for key in ("l2_hits", "l2_misses", "l2_inserts"):
            delta = int(payload.get(key, 0))
            if delta:
                registry.inc("repro_l2_" + key[3:] + "_total", delta)
        self._update_shard_balance(str(payload.get("shard", event.source)),
                                   rows)

    def _on_serve_vector_batch(self, event) -> None:
        self._fold_reuse_delta(event.payload.get("counters", {}), "vector")

    def _on_serve_window(self, event) -> None:
        payload = event.payload
        self.registry.set_gauge("repro_reuse_hit_rate",
                                float(payload.get("hit_rate", 0.0)),
                                phase="serving")
        if payload.get("signature_bits") is not None:
            self.registry.set_gauge("repro_reuse_signature_bits",
                                    float(payload["signature_bits"]),
                                    phase="serving")

    def _on_batcher_batch(self, event) -> None:
        self.registry.inc("repro_serving_batches_total")
        self.registry.observe("repro_serving_batch_size",
                              float(event.payload.get("size", 0)))

    def _on_batcher_latency(self, event) -> None:
        self.registry.observe("repro_serving_latency_seconds",
                              float(event.payload.get("latency_s", 0.0)))

    def _on_session_clear(self, event) -> None:
        self.registry.inc("repro_reuse_flash_clears_total",
                          int(event.payload.get("clears", 1)),
                          phase="serving")

    def _on_router_promote(self, event) -> None:
        self.registry.inc("repro_router_hot_key_promotions_total")

    def _on_l2_flush(self, event) -> None:
        self.registry.inc("repro_l2_flushes_total")

    def _on_l2_load(self, event) -> None:
        self.registry.inc("repro_l2_loads_total")

    def _on_snapshot_write(self, event) -> None:
        self.registry.inc("repro_serving_snapshot_writes_total")

    def _on_snapshot_restore(self, event) -> None:
        self.registry.inc("repro_serving_snapshot_restores_total")

    def _on_worker_recovered(self, event) -> None:
        self.registry.inc("repro_serving_recoveries_total")

    def _on_controller_decision(self, event) -> None:
        self.registry.inc("repro_controller_decisions_total",
                          action=str(event.payload.get("action",
                                                       "unknown")))

    def _on_training_epoch(self, event) -> None:
        payload = event.payload
        registry = self.registry
        registry.inc("repro_training_epochs_total")
        for key, name in (("vectors", "repro_reuse_requests_total"),
                          ("hits", "repro_reuse_hits_total"),
                          ("flash_clears",
                           "repro_reuse_flash_clears_total")):
            delta = int(payload.get(key, 0))
            if delta:
                registry.inc(name, delta, phase="training")
        registry.set_gauge("repro_reuse_hit_rate",
                           float(payload.get("hit_rate", 0.0)),
                           phase="training")
        registry.set_gauge("repro_reuse_signature_bits",
                           float(payload.get("signature_bits", 0)),
                           phase="training")
        if payload.get("loss") is not None:
            registry.set_gauge("repro_training_loss",
                               float(payload["loss"]))
        if payload.get("accuracy") is not None:
            registry.set_gauge("repro_training_accuracy",
                               float(payload["accuracy"]))
