"""Streaming metrics: log-histogram fidelity, exact merge, registry.

Two oracles pin :class:`LogHistogram`:

* the *exact* stream percentile (``np.percentile`` over every value)
  bounds the histogram read to within one bucket width — a relative
  error of ``growth`` — at a 50 k-sample stream;
* a bounded :class:`~tests.oracles.reservoir.Reservoir` sample is the
  differential oracle: its estimate must agree with the exact
  percentile too, so the two independent summaries cross-check each
  other.

The property suite pins the merge algebra: associative, commutative,
and merging per-shard histograms equals one single-stream histogram
(``state()`` equality, which is merge-order-independent by
construction).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Event, LogHistogram, MetricsCollector, MetricsRegistry
from repro.obs.metrics import DEFAULT_GROWTH
from repro.serving.batcher import BatcherTelemetry
from tests.oracles.reservoir import Reservoir

positive_values = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


def _record_all(histogram: LogHistogram, values) -> None:
    for value in values:
        histogram.record(float(value))


def _relative_error(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / exact


class TestLogHistogram:
    def test_empty_reads_zero(self):
        histogram = LogHistogram()
        assert histogram.count == 0
        assert histogram.percentile(50) == 0.0
        assert histogram.mean == 0.0

    def test_single_value_is_returned_exactly(self):
        # Clamping to [min, max] makes single-value reads exact even
        # though the bucket midpoint is not the value.
        histogram = LogHistogram()
        histogram.record(3.7)
        assert histogram.percentile(50) == pytest.approx(3.7)
        assert histogram.percentile(99) == pytest.approx(3.7)

    def test_non_positive_values_land_in_the_zero_bucket(self):
        histogram = LogHistogram()
        _record_all(histogram, [0.0, -1.0, 2.0, 4.0])
        assert histogram.zeros == 2
        assert histogram.count == 4
        assert histogram.percentile(25) == 0.0  # rank 1 → zero bucket
        assert histogram.percentile(100) == pytest.approx(4.0)

    def test_invalid_growth_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(growth=1.0)

    def test_merge_rejects_mismatched_growth_and_types(self):
        histogram = LogHistogram()
        with pytest.raises(ValueError):
            histogram.merge(LogHistogram(growth=2.0))
        with pytest.raises(TypeError):
            histogram.merge([1, 2, 3])

    def test_round_trips_through_dict(self):
        histogram = LogHistogram()
        _record_all(histogram, [0.0, 0.5, 1.0, 2.0, 1000.0])
        clone = LogHistogram.from_dict(histogram.to_dict())
        assert clone == histogram
        assert clone.total == histogram.total
        assert clone.min == histogram.min
        assert clone.max == histogram.max

    def test_percentiles_within_bucket_width_at_50k(self):
        """The regression bound: p50/p99 within ``growth`` relative
        error of the exact stream percentile on a 50 k lognormal
        latency stream, with the reservoir as differential oracle."""
        rng = np.random.default_rng(7)
        stream = rng.lognormal(mean=-6.0, sigma=1.2, size=50_000)
        telemetry = BatcherTelemetry()
        reservoir = Reservoir()
        for value in stream:
            telemetry.record_latency(value)
            reservoir.record(value)
        histogram = telemetry.latency_hist
        assert histogram.count == 50_000
        bound = histogram.growth - 1.0  # one-bucket relative error
        for quantile in (50, 90, 99):
            exact = float(np.percentile(stream, quantile))
            assert _relative_error(histogram.percentile(quantile),
                                   exact) < bound
            # The bounded sample agrees with the exact stream too —
            # two independent summaries cross-checking each other.
            sampled = float(np.percentile(reservoir.values(), quantile))
            assert _relative_error(sampled, exact) < 0.12

    def test_shard_merge_equals_single_stream_at_50k(self):
        rng = np.random.default_rng(11)
        stream = rng.lognormal(mean=-6.0, sigma=1.0, size=50_000)
        single = LogHistogram()
        _record_all(single, stream)
        shards = [LogHistogram() for _ in range(4)]
        for index, value in enumerate(stream):
            shards[index % 4].record(value)
        merged = LogHistogram.merged(shards)
        assert merged == single
        assert merged.percentile(99) == single.percentile(99)


@given(st.lists(positive_values, max_size=60),
       st.lists(positive_values, max_size=60))
def test_merge_is_commutative(left_values, right_values):
    left = LogHistogram()
    _record_all(left, left_values)
    right = LogHistogram()
    _record_all(right, right_values)
    left_first = LogHistogram.merged([left, right])
    right_first = LogHistogram.merged([right, left])
    assert left_first.state() == right_first.state()


@given(st.lists(positive_values, max_size=40),
       st.lists(positive_values, max_size=40),
       st.lists(positive_values, max_size=40))
def test_merge_is_associative(a_values, b_values, c_values):
    def build(values):
        histogram = LogHistogram()
        _record_all(histogram, values)
        return histogram

    a, b, c = build(a_values), build(b_values), build(c_values)
    ab_then_c = build(a_values).merge(build(b_values)).merge(c)
    a_then_bc = build(b_values).merge(build(c_values))
    a_then_bc = build(a_values).merge(a_then_bc)
    assert ab_then_c.state() == a_then_bc.state()
    assert ab_then_c.state() == LogHistogram.merged([a, b, c]).state()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                max_size=100),
       st.integers(min_value=1, max_value=5))
def test_sharded_recording_equals_single_stream(values, num_shards):
    """Splitting a stream across shards and merging reproduces the
    single-stream histogram exactly — bucketing is a pure function of
    the value, so the split cannot matter."""
    single = LogHistogram()
    _record_all(single, values)
    shards = [LogHistogram() for _ in range(num_shards)]
    for index, value in enumerate(values):
        shards[index % num_shards].record(value)
    merged = LogHistogram.merged(shards)
    assert merged.state() == single.state()
    assert merged.count == single.count
    assert merged.zeros == single.zeros


class TestMetricsRegistry:
    def test_counters_gauges_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("repro_reuse_hits_total", 3, phase="serving")
        registry.inc("repro_reuse_hits_total", 2, phase="serving")
        registry.inc("repro_reuse_hits_total", 7, phase="training")
        registry.set_gauge("repro_reuse_hit_rate", 0.5, phase="serving")
        assert registry.counter("repro_reuse_hits_total",
                                phase="serving") == 5
        assert registry.counter("repro_reuse_hits_total",
                                phase="training") == 7
        assert registry.counter("repro_reuse_hits_total") == 0
        assert registry.gauge("repro_reuse_hit_rate",
                              phase="serving") == 0.5
        assert registry.counters_dict() == {
            'repro_reuse_hits_total{phase="serving"}': 5,
            'repro_reuse_hits_total{phase="training"}': 7,
        }

    def test_state_captures_everything_and_compares(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("a_total", 2)
            registry.set_gauge("g", 1.5, shard="shard0")
            registry.observe("h", 0.25)
            return registry

        assert build().state() == build().state()
        other = build()
        other.observe("h", 0.5)
        assert other.state() != build().state()

    def test_render_prometheus_format(self):
        registry = MetricsRegistry()
        registry.inc("repro_serving_requests_total", 60)
        registry.set_gauge("repro_reuse_hit_rate", 0.25, phase="serving")
        registry.observe("repro_serving_latency_seconds", 0.001)
        registry.observe("repro_serving_latency_seconds", 0.002)
        text = registry.render_prometheus()
        assert "# HELP repro_serving_requests_total" in text
        assert "# TYPE repro_serving_requests_total counter" in text
        assert "repro_serving_requests_total 60" in text
        assert 'repro_reuse_hit_rate{phase="serving"} 0.25' in text
        assert "# TYPE repro_serving_latency_seconds histogram" in text
        assert "repro_serving_latency_seconds_count 2" in text
        assert "repro_serving_latency_seconds_sum 0.003" in text
        assert 'le="+Inf"} 2' in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.0)   # zero bucket
        registry.observe("h", 1.0)
        registry.observe("h", 100.0)
        lines = registry.render_prometheus().splitlines()
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines
                  if line.startswith("h_bucket")]
        assert counts == sorted(counts)
        assert counts[0] == 1          # the le="0" zero bucket
        assert counts[-1] == 3         # le="+Inf" equals the count


class TestMetricsCollector:
    def test_serve_batch_folds_counters_l2_and_shard_balance(self):
        collector = MetricsCollector()
        collector.handle(Event("serve.batch", "shard0", {
            "rows": 8, "shard": "shard0", "l2_hits": 2, "l2_misses": 1,
            "counters": {"requests": 8, "cross_hits": 3, "intra_hits": 1,
                         "computed": 4, "inserted": 4},
        }))
        collector.handle(Event("serve.batch", "shard1", {
            "rows": 4, "shard": "shard1",
            "counters": {"requests": 4, "computed": 4},
        }))
        registry = collector.registry
        assert registry.counter("repro_serving_requests_total") == 12
        assert registry.counter("repro_reuse_hits_total", phase="serving",
                                granularity="request") == 4
        assert registry.counter("repro_reuse_requests_total",
                                phase="serving",
                                granularity="request") == 12
        assert registry.counter("repro_l2_hits_total") == 2
        assert registry.counter("repro_l2_misses_total") == 1
        assert registry.gauge("repro_serving_shard_requests",
                              shard="shard0") == 8
        assert registry.gauge("repro_serving_shard_balance") \
            == pytest.approx(8 / 6)

    def test_event_kinds_map_to_canonical_names(self):
        collector = MetricsCollector()
        for event in (
                Event("batcher.batch", payload={"size": 8}),
                Event("batcher.latency", payload={"latency_s": 0.002}),
                Event("session.clear", payload={"clears": 2}),
                Event("router.promote", payload={"signature": 1}),
                Event("l2.flush"), Event("l2.load"),
                Event("snapshot.write"), Event("snapshot.restore"),
                Event("worker.recovered", payload={"worker": 0}),
                Event("controller.decision",
                      payload={"action": "flash_clear"}),
                Event("serve.window",
                      payload={"hit_rate": 0.75, "signature_bits": 16}),
                Event("not.a.known.kind"),
        ):
            collector.handle(event)
        registry = collector.registry
        assert registry.counter("repro_serving_batches_total") == 1
        assert registry.histogram("repro_serving_batch_size").count == 1
        assert registry.histogram(
            "repro_serving_latency_seconds").count == 1
        assert registry.counter("repro_reuse_flash_clears_total",
                                phase="serving") == 2
        assert registry.counter(
            "repro_router_hot_key_promotions_total") == 1
        assert registry.counter("repro_l2_flushes_total") == 1
        assert registry.counter("repro_l2_loads_total") == 1
        assert registry.counter(
            "repro_serving_snapshot_writes_total") == 1
        assert registry.counter(
            "repro_serving_snapshot_restores_total") == 1
        assert registry.counter("repro_serving_recoveries_total") == 1
        assert registry.counter("repro_controller_decisions_total",
                                action="flash_clear") == 1
        assert registry.gauge("repro_reuse_hit_rate",
                              phase="serving") == 0.75
        assert registry.gauge("repro_reuse_signature_bits",
                              phase="serving") == 16
        assert collector.handled == 12  # unknown kinds count as handled

    def test_training_epoch_event(self):
        collector = MetricsCollector()
        collector.handle(Event("training.epoch", "trainer", {
            "epoch": 0, "loss": 1.25, "accuracy": 0.5,
            "vectors": 100, "hits": 40, "flash_clears": 2,
            "hit_rate": 0.4, "signature_bits": 16,
        }))
        registry = collector.registry
        assert registry.counter("repro_training_epochs_total") == 1
        assert registry.counter("repro_reuse_requests_total",
                                phase="training") == 100
        assert registry.counter("repro_reuse_hits_total",
                                phase="training") == 40
        assert registry.counter("repro_reuse_flash_clears_total",
                                phase="training") == 2
        assert registry.gauge("repro_training_loss") == 1.25
        assert registry.gauge("repro_training_accuracy") == 0.5
        assert registry.gauge("repro_reuse_hit_rate",
                              phase="training") == 0.4


def test_default_growth_keeps_relative_error_under_ten_percent():
    assert 1.0 < DEFAULT_GROWTH < 1.10
