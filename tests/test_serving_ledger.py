"""One run ledger: every serving report counts its own run.

A :class:`~repro.serving.server.ServingReport` is the difference of two
:class:`~repro.serving.server.RunLedger` readings, one taken when the
run began and one when it ended.  The contracts under test:

* a second replay on warm caches, and a replay on a warm-started
  server, count only their own requests, hits and batches;
* over random sequences of replays, wall-clock ``serve_trace`` runs,
  snapshot-and-restore hops and controller flash clears, each report
  equals what the server's own clocks and counters moved by during the
  run, and the run reports sum to the caches' lifetime counters;
* the audit manifest's summary reads the run, and ``--audit-read``
  refuses a manifest written before that change.
"""

from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.analysis.serving_sweep import ServingPoint, serving_pieces
from repro.models.registry import build_model
from repro.obs import (AUDIT_FORMAT, AUDIT_VERSION, Telemetry,
                       read_manifest)
from repro.serving import (BatcherConfig, InferenceServer, ServingPolicy,
                           TrafficConfig, build_request_pool, generate_trace)
from repro.serving.cache import CacheCounters
from repro.serving.server import build_report

EXACT = ServingPolicy(request_cache=True, vector_cache=False,
                      exact_check=True, compute="per_request")
LAYERED = ServingPolicy(request_cache=True, vector_cache=True,
                        exact_check=True, compute="batched")
CONFIG = BatcherConfig(max_batch_size=8, max_wait_s=0.001)


@pytest.fixture(scope="module")
def model():
    return build_model("squeezenet", num_classes=4, seed=3)


@pytest.fixture(scope="module")
def pool():
    return build_request_pool("squeezenet", pool_size=8, image_size=12,
                              seed=0)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TrafficConfig(pattern="zipfian",
                                        num_requests=60, seed=1), 8)


def _shard_requests(report) -> list:
    return [row["requests"] for row in report.shard_stats]


class TestRunScope:
    def test_second_replay_reads_its_own_run(self, model, pool, trace):
        server = InferenceServer(model, EXACT, CONFIG, shards=2)
        _, first = server.replay(trace, pool)
        _, second = server.replay(trace, pool)
        assert second.request_cache["requests"] == len(trace)
        assert second.request_cache["cross_hits"] == len(trace)
        assert second.hit_rate == 1.0
        assert sum(_shard_requests(second)) == len(trace)
        # Routing and batching depend only on the trace.
        assert _shard_requests(second) == _shard_requests(first)
        assert second.batches == first.batches
        assert first.hit_rate < 1.0

    def test_warm_started_replay_counts_only_its_own_requests(
            self, model, pool, trace, tmp_path):
        donor = InferenceServer(model, EXACT, CONFIG, shards=2)
        _, cold = donor.replay(trace, pool)
        donor.snapshot(tmp_path)
        restored = InferenceServer(model, EXACT, CONFIG, shards=2)
        restored.restore(tmp_path)
        _, warm = restored.replay(trace, pool)
        assert warm.request_cache["requests"] == len(trace)
        assert warm.hit_rate == 1.0
        assert warm.batches == cold.batches
        assert _shard_requests(warm) == _shard_requests(cold)
        # The lifetime view still carries the donor's traffic.
        assert restored.cache_counters().requests == 2 * len(trace)
        lifetime = restored.stats()
        assert lifetime["request_cache"]["requests"] == 2 * len(trace)
        assert lifetime["batches"] == 2 * cold.batches
        assert sum(row["requests"] for row in lifetime["shard_stats"]) \
            == 2 * len(trace)

    def test_evicting_warm_start_counts_its_150_probes(self, tmp_path):
        # The CLI's evicting warm-start round trip: ``--requests 150
        # --eviction lru --entries 8 --ways 8 --traffic zipfian
        # --rotate-every 40``, then the same with ``--warm-start``.
        point = ServingPoint(num_requests=150, eviction="lru", entries=8,
                             ways=8, rotate_every=40)
        _, pool, trace, donor = serving_pieces(point)
        donor.replay(trace, pool)
        donor.snapshot(tmp_path)
        _, _, _, server = serving_pieces(point)
        server.restore(tmp_path)
        _, report = server.replay(trace, pool)
        assert report.request_cache["requests"] == 150
        assert report.batches == 50
        assert report.mean_batch_size == 3.0

    def test_audit_summary_reads_the_second_run(self, model, pool, trace,
                                                tmp_path):
        server = InferenceServer(model, EXACT, CONFIG, shards=2,
                                 telemetry=Telemetry(audit_dir=tmp_path))
        server.replay(trace, pool)
        _, second = server.replay(trace, pool)
        summary = read_manifest(tmp_path)["summary"]
        assert summary["hit_rate"] == second.hit_rate == 1.0
        assert summary["requests"] == len(trace)
        assert summary["batches"] == second.batches

    def test_audit_read_refuses_a_version_1_manifest(self, tmp_path):
        from repro.serving.cli import serve_main
        assert AUDIT_VERSION == 2
        (tmp_path / "audit.json").write_text(json.dumps(
            {"format": AUDIT_FORMAT, "version": 1}))
        with pytest.raises(ValueError, match="not supported"):
            serve_main(["--audit-read", str(tmp_path)])


# ----------------------------------------------------------------------
# Reports are ledger differences over random run sequences
# ----------------------------------------------------------------------
STEPS = st.lists(st.tuples(
    st.sampled_from(["replay", "serve_trace", "restore", "flash_clear"]),
    st.integers(0, 2 ** 16)), min_size=1, max_size=4)


def _server(model, policy):
    # Telemetry on: the controller's flash clear emits on the bus.
    return InferenceServer(model, policy, CONFIG, shards=2,
                           telemetry=Telemetry(window_batches=2))


def _clocks(server) -> list:
    """Each shard's batch clock and its batcher's row count."""
    return [(shard.batch_index, shard.batcher.telemetry.rows)
            for shard in server.shards]


def _shard_counters(server) -> list:
    return [(CacheCounters.aggregate([shard.request_cache.counters]),
             shard.vector_engine.counters()
             if shard.vector_engine is not None else None)
            for shard in server.shards]


def _layer_records(server) -> dict:
    """``(shard, layer, phase) -> (vectors, hits)`` of every shard."""
    return {(shard.index, record.layer, record.phase):
            (record.total_vectors, record.hits)
            for shard in server.shards if shard.vector_engine is not None
            for record in shard.vector_engine.stats.all_records()}


def _run(server, kind, seed, pool):
    """Serve one random trace; hold its report to the ledger difference
    and to what the server's clocks and counters moved meanwhile."""
    trace = generate_trace(TrafficConfig(pattern="zipfian",
                                         num_requests=12, seed=seed),
                           len(pool))
    clocks, counters = _clocks(server), _shard_counters(server)
    layers, ledger = _layer_records(server), server.ledger()
    if kind == "replay":
        _, report = server.replay(trace, pool)
    else:
        _, report = server.serve_trace(trace, pool)
    expected = build_report(ledger, server.ledger(), requests=len(trace),
                            duration_s=0.0, latencies_s=())
    for name in ("requests", "batches", "mean_batch_size",
                 "request_cache", "vector_cache", "layer_stats",
                 "hit_rate", "shards", "shard_stats", "recoveries", "l2"):
        assert getattr(report, name) == getattr(expected, name), name
    rows = batches = 0
    request_total, vector_total = CacheCounters(), CacheCounters()
    for row, (batch_before, rows_before), (batch_after, rows_after), \
            (request_before, vector_before), (request_after, vector_after) \
            in zip(report.shard_stats, clocks, _clocks(server), counters,
                   _shard_counters(server)):
        request = request_after - request_before
        request_total.merge(request)
        merged = CacheCounters.aggregate([request])
        if vector_after is not None:
            vector = vector_after - vector_before
            vector_total.merge(vector)
            merged.merge(vector)
        assert row["batches"] == batch_after - batch_before
        assert row["requests"] == rows_after - rows_before
        assert row["hits"] == merged.hits
        # Every row routed to a shard probes its request cache once.
        assert row["requests"] == request.requests \
            == request.hits + request.computed
        rows += row["requests"]
        batches += row["batches"]
    assert rows == len(trace)
    assert report.batches == batches
    assert report.mean_batch_size == rows / batches
    assert report.request_cache == request_total.to_dict()
    assert report.hit_rate == request_total.hit_rate
    if server.policy.vector_cache:
        assert report.vector_cache == vector_total.to_dict()
        after = _layer_records(server)
        assert {(row["shard"], row["layer"], row["phase"]):
                (row["vectors"], row["hits"])
                for row in report.layer_stats} == {
            key: (vectors - layers.get(key, (0, 0))[0],
                  hits - layers.get(key, (0, 0))[1])
            for key, (vectors, hits) in after.items()}
    else:
        assert report.vector_cache == {} and report.layer_stats == []
    return report


@given(steps=STEPS, layered=st.booleans())
def test_reports_are_ledger_differences(model, pool, steps, layered):
    """Each run's report is what the run moved; runs sum to lifetime."""
    policy = LAYERED if layered else EXACT
    server = _server(model, policy)
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind, seed in steps:
            if kind == "restore":
                server.snapshot(tmp)
                server = _server(model, policy)
                server.restore(tmp)
            elif kind == "flash_clear":
                server._apply_decision({"action": "flash_clear"})
            else:
                reports.append(_run(server, kind, seed, pool))
    lifetime = CacheCounters.aggregate(
        CacheCounters(**{name: value for name, value
                         in report.request_cache.items()
                         if name != "hit_rate"})
        for report in reports)
    assert lifetime == server.cache_counters()
    stats = server.stats()
    assert stats["batches"] == sum(report.batches for report in reports)
    assert [row["requests"] for row in stats["shard_stats"]] == [
        sum(report.shard_stats[index]["requests"] for report in reports)
        for index in range(server.num_shards)]
