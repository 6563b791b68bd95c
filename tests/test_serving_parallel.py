"""Process-parallel serving: parity, crash recovery, supervision.

These tests spawn real worker processes (multiprocessing, spawn
context), so they use one small module-scoped model/trace and a shared
exact-serving configuration to keep the spawn count low.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.obs import AdaptivePolicyController, Telemetry
from repro.serving import (BatcherConfig, FaultInjection, InferenceServer,
                           ParallelInferenceServer, ServingPolicy,
                           TrafficConfig, build_request_pool, generate_trace)
from repro.serving.parallel import FAULT_EXIT_CODE

#: The determinism configuration: exact per-request compute is
#: byte-identical to the engine-less oracle at any worker count.
EXACT = ServingPolicy(request_cache=True, vector_cache=False,
                      exact_check=True, compute="per_request")
#: Both cache granularities at once (the sweep's ``layered`` policy).
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


class TestParallelParity:
    def test_replay_matches_single_process_and_oracle(self, model, pool,
                                                      trace):
        single = InferenceServer(model, EXACT, CONFIG, shards=4)
        reference_outputs, reference = single.replay(trace, pool)
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=4,
                                     snapshot_every_batches=0) as parallel:
            outputs, report = parallel.replay(trace, pool)
        for ours, theirs in zip(outputs, reference_outputs):
            np.testing.assert_array_equal(ours, theirs)
        oracle = parallel.oracle_outputs(pool)
        for request, output in zip(trace, outputs):
            np.testing.assert_array_equal(output,
                                          oracle[request.pool_index])
        assert report.hit_rate == pytest.approx(reference.hit_rate,
                                                abs=1e-12)
        assert report.requests == len(trace)
        assert report.batches == reference.batches
        assert report.recoveries == 0
        assert report.shards == 4
        assert report.measured_makespan_s > 0.0
        assert sum(row["requests"] for row in report.shard_stats) \
            == len(trace)

    @pytest.mark.parametrize("policy", [EXACT, LAYERED],
                             ids=["exact", "layered"])
    def test_single_worker_matches_in_process_server_exactly(
            self, model, pool, trace, policy, tmp_path):
        """workers=1 is the in-process server behind a process hop.

        Identical outputs AND an identical ServingReport apart from
        timing — on a first run, a second run on the same warm caches,
        and a warm start from a snapshot: the worker runtime must add no
        cache decisions of its own, and both servers report through one
        builder over one ledger.
        """
        single = InferenceServer(model, policy, CONFIG, shards=1)
        references = [single.replay(trace, pool) for _ in range(2)]
        with ParallelInferenceServer(model, policy, CONFIG, workers=1,
                                     snapshot_dir=tmp_path / "workers",
                                     snapshot_every_batches=0) as parallel:
            runs = [parallel.replay(trace, pool) for _ in range(2)]
            parallel.snapshot_workers()
        single.snapshot(tmp_path / "single")
        restored = InferenceServer(model, policy, CONFIG, shards=1)
        restored.restore(tmp_path / "single")
        references.append(restored.replay(trace, pool))
        # A new supervisor on the same directory: its worker restores
        # the snapshot the first one left.
        with ParallelInferenceServer(model, policy, CONFIG, workers=1,
                                     snapshot_dir=tmp_path / "workers",
                                     snapshot_every_batches=0) as warm:
            runs.append(warm.replay(trace, pool))
        timing = {"duration_s", "throughput_rps", "latency_p50_ms",
                  "latency_p95_ms", "latency_p99_ms", "latency_mean_ms",
                  "simulated_makespan_s", "measured_makespan_s"}
        for run, ((outputs, report), (reference_outputs, reference)) \
                in enumerate(zip(runs, references)):
            for ours, theirs in zip(outputs, reference_outputs):
                assert ours.tobytes() == theirs.tobytes(), run
            ours, theirs = report.to_dict(), reference.to_dict()
            for name in set(ours) - timing:
                assert ours[name] == theirs[name], (run, name)
            assert report.requests == report.request_cache["requests"] \
                == len(trace)

    def test_single_worker_telemetry_matches_in_process(self, model,
                                                        pool, trace):
        """Forwarded worker telemetry equals in-process telemetry.

        At workers=1 the worker's event stream must be the in-process
        server's stream, relabelled and re-emitted by the supervisor —
        so both runs fold into byte-equal metric registries (the
        MetricsCollector mapping is the single point of truth) and
        identical bus digests, with zero drops.
        """
        in_process = Telemetry(window_batches=2)
        single = InferenceServer(build_model("squeezenet", num_classes=4,
                                             seed=3),
                                 EXACT, CONFIG, shards=1,
                                 telemetry=in_process)
        reference_outputs, reference = single.replay(trace, pool)

        forwarded = Telemetry(window_batches=2)
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=1,
                                     snapshot_every_batches=0,
                                     telemetry=forwarded) as parallel:
            outputs, report = parallel.replay(trace, pool)

        for ours, theirs in zip(outputs, reference_outputs):
            np.testing.assert_array_equal(ours, theirs)
        assert forwarded.summary() == in_process.summary()
        assert forwarded.summary()["dropped"] == 0
        assert forwarded.registry.state() == in_process.registry.state()
        assert report.telemetry == reference.telemetry
        assert report.request_cache == reference.request_cache

    def test_controller_requires_the_in_process_server(self, model):
        with pytest.raises(ValueError, match="in-process"):
            ParallelInferenceServer(
                model, EXACT, CONFIG, workers=1,
                telemetry=Telemetry(
                    controller=AdaptivePolicyController()))

    def test_workers_stay_warm_across_replays(self, model, pool, trace):
        # Workers persist between replays; the report isolates each
        # replay via counter deltas, so the warm pass reads 100%.
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=2,
                                     snapshot_every_batches=0) as parallel:
            _, cold = parallel.replay(trace, pool)
            _, warm = parallel.replay(trace, pool)
        assert 0.0 < cold.hit_rate < 1.0
        assert warm.hit_rate == 1.0


class TestCrashRecovery:
    def test_killed_worker_recovers_to_identical_results(
            self, model, pool, trace, tmp_path):
        single = InferenceServer(model, EXACT, CONFIG, shards=2)
        reference_outputs, reference = single.replay(trace, pool)
        fault = FaultInjection(worker=0, kill_after_batches=1)
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=2,
                                     snapshot_dir=tmp_path / "snaps",
                                     snapshot_every_batches=2,
                                     fault=fault) as parallel:
            outputs, report = parallel.replay(trace, pool)
        # The worker died mid-replay, was respawned, warm-restored from
        # its snapshot and re-ran its outstanding batches — converging
        # to the uninterrupted run's outputs and hit counters.
        assert report.recoveries == 1
        for ours, theirs in zip(outputs, reference_outputs):
            np.testing.assert_array_equal(ours, theirs)
        assert report.hit_rate == pytest.approx(reference.hit_rate,
                                                abs=1e-12)

    def test_recovered_layered_run_reports_like_the_uninterrupted_one(
            self, model, pool, trace, tmp_path):
        # The respawned worker restores its counters and per-layer
        # statistics from its snapshot, so this replay's report deltas
        # match the single-process replay at both cache granularities.
        single = InferenceServer(model, LAYERED, CONFIG, shards=2)
        _, reference = single.replay(trace, pool)
        fault = FaultInjection(worker=0, kill_after_batches=3)
        with ParallelInferenceServer(model, LAYERED, CONFIG, workers=2,
                                     snapshot_dir=tmp_path / "snaps",
                                     snapshot_every_batches=2,
                                     fault=fault) as parallel:
            _, report = parallel.replay(trace, pool)
        assert report.recoveries == 1
        for name in ("request_cache", "vector_cache", "layer_stats",
                     "shard_stats", "hit_rate"):
            assert getattr(report, name) == getattr(reference, name), name

    def test_each_replay_reports_its_own_recoveries(self, model, pool,
                                                    trace, tmp_path):
        # Snapshots off: a worker killed in the second replay restarts
        # cold and re-runs that replay's whole plan, which its report
        # counts (the cold cache computes what the lost one had held).
        # The third replay runs clean and reports no recovery.
        single = InferenceServer(model, EXACT, CONFIG, shards=1)
        _, reference = single.replay(trace, pool)
        fault = FaultInjection(worker=0,
                               kill_after_batches=reference.batches + 2)
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=1,
                                     snapshot_dir=tmp_path / "snaps",
                                     snapshot_every_batches=0,
                                     fault=fault) as parallel:
            parallel.replay(trace, pool)
            outputs, recovered = parallel.replay(trace, pool)
            _, clean = parallel.replay(trace, pool)
        assert recovered.recoveries == 1
        assert recovered.batches == reference.batches
        assert recovered.shard_stats[0]["requests"] == len(trace)
        assert recovered.request_cache == reference.request_cache
        oracle = parallel.oracle_outputs(pool)
        for request, output in zip(trace, outputs):
            np.testing.assert_array_equal(output,
                                          oracle[request.pool_index])
        assert clean.recoveries == 0
        # The respawn budget still counts the server's lifetime.
        assert parallel.recoveries == 1

    def test_hung_worker_is_respawned_after_timeout(self, model, pool,
                                                    trace, tmp_path):
        fault = FaultInjection(worker=0, kill_after_batches=0,
                               mode="hang")
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=2,
                                     snapshot_dir=tmp_path / "snaps",
                                     snapshot_every_batches=2,
                                     worker_timeout_s=3.0,
                                     fault=fault) as parallel:
            outputs, report = parallel.replay(trace, pool)
        assert report.recoveries >= 1
        oracle = parallel.oracle_outputs(pool)
        for request, output in zip(trace, outputs):
            np.testing.assert_array_equal(output,
                                          oracle[request.pool_index])

    def test_gives_up_after_max_respawns(self, model, pool, trace,
                                         tmp_path):
        fault = FaultInjection(worker=0, kill_after_batches=0)
        with ParallelInferenceServer(model, EXACT, CONFIG, workers=2,
                                     snapshot_dir=tmp_path / "snaps",
                                     snapshot_every_batches=0,
                                     max_respawns=0,
                                     fault=fault) as parallel:
            with pytest.raises(RuntimeError, match="giving up"):
                parallel.replay(trace, pool)


class TestValidation:
    def test_fault_injection_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            FaultInjection(worker=-1)
        with pytest.raises(ValueError):
            FaultInjection(kill_after_batches=-1)
        with pytest.raises(ValueError):
            FaultInjection(mode="explode")
        assert FAULT_EXIT_CODE != 0

    def test_server_rejects_bad_configs(self, model, tmp_path):
        for kwargs in ({"workers": 0}, {"snapshot_every_batches": -1},
                       {"worker_timeout_s": 0.0}, {"max_respawns": -1}):
            with pytest.raises(ValueError):
                ParallelInferenceServer(model, EXACT, CONFIG,
                                        snapshot_dir=tmp_path, **kwargs)

    def test_hot_key_replication_is_rejected(self, model, tmp_path):
        """Worker processes cannot share replicated rows: fail at
        construction instead of silently diverging from the in-process
        replay."""
        replicating = ServingPolicy(request_cache=True, vector_cache=False,
                                    exact_check=True,
                                    compute="per_request",
                                    replicate_top=4)
        with pytest.raises(ValueError, match="share memory"):
            ParallelInferenceServer(model, replicating, CONFIG,
                                    workers=2, snapshot_dir=tmp_path)

    def test_replay_requires_started_workers(self, model, pool, trace,
                                             tmp_path):
        parallel = ParallelInferenceServer(model, EXACT, CONFIG,
                                           workers=2,
                                           snapshot_dir=tmp_path)
        with pytest.raises(RuntimeError, match="not running"):
            parallel.replay(trace, pool)
        with pytest.raises(RuntimeError, match="not running"):
            parallel.snapshot_workers()

    def test_double_start_rejected(self, model, tmp_path):
        parallel = ParallelInferenceServer(model, EXACT, CONFIG,
                                           workers=1,
                                           snapshot_dir=tmp_path / "s")
        with parallel:
            with pytest.raises(RuntimeError, match="already started"):
                parallel.start()
