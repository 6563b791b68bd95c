"""Audit manifests + the adaptive policy controller, unit and end-to-end.

The contracts under test:

* the recorder persists a versioned, torn-proof manifest that
  round-trips through :func:`read_manifest`;
* the controller is a pure function of the window sequence, so
  :func:`replay_decisions` re-derives a run's recorded decisions from
  its manifest alone;
* telemetry is provably inert — a telemetry-on replay is byte-identical
  to the bare server;
* on the rotating-Zipf churn trace the controller's flash clears beat
  the static no-replacement policy's collapsed hit rate;
* the trainer reports per-epoch reuse through the same bus/vocabulary.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.serving_sweep import ServingPoint, serving_pieces
from repro.core.adaptation import SignatureLengthScheduler
from repro.obs import (AUDIT_FORMAT, AUDIT_VERSION,
                       AdaptivePolicyController, AuditRecorder,
                       ControllerConfig, Telemetry, read_manifest,
                       render_manifest, replay_decisions)

# The churn configuration the controller exists for: a Zipfian head
# that rotates every 40 requests over a no-replacement cache.  Small
# sets (8x8) pin the stale hot set, so the static hit rate collapses
# after the first rotation.
CHURN = dict(traffic="zipfian", cache_policy="request_exact",
             num_requests=240, pool_size=48, entries=8, ways=8,
             rotate_every=40, seed=0)


def _window(index, *, rows=16, hit_rate=0.5, **extra):
    return {"window": index, "rows": rows, "hit_rate": hit_rate,
            "hits": int(rows * hit_rate), **extra}


class TestAuditRecorder:
    def test_manifest_round_trip(self, tmp_path):
        recorder = AuditRecorder(tmp_path / "audit")
        recorder.begin_run(kind="replay", config={"shards": 2},
                           seeds={"trace": 1}, requests=60)
        recorder.record_window(_window(0))
        recorder.record_event("snapshot.write", generation=1)
        recorder.record_decision({"action": "flash_clear", "window": 0})
        manifest = recorder.finalize({"hit_rate": 0.5})
        assert recorder.manifest_path.exists()
        assert not (tmp_path / "audit" / ".tmp-audit.json").exists()

        loaded = read_manifest(tmp_path / "audit")
        assert loaded == manifest
        assert loaded["format"] == AUDIT_FORMAT
        assert loaded["version"] == AUDIT_VERSION
        assert loaded["run"] == 1
        assert loaded["kind"] == "replay"
        assert loaded["config"] == {"shards": 2}
        assert loaded["seeds"] == {"trace": 1}
        assert loaded["requests"] == 60
        assert loaded["windows"] == [_window(0)]
        assert loaded["events"] == [{"kind": "snapshot.write",
                                     "generation": 1}]
        assert loaded["decisions"] == [{"action": "flash_clear",
                                        "window": 0}]
        assert loaded["summary"] == {"hit_rate": 0.5}
        # read_manifest accepts the file path too.
        assert read_manifest(recorder.manifest_path) == manifest

    def test_new_run_clears_the_previous_accumulators(self, tmp_path):
        recorder = AuditRecorder(tmp_path)
        recorder.begin_run(kind="a")
        recorder.record_window(_window(0))
        recorder.finalize()
        recorder.begin_run(kind="b")
        manifest = recorder.finalize()
        assert manifest["run"] == 2
        assert manifest["kind"] == "b"
        assert manifest["windows"] == []

    def test_records_outside_a_run_are_ignored(self, tmp_path):
        recorder = AuditRecorder(tmp_path)
        recorder.record_window(_window(0))
        recorder.record_event("x")
        recorder.record_decision({"action": "noop"})
        recorder.begin_run(kind="replay")
        assert recorder.finalize()["windows"] == []

    def test_read_manifest_validates(self, tmp_path):
        with pytest.raises(ValueError, match="no audit manifest"):
            read_manifest(tmp_path)
        bad = tmp_path / "audit.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a"):
            read_manifest(tmp_path)
        bad.write_text(json.dumps({"format": AUDIT_FORMAT,
                                   "version": AUDIT_VERSION + 1}))
        with pytest.raises(ValueError, match="not supported"):
            read_manifest(tmp_path)

    def test_render_manifest_is_human_readable(self, tmp_path):
        recorder = AuditRecorder(tmp_path)
        recorder.begin_run(kind="replay", config={"shards": 2},
                           seeds={"trace": 1, "pool": 0})
        recorder.record_window(_window(0, hit_rate=0.625))
        recorder.record_decision({"action": "flash_clear", "window": 0,
                                  "reason": "collapse"})
        recorder.record_event("worker.recovered", worker=1)
        recorder.finalize({"requests": 60})
        text = render_manifest(read_manifest(tmp_path))
        assert "audit run 1 (replay)" in text
        assert "shards: 2" in text
        assert "trace=1" in text
        assert "hit_rate=0.625" in text
        assert "flash_clear" in text
        assert "worker.recovered" in text
        assert "requests: 60" in text


class TestControllerUnit:
    def test_config_validation(self):
        for kwargs in ({"min_window_rows": -1}, {"collapse_ratio": 0.0},
                       {"collapse_ratio": 1.0}, {"cooldown_windows": -1},
                       {"ttl_growth_factor": 1}):
            with pytest.raises(ValueError):
                ControllerConfig(**kwargs)

    def test_small_windows_are_ignored(self):
        controller = AdaptivePolicyController()
        assert controller.observe_window(_window(0, rows=4,
                                                 hit_rate=0.9)) == []
        # The tiny window must not have seeded the reference either.
        assert controller.observe_window(_window(1, hit_rate=0.1)) == []

    def test_collapse_triggers_flash_clear_then_cooldown(self):
        controller = AdaptivePolicyController()
        assert controller.observe_window(_window(0, hit_rate=0.6)) == []
        decided = controller.observe_window(_window(1, hit_rate=0.2))
        assert [d["action"] for d in decided] == ["flash_clear"]
        assert decided[0]["window"] == 1
        assert decided[0]["reference_hit_rate"] == 0.6
        # The refill window hits ~0 by construction; cooldown must
        # swallow it instead of clearing again.
        assert controller.observe_window(_window(2, hit_rate=0.0)) == []
        # Reference was reset: a recovered window re-seeds it ...
        assert controller.observe_window(_window(3, hit_rate=0.5)) == []
        # ... and a second collapse clears again.
        decided = controller.observe_window(_window(4, hit_rate=0.1))
        assert [d["action"] for d in decided] == ["flash_clear"]
        assert len(controller.decisions) == 2

    def test_collapse_needs_a_real_reference(self):
        controller = AdaptivePolicyController()
        controller.observe_window(_window(0, hit_rate=0.04))
        assert controller.observe_window(_window(1, hit_rate=0.0)) == []

    def test_ttl_widens_on_expiry_churn_and_saturates(self):
        controller = AdaptivePolicyController()
        decided = controller.observe_window(
            _window(0, rows=16, expired=8, ttl_batches=4))
        assert decided == [d for d in controller.decisions]
        assert decided[0]["action"] == "ttl"
        assert decided[0]["ttl_batches"] == 8
        assert decided[0]["previous"] == 4
        # At the cap the controller stays silent.
        assert controller.observe_window(
            _window(1, rows=16, expired=8, ttl_batches=256)) == []

    def test_admission_tightens_only_when_enabled(self):
        flooded = _window(0, hit_rate=0.0, inserted=14,
                          admission="always")
        assert AdaptivePolicyController().observe_window(
            dict(flooded)) == []
        controller = AdaptivePolicyController(
            ControllerConfig(adapt_admission=True))
        decided = controller.observe_window(dict(flooded))
        assert [d["action"] for d in decided] == ["admission"]
        assert decided[0]["admission"] == "frequency"

    def test_scheduler_grows_signature_bits_on_a_plateau(self):
        scheduler = SignatureLengthScheduler(initial_bits=16,
                                             max_bits=18,
                                             plateau_iterations=1,
                                             tolerance=1.0)
        controller = AdaptivePolicyController(scheduler=scheduler)
        assert controller.observe_window(
            _window(0, hit_rate=0.1, signature_bits=16)) == []
        decided = controller.observe_window(
            _window(1, hit_rate=0.1, signature_bits=16))
        assert [d["action"] for d in decided] == ["signature_bits"]
        assert decided[0]["signature_bits"] == 17
        assert decided[0]["previous"] == 16
        assert controller.describe()["scheduler"]["max_bits"] == 18

    def test_reset_forgets_everything(self):
        controller = AdaptivePolicyController()
        controller.observe_window(_window(0, hit_rate=0.6))
        controller.observe_window(_window(1, hit_rate=0.1))
        assert controller.decisions
        controller.reset()
        assert controller.decisions == []
        # No reference survives the reset: a low window is not a
        # collapse any more.
        assert controller.observe_window(_window(0, hit_rate=0.1)) == []

    def test_replay_from_bare_windows_matches_live(self):
        windows = [_window(0, hit_rate=0.6), _window(1, hit_rate=0.1),
                   _window(2, hit_rate=0.0), _window(3, hit_rate=0.55),
                   _window(4, rows=16, expired=8, ttl_batches=4)]
        controller = AdaptivePolicyController()
        for window in windows:
            controller.observe_window(window)
        assert replay_decisions(windows) == controller.decisions


class TestTelemetryBundle:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            Telemetry(window_batches=0)

    def test_summary_and_prometheus_track_the_bus(self):
        telemetry = Telemetry()
        telemetry.bus.emit("batcher.batch", size=4)
        summary = telemetry.summary()
        assert summary == {"events": 1, "dropped": 0, "handled": 1,
                           "decisions": 0}
        text = telemetry.render_prometheus()
        assert "repro_bus_events_total 1" in text
        assert "repro_bus_dropped_total 0" in text
        assert "repro_serving_batches_total 1" in text


def _churn_pieces(telemetry=None):
    point = ServingPoint(**CHURN)
    return serving_pieces(point, telemetry=telemetry)


class TestServingEndToEnd:
    def test_telemetry_on_replay_is_byte_identical(self):
        _, pool, trace, bare = _churn_pieces()
        bare_outputs, bare_report = bare.replay(trace, pool)

        telemetry = Telemetry(window_batches=2)
        _, pool, trace, observed = _churn_pieces(telemetry)
        outputs, report = observed.replay(trace, pool)

        for ours, theirs in zip(outputs, bare_outputs):
            assert ours.tobytes() == theirs.tobytes()
        assert report.hit_rate == bare_report.hit_rate
        assert report.batches == bare_report.batches
        assert report.request_cache == bare_report.request_cache
        assert report.shard_stats == bare_report.shard_stats
        # ... and the observed run actually observed something.
        assert report.telemetry["events"] > 0
        assert report.telemetry["dropped"] == 0
        assert bare_report.telemetry == {}
        assert report.latency_p50_ms > 0.0

    def test_controller_beats_static_policy_on_churn(self, tmp_path):
        _, pool, trace, static_server = _churn_pieces()
        _, static = static_server.replay(trace, pool)

        telemetry = Telemetry(audit_dir=tmp_path,
                              controller=AdaptivePolicyController(),
                              window_batches=2,
                              seeds={"trace": CHURN["seed"]})
        _, pool, trace, adaptive_server = _churn_pieces(telemetry)
        _, adaptive = adaptive_server.replay(trace, pool)

        # The static no-replacement cache pins the first hot set and
        # collapses at every rotation; the controller's flash clears
        # free the sets and restore steady-state hits.
        assert adaptive.telemetry["decisions"] >= 1
        assert adaptive.hit_rate > static.hit_rate + 0.05

        # Every decision is reproducible from the manifest alone.
        manifest = read_manifest(tmp_path)
        assert manifest["kind"] == "replay"
        assert manifest["seeds"] == {"trace": CHURN["seed"]}
        assert manifest["config"]["window_batches"] == 2
        assert len(manifest["windows"]) > 0
        assert len(manifest["decisions"]) \
            == adaptive.telemetry["decisions"]
        assert any(d["action"] == "flash_clear"
                   for d in manifest["decisions"])
        assert replay_decisions(manifest) == manifest["decisions"]
        # The digest survives into the rendered view.
        assert "flash_clear" in render_manifest(manifest)

    def test_metrics_endpoint_payload(self):
        telemetry = Telemetry(window_batches=2)
        _, pool, trace, server = _churn_pieces(telemetry)
        server.replay(trace, pool)
        text = server.metrics_text()
        assert f"repro_serving_requests_total {CHURN['num_requests']}" \
            in text
        # Replay simulates latencies at report time, so the live
        # latency series is absent; the batch-shape histogram is real.
        assert "repro_serving_batch_size_count" in text
        assert 'repro_reuse_hit_rate{phase="serving"}' in text
        assert "repro_bus_events_total" in text

    def test_metrics_text_requires_telemetry(self):
        _, pool, trace, server = _churn_pieces()
        with pytest.raises(RuntimeError, match="telemetry"):
            server.metrics_text()


class TestTrainingTelemetry:
    def test_trainer_reports_per_epoch_reuse_through_the_bus(self):
        from repro import MercuryConfig, ReuseEngine
        from repro.data.synthetic_images import (ClusteredImageDataset,
                                                 ImageDatasetConfig)
        from repro.nn import (Conv2D, GlobalAvgPool2D, Linear, ReLU,
                              Sequential)
        from repro.training.trainer import Trainer, TrainingConfig

        dataset = ClusteredImageDataset(ImageDatasetConfig(
            num_classes=3, samples_per_class=8, image_size=12))
        model = Sequential(Conv2D(3, 6, 3, padding=1, seed=0), ReLU(),
                           GlobalAvgPool2D(), Linear(6, 3, seed=1))
        engine = ReuseEngine(MercuryConfig(signature_bits=16))
        telemetry = Telemetry()
        trainer = Trainer(model,
                          TrainingConfig(epochs=2, batch_size=6,
                                         learning_rate=0.02,
                                         optimizer="adam"),
                          engine=engine, bus=telemetry.bus)
        result = trainer.fit(dataset.images, dataset.labels)
        telemetry.pump()
        registry = telemetry.registry
        assert registry.counter("repro_training_epochs_total") == 2
        assert registry.counter("repro_reuse_requests_total",
                                phase="training") > 0
        assert registry.gauge("repro_training_loss") \
            == pytest.approx(result.epoch_losses[-1])
        assert registry.gauge("repro_training_accuracy") \
            == pytest.approx(result.epoch_train_accuracy[-1])
        assert registry.gauge("repro_reuse_signature_bits",
                              phase="training") == 16

    def test_trainer_without_a_bus_emits_nothing(self):
        from repro.training.trainer import Trainer, TrainingConfig
        from repro.nn import Linear, Sequential
        import numpy as np

        model = Sequential(Linear(4, 2, seed=0))
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4))
        rng = np.random.default_rng(0)
        result = trainer.fit(rng.normal(size=(8, 4)).astype(np.float32),
                             rng.integers(0, 2, size=8))
        assert trainer.bus is None
        assert result.iterations == 2
