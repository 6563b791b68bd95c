"""The reuse-aware serving subsystem: caches, batcher, server, traffic."""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.serving import (
    BatcherConfig,
    InferenceServer,
    MicroBatcher,
    ServingPolicy,
    ServingReuseEngine,
    SignatureResultCache,
    TrafficConfig,
    build_request_pool,
    generate_trace,
)
from repro.serving.loadgen import TRAFFIC_PATTERNS, trace_summary


# ----------------------------------------------------------------------
# SignatureResultCache
# ----------------------------------------------------------------------
class TestSignatureResultCache:
    @staticmethod
    def _compute(vectors, weights):
        return lambda rows: vectors[rows] @ weights

    def test_cross_batch_reuse(self, rng):
        policy = ServingPolicy(entries=64, ways=4, signature_bits=24)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(6, 10))
        weights = rng.normal(size=(10, 3))
        first, outcome1 = cache.serve(vectors,
                                      self._compute(vectors, weights), 0)
        assert outcome1.cross_hit_rows == 0
        assert outcome1.computed_unique == 6
        second, outcome2 = cache.serve(vectors,
                                       self._compute(vectors, weights), 1)
        assert outcome2.cross_hit_rows == 6
        assert outcome2.computed_unique == 0
        np.testing.assert_array_equal(first, second)

    def test_width_change_is_refused_before_any_bookkeeping(self, rng):
        """A payload of another width than the stored ones fails the
        call before it counts a request or claims a line."""
        cache = SignatureResultCache(ServingPolicy(entries=64, ways=4))
        wide = rng.normal(size=(2, 12))
        cache.serve(wide, self._compute(wide, rng.normal(size=(12, 3))), 0)
        narrow = rng.normal(size=(1, 8))
        with pytest.raises(ValueError, match="width changed mid-stream"):
            cache.serve(narrow,
                        self._compute(narrow, rng.normal(size=(8, 3))), 1)
        with pytest.raises(ValueError, match="width changed mid-stream"):
            cache.admit_external(narrow[0], np.zeros(3), 1)
        with pytest.raises(ValueError, match="width changed mid-stream"):
            cache.admit_external(wide[0] + 1, np.zeros(5), 1)
        counters = cache.counters
        assert (counters.requests, counters.computed,
                counters.replicated) == (2, 2, 0)
        assert cache.occupancy() == 2

    def test_payload_width_is_kept_without_exact_check(self, rng):
        """Without ``exact_check`` no payload is stored, yet the first
        serve records the stream's payload width, and a payload of
        another width is refused before any counter, hash or probe
        moves (it used to hash by another projection into the same
        lines and hit rows of the old width).  The snapshot carries the
        width to a restored cache."""
        policy = ServingPolicy(entries=64, ways=64, signature_bits=2,
                               exact_check=False)
        cache = SignatureResultCache(policy)
        wide = rng.normal(size=(8, 12))
        cache.serve(wide, self._compute(wide, rng.normal(size=(12, 3))), 0)
        narrow = rng.normal(size=(8, 8))
        for target in (cache, SignatureResultCache(policy)):
            if target is not cache:
                target.load_state_dict(*cache.state_dict())
            before = dict(vars(target.counters))
            lines = target.occupancy()
            hashed, computed = [], []
            signatures = target.hasher.signatures
            target.hasher.signatures = \
                lambda *args: hashed.append(args) or signatures(*args)
            with pytest.raises(ValueError, match="width changed mid-stream"):
                target.serve(narrow, computed.append, 1)
            with pytest.raises(ValueError, match="width changed mid-stream"):
                target.admit_external(narrow[0], np.zeros(3), 1)
            assert hashed == [] and computed == []
            assert vars(target.counters) == before
            assert target.occupancy() == lines

    def test_intra_batch_duplicates_share_one_compute(self, rng):
        policy = ServingPolicy(entries=64, ways=4)
        cache = SignatureResultCache(policy)
        row = rng.normal(size=10)
        vectors = np.stack([row, row, row])
        weights = rng.normal(size=(10, 3))
        calls = []

        def compute(rows):
            calls.append(len(rows))
            return vectors[rows] @ weights

        results, outcome = cache.serve(vectors, compute, 0)
        assert calls == [1]
        assert outcome.intra_hit_rows == 2
        np.testing.assert_array_equal(results[0], results[1])

    def test_capacity_rejects_without_replacement(self, rng):
        # One set, one way: the second distinct signature can never be
        # admitted, so it is recomputed on every batch (MNU semantics).
        policy = ServingPolicy(entries=1, ways=1, signature_bits=16)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(2, 8))
        weights = rng.normal(size=(8, 2))
        cache.serve(vectors, self._compute(vectors, weights), 0)
        assert cache.occupancy() == 1
        _, outcome = cache.serve(vectors, self._compute(vectors, weights), 1)
        assert outcome.cross_hit_rows == 1
        assert outcome.rejected_unique == 1
        assert cache.counters.rejected >= 1

    def test_ttl_refreshes_stale_entries(self, rng):
        policy = ServingPolicy(entries=64, ways=4, ttl_batches=2)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(3, 8))
        weights = rng.normal(size=(8, 2))
        cache.serve(vectors, self._compute(vectors, weights), 0)
        # Within TTL: served from the store.
        _, fresh = cache.serve(vectors, self._compute(vectors, weights), 2)
        assert fresh.cross_hit_rows == 3
        # Past TTL: recomputed and refreshed in place.
        _, stale = cache.serve(vectors, self._compute(vectors, weights), 5)
        assert stale.cross_hit_rows == 0
        assert stale.computed_unique == 3
        assert cache.counters.expired == 3
        # The refresh reset the age clock.
        _, again = cache.serve(vectors, self._compute(vectors, weights), 6)
        assert again.cross_hit_rows == 3

    def test_ttl_zero_expires_immediately(self, rng):
        # ttl_batches=0 must mean "expire immediately": entries only
        # serve within the micro-batch index that wrote them, so
        # cross-batch reuse is off while intra-batch dedup still works.
        policy = ServingPolicy(entries=64, ways=4, ttl_batches=0)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(3, 8))
        weights = rng.normal(size=(8, 2))
        cache.serve(vectors, self._compute(vectors, weights), 0)
        # Same batch index: still valid.
        _, same = cache.serve(vectors, self._compute(vectors, weights), 0)
        assert same.cross_hit_rows == 3
        # Any later batch: expired and refreshed, every time.
        _, later = cache.serve(vectors, self._compute(vectors, weights), 1)
        assert later.cross_hit_rows == 0
        assert later.computed_unique == 3
        assert cache.counters.expired == 3
        _, again = cache.serve(vectors, self._compute(vectors, weights), 2)
        assert again.cross_hit_rows == 0

    def test_ttl_none_never_expires(self, rng):
        policy = ServingPolicy(entries=64, ways=4, ttl_batches=None)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(3, 8))
        weights = rng.normal(size=(8, 2))
        cache.serve(vectors, self._compute(vectors, weights), 0)
        _, outcome = cache.serve(vectors, self._compute(vectors, weights),
                                 10_000)
        assert outcome.cross_hit_rows == 3
        assert cache.counters.expired == 0

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError, match="ttl_batches"):
            ServingPolicy(ttl_batches=-1)

    def test_exact_check_demotes_collisions(self, rng):
        # 1-bit signatures guarantee aliasing between distinct vectors.
        policy = ServingPolicy(entries=4, ways=2, signature_bits=1,
                               exact_check=True)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(8, 6))
        weights = rng.normal(size=(6, 2))
        results, _ = cache.serve(vectors, self._compute(vectors, weights), 0)
        np.testing.assert_array_equal(results, vectors @ weights)
        more = rng.normal(size=(8, 6))
        results2, _ = cache.serve(more, self._compute(more, weights), 1)
        np.testing.assert_array_equal(results2, more @ weights)
        assert cache.counters.collisions > 0

    def test_signature_trust_mode_shares_colliding_rows(self, rng):
        policy = ServingPolicy(entries=64, ways=4, signature_bits=1,
                               exact_check=False)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(8, 6))
        weights = rng.normal(size=(6, 2))
        results, outcome = cache.serve(vectors,
                                       self._compute(vectors, weights), 0)
        # At most two unique signatures exist at 1 bit.
        assert outcome.unique <= 2
        assert outcome.intra_hit_rows >= 6

    def test_row_accounting_is_consistent(self, rng, make_trace):
        policy = ServingPolicy(entries=32, ways=2, signature_bits=20)
        cache = SignatureResultCache(policy)
        weights = rng.normal(size=(8, 2))
        for batch in range(4):
            vectors = rng.normal(size=(20, 8))
            # Repeat some rows to force intra hits.
            vectors[10:] = vectors[:10]
            _, outcome = cache.serve(vectors,
                                     self._compute(vectors, weights), batch)
            assert (outcome.cross_hit_rows + outcome.intra_hit_rows
                    + outcome.computed_unique + outcome.aliased_rows
                    == outcome.rows)
        counters = cache.counters
        assert counters.requests == 80
        assert counters.hits + counters.computed == counters.requests


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
class TestAdmissionPolicies:
    @staticmethod
    def _compute(vectors, weights):
        return lambda rows: vectors[rows] @ weights

    def test_frequency_gate_defers_first_sighting(self, rng):
        policy = ServingPolicy(entries=64, ways=4, admission="frequency",
                               admission_min_frequency=2)
        cache = SignatureResultCache(policy)
        vectors = rng.normal(size=(4, 8))
        weights = rng.normal(size=(8, 2))
        # First sighting: computed but not admitted.
        _, first = cache.serve(vectors, self._compute(vectors, weights), 0)
        assert first.inserted_unique == 0
        assert first.rejected_unique == 4
        assert cache.occupancy() == 0
        # Second sighting reaches the frequency bar: admitted now.
        _, second = cache.serve(vectors, self._compute(vectors, weights), 1)
        assert second.inserted_unique == 4
        assert cache.occupancy() == 4
        # Third sighting: served from the cache.
        _, third = cache.serve(vectors, self._compute(vectors, weights), 2)
        assert third.cross_hit_rows == 4

    def test_frequency_gate_counts_rows_not_batches(self, rng):
        policy = ServingPolicy(entries=64, ways=4, admission="frequency",
                               admission_min_frequency=2)
        cache = SignatureResultCache(policy)
        row = rng.normal(size=8)
        vectors = np.stack([row, row])  # two rows, one signature
        weights = rng.normal(size=(8, 2))
        _, outcome = cache.serve(vectors, self._compute(vectors, weights), 0)
        # Two sightings in one batch satisfy min_frequency=2.
        assert outcome.inserted_unique == 1
        assert cache.occupancy() == 1

    def test_one_shot_traffic_never_pollutes_frequency_cache(self, rng):
        policy = ServingPolicy(entries=64, ways=4, admission="frequency",
                               admission_min_frequency=3)
        cache = SignatureResultCache(policy)
        weights = rng.normal(size=(8, 2))
        for batch in range(5):
            vectors = rng.normal(size=(6, 8))  # fresh payloads every time
            cache.serve(vectors, self._compute(vectors, weights), batch)
        assert cache.occupancy() == 0

    def test_size_gate_blocks_oversized_payloads(self, rng):
        small = ServingPolicy(entries=64, ways=4, admission="size",
                              admission_max_bytes=8 * 8)
        cache = SignatureResultCache(small)
        wide = rng.normal(size=(3, 16))  # 128 payload bytes > 64 allowed
        weights = rng.normal(size=(16, 2))
        _, outcome = cache.serve(wide, self._compute(wide, weights), 0)
        assert outcome.inserted_unique == 0
        assert cache.occupancy() == 0
        narrow_cache = SignatureResultCache(small)
        narrow = rng.normal(size=(3, 8))  # exactly at the 64-byte cap
        weights8 = rng.normal(size=(8, 2))
        _, admitted = narrow_cache.serve(narrow,
                                         self._compute(narrow, weights8), 0)
        assert admitted.inserted_unique == 3

    def test_admission_results_stay_correct(self, rng):
        # Whatever the gate decides, served rows equal the plain matmul.
        for admission in ("always", "frequency", "size"):
            policy = ServingPolicy(entries=64, ways=4, admission=admission,
                                   admission_max_bytes=1)
            cache = SignatureResultCache(policy)
            weights = rng.normal(size=(8, 2))
            for batch in range(3):
                vectors = rng.normal(size=(10, 8))
                vectors[5:] = vectors[:5]
                results, _ = cache.serve(vectors,
                                         self._compute(vectors, weights),
                                         batch)
                np.testing.assert_array_equal(results, vectors @ weights)

    def test_always_admits_in_arrival_order(self):
        """A full set keeps the first arrivals under every admission
        policy, not the smallest signatures."""
        class FirstColumnHasher:
            def signatures(self, vectors, signature_bits):
                return vectors[:, 0].astype(np.int64)

        def kept(admission, vectors, entries, ways):
            policy = ServingPolicy(entries=entries, ways=ways,
                                   admission=admission,
                                   admission_min_frequency=1,
                                   exact_check=False)
            cache = SignatureResultCache(policy, hasher=FirstColumnHasher())
            _, outcome = cache.serve(vectors, lambda rows: vectors[rows], 0)
            probe = cache.mcache.probe_batch(
                np.unique(vectors[:, 0].astype(np.int64)))[0]
            return outcome, probe.tolist()

        # One set, one way: signature 7 arrives first and claims it.
        first_wins = np.array([[7.0], [3.0]])
        for admission in ("always", "frequency"):
            outcome, resident = kept(admission, first_wins, 1, 1)
            assert resident == [False, True]          # 3 out, 7 in
            assert (outcome.inserted_unique, outcome.rejected_unique) \
                == (1, 1)

        # A batch that overflows its sets: both policies keep the same
        # lines, in arrival order.
        rng = np.random.default_rng(5)
        overflow = rng.permutation(40).astype(np.float64)[:, None]
        overflow = np.concatenate([overflow, overflow[:10]])
        assert kept("always", overflow, 8, 2) == \
            kept("frequency", overflow, 8, 2)

    def test_invalid_admission_configs_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            ServingPolicy(admission="sometimes")
        with pytest.raises(ValueError, match="admission_min_frequency"):
            ServingPolicy(admission="frequency", admission_min_frequency=0)
        with pytest.raises(ValueError, match="admission_max_bytes"):
            ServingPolicy(admission="size", admission_max_bytes=0)


# ----------------------------------------------------------------------
# ServingReuseEngine
# ----------------------------------------------------------------------
class TestServingReuseEngine:
    def test_persistent_across_calls(self, rng):
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True,
                                                  entries=256, ways=4))
        vectors = rng.normal(size=(10, 12))
        weights = rng.normal(size=(12, 4))
        engine.matmul(vectors, weights, layer="L")
        engine.end_batch()
        engine.matmul(vectors, weights, layer="L")
        record = engine.stats.get("L", "forward")
        assert record.hits == 10          # the whole second batch reused
        assert engine.counters().cross_hits == 10

    def test_layer_enable_patterns(self, rng):
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True,
                                                  layers=("conv",)))
        vectors = rng.normal(size=(4, 6))
        weights = rng.normal(size=(6, 2))
        engine.matmul(vectors, weights, layer="head:Linear")
        engine.matmul(vectors, weights, layer="stem:conv1")
        assert not engine.stats.get("head:Linear",
                                    "forward").similarity_detection_on
        assert engine.stats.get("stem:conv1",
                                "forward").similarity_detection_on

    def test_backward_phase_is_exact_passthrough(self, rng):
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True))
        vectors = rng.normal(size=(4, 6))
        weights = rng.normal(size=(6, 2))
        out = engine.matmul(vectors, weights, layer="L", phase="backward")
        np.testing.assert_array_equal(out, vectors @ weights)
        assert engine.counters().requests == 0

    def test_separate_caches_per_vector_length(self, rng):
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True))
        engine.matmul(rng.normal(size=(3, 6)), rng.normal(size=(6, 2)),
                      layer="L")
        engine.matmul(rng.normal(size=(3, 9)), rng.normal(size=(9, 2)),
                      layer="L")
        assert len(engine.occupancy()) == 2

    def test_data_dependent_weights_never_reuse(self, rng):
        # Attention-style calls multiply by the *batch itself* (a fresh
        # array every call); the weights-identity guard must turn those
        # streams into exact bypasses instead of serving rows computed
        # against another request's matrix.
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True))
        vectors = rng.normal(size=(4, 6))
        weights_a = rng.normal(size=(6, 4))
        weights_b = rng.normal(size=(6, 4))
        engine.matmul(vectors, weights_a, layer="attn")
        engine.end_batch()
        out = engine.matmul(vectors, weights_b, layer="attn")
        np.testing.assert_array_equal(out, vectors @ weights_b)
        assert engine.counters().cross_hits == 0
        # Once a stream is data-dependent it stays exact, even if the
        # first matrix reappears.
        engine.end_batch()
        out = engine.matmul(vectors, weights_a, layer="attn")
        np.testing.assert_array_equal(out, vectors @ weights_a)
        assert engine.counters().cross_hits == 0

    def test_weight_views_of_one_parameter_keep_matching(self, rng):
        # Conv hands the engine a fresh transpose view of its cached
        # weight matrix every call; views of one parameter must not
        # trip the data-dependent guard.
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True))
        parameter = rng.normal(size=(4, 6))
        vectors = rng.normal(size=(5, 6))
        engine.matmul(vectors, parameter.T, layer="conv")
        engine.end_batch()
        engine.matmul(vectors, parameter.T, layer="conv")
        assert engine.counters().cross_hits == 5

    def test_attaches_like_training_engine(self, rng):
        model = build_model("squeezenet", num_classes=3, seed=1)
        engine = ServingReuseEngine(ServingPolicy(vector_cache=True))
        model.set_engine(engine)
        model.eval()
        x = rng.normal(size=(2, 3, 12, 12))
        model(x)
        engine.end_batch()
        model(x)
        counters = engine.counters()
        assert counters.cross_hits > 0
        assert any(row["hit_fraction"] > 0 for row in engine.layer_summary())


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_batches_up_to_max_size(self):
        seen = []

        def process(batch):
            seen.append(len(batch))
            return [x * 2 for x in batch]

        async def drive():
            batcher = MicroBatcher(process,
                                   BatcherConfig(max_batch_size=4,
                                                 max_wait_s=0.05))
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(i)
                                             for i in range(10)))
            await batcher.stop()
            return results

        results = asyncio.run(drive())
        assert results == [i * 2 for i in range(10)]
        assert max(seen) <= 4
        assert sum(seen) == 10

    def test_max_wait_flushes_partial_batch(self):
        def process(batch):
            return list(batch)

        async def drive():
            batcher = MicroBatcher(process,
                                   BatcherConfig(max_batch_size=64,
                                                 max_wait_s=0.01))
            await batcher.start()
            result = await asyncio.wait_for(batcher.submit("only"),
                                            timeout=5)
            await batcher.stop()
            return result

        assert asyncio.run(drive()) == "only"

    def test_failures_propagate_per_request(self):
        def process(batch):
            raise RuntimeError("backend down")

        async def drive():
            batcher = MicroBatcher(process, BatcherConfig(max_wait_s=0.001))
            await batcher.start()
            with pytest.raises(RuntimeError, match="batch processing"):
                await batcher.submit(1)
            await batcher.stop()
            return batcher.telemetry

        telemetry = asyncio.run(drive())
        assert telemetry.failed == 1

    def test_running_is_false_once_the_collector_finishes(self):
        async def drive():
            batcher = MicroBatcher(list, BatcherConfig(max_wait_s=0.001))
            await batcher.start()
            states = [batcher.running]
            batcher._collector.cancel()
            with pytest.raises(asyncio.CancelledError):
                await batcher._collector
            states.append(batcher.running)
            await batcher.stop()
            states.append(batcher.running)
            return states

        assert asyncio.run(drive()) == [True, False, False]

    def test_stop_waits_for_inflight_submissions(self):
        # stop() must resolve every admitted submission — including
        # ones still suspended at their queue.put — before cancelling
        # the collector, or their futures would hang forever.
        def process(batch):
            return list(batch)

        async def drive():
            batcher = MicroBatcher(process,
                                   BatcherConfig(max_batch_size=2,
                                                 max_wait_s=0.001,
                                                 max_queue=2))
            await batcher.start()
            submissions = [asyncio.ensure_future(batcher.submit(i))
                           for i in range(12)]
            await asyncio.sleep(0)  # admit them, then stop immediately
            await batcher.stop()
            return await asyncio.gather(*submissions)

        assert asyncio.run(asyncio.wait_for(drive(), timeout=10)) == \
            list(range(12))

    def test_submit_requires_running_batcher(self):
        batcher = MicroBatcher(lambda batch: batch)

        async def drive():
            await batcher.submit(1)

        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(drive())

    def test_stop_parks_instead_of_busy_polling(self, monkeypatch):
        # Regression: stop() used to spin ``await asyncio.sleep(0)``
        # until in-flight submissions drained, burning the event loop.
        # It now parks on an event — a stop that has to wait makes no
        # zero-delay sleep calls at all.
        def process(batch):
            return list(batch)

        zero_sleeps = 0
        real_sleep = asyncio.sleep

        async def counting_sleep(delay, *args, **kwargs):
            nonlocal zero_sleeps
            if not delay:
                zero_sleeps += 1
            return await real_sleep(delay, *args, **kwargs)

        async def drive():
            batcher = MicroBatcher(process,
                                   BatcherConfig(max_batch_size=2,
                                                 max_wait_s=0.001,
                                                 max_queue=2))
            await batcher.start()
            submissions = [asyncio.ensure_future(batcher.submit(i))
                           for i in range(8)]
            await real_sleep(0)  # admit them, then stop while pending
            monkeypatch.setattr(asyncio, "sleep", counting_sleep)
            await batcher.stop()
            monkeypatch.setattr(asyncio, "sleep", real_sleep)
            return await asyncio.gather(*submissions)

        results = asyncio.run(asyncio.wait_for(drive(), timeout=10))
        assert results == list(range(8))
        assert zero_sleeps == 0

    def test_cancelled_request_is_dropped_before_processing(self):
        # A caller that gives up while its request waits in an open
        # batch costs no compute: the collector drops it.
        seen = []

        def process(batch):
            seen.extend(batch)
            return list(batch)

        async def drive():
            batcher = MicroBatcher(process,
                                   BatcherConfig(max_batch_size=8,
                                                 max_wait_s=0.5))
            await batcher.start()
            doomed = asyncio.ensure_future(batcher.submit("doomed"))
            await asyncio.sleep(0.05)  # queued and collected, batch open
            assert batcher.telemetry.submitted == 1
            doomed.cancel()
            kept = await batcher.submit("kept")
            await batcher.stop()
            return doomed, kept, batcher.telemetry

        doomed, kept, telemetry = asyncio.run(
            asyncio.wait_for(drive(), timeout=10))
        assert doomed.cancelled()
        assert kept == "kept"
        assert seen == ["kept"]
        assert telemetry.cancelled == 1
        assert (telemetry.rows, telemetry.completed) == (1, 1)


# ----------------------------------------------------------------------
# Bounded telemetry
# ----------------------------------------------------------------------
class TestBatcherTelemetry:
    #: Three reservoirs' worth of values: long enough that a fixed-size
    #: sample would have started evicting.
    STREAM = np.arange(1, 3 * 4096 + 1) * 1e-4

    def _telemetry(self):
        from repro.serving.batcher import BatcherTelemetry
        telemetry = BatcherTelemetry()
        for index, value in enumerate(self.STREAM):
            telemetry.record_latency(value)
            telemetry.record_batch(1 + index % 8)
        return telemetry

    def test_memory_stays_bounded_and_counters_stay_exact(self):
        telemetry = self._telemetry()
        histogram = telemetry.latency_hist
        # The histogram's size follows the stream's dynamic range, not
        # its length...
        assert histogram.count == len(self.STREAM)
        assert len(histogram.buckets) <= math.ceil(math.log(
            self.STREAM.max() / self.STREAM.min(), histogram.growth)) + 1
        # ...while the counters (and mean batch size) remain exact.
        assert telemetry.batches == len(self.STREAM)
        assert telemetry.rows == sum(1 + index % 8
                                     for index in range(len(self.STREAM)))
        assert telemetry.mean_batch_size == \
            telemetry.rows / telemetry.batches

    def test_histogram_percentiles_track_exact_values(self):
        histogram = self._telemetry().latency_hist
        for q in (50, 99):
            exact = float(np.percentile(self.STREAM, q))
            assert abs(histogram.percentile(q) - exact) / exact \
                < histogram.growth - 1.0


# ----------------------------------------------------------------------
# Signature-hash routing
# ----------------------------------------------------------------------
class TestConsistentHashRing:
    def test_route_many_bit_identical_to_scalar_route(self, rng):
        from repro.serving.router import ConsistentHashRing
        for shards in (1, 2, 5):
            ring = ConsistentHashRing(shards)
            keys = [rng.bytes(17) for _ in range(200)]
            vectorized = ring.route_many(keys)
            assert vectorized.dtype == np.int64
            assert list(vectorized) == [ring.route(key) for key in keys]

    def test_route_many_handles_empty_batches(self):
        from repro.serving.router import ConsistentHashRing
        routed = ConsistentHashRing(3).route_many([])
        assert routed.size == 0 and routed.dtype == np.int64

    def test_route_is_the_first_ring_point_at_or_after_the_key(self, rng):
        # The ring's contract, rebuilt with numpy: SHA-256 label points
        # searched with ``searchsorted(side="left")``, wrapping past the
        # last point.
        import hashlib

        from repro.serving.router import ConsistentHashRing
        for shards in (2, 3):
            ring = ConsistentHashRing(shards, replicas=16)
            labels = sorted(
                (int.from_bytes(hashlib.sha256(
                    f"shard:{shard}:replica:{replica}".encode()).digest()[:8],
                    "big"), shard)
                for shard in range(shards) for replica in range(16))
            points = np.array([point for point, _ in labels],
                              dtype=np.uint64)
            keys = [rng.bytes(9) for _ in range(300)]
            keys += [point.to_bytes(8, "big") for point, _ in labels[:4]]
            for key in keys:
                point = int.from_bytes(hashlib.sha256(key).digest()[:8],
                                       "big")
                index = int(np.searchsorted(points, np.uint64(point)))
                assert ring.route(key) == labels[index % len(labels)][1]


# ----------------------------------------------------------------------
# Hot-key replication tracking
# ----------------------------------------------------------------------
class TestHotKeyTracker:
    def _tracker(self, **kwargs):
        from repro.serving.router import HotKeyTracker
        return HotKeyTracker(**{"top_k": 2, "min_count": 3, **kwargs})

    def test_promotion_is_first_to_threshold_and_sticky(self):
        tracker = self._tracker()
        for _ in range(2):
            assert not tracker.observe(b"hot")
        assert tracker.observe(b"hot")  # third observation promotes
        assert tracker.is_replicated(b"hot")
        # Sticky: membership never flaps, even if other keys get hotter.
        for _ in range(50):
            tracker.observe(b"hotter")
        assert tracker.is_replicated(b"hot")
        # top_k bounds the replicated set.
        assert not tracker.observe(b"third-key")
        assert sum(tracker.is_replicated(key)
                   for key in (b"hot", b"hotter", b"third-key")) <= 2

    def test_top_k_zero_never_replicates(self):
        tracker = self._tracker(top_k=0)
        for _ in range(100):
            assert not tracker.observe(b"hot")

    def test_spread_round_robins_from_the_ring_owner(self):
        tracker = self._tracker(min_count=1)
        tracker.observe(b"hot")
        shards = 3
        targets = [tracker.spread(b"hot", home=2, shards=shards)
                   for _ in range(6)]
        # Starts at the owner, then cycles every shard deterministically.
        assert targets == [2, 0, 1, 2, 0, 1]

    def test_count_map_is_bounded(self):
        tracker = self._tracker(top_k=1, min_count=10, capacity=16)
        for index in range(200):
            tracker.observe(f"key-{index}".encode())
        assert len(tracker._counts) <= 16

    def test_rejects_bad_configs(self):
        from repro.serving.router import HotKeyTracker
        with pytest.raises(ValueError):
            HotKeyTracker(top_k=-1)
        with pytest.raises(ValueError):
            HotKeyTracker(top_k=1, min_count=0)
        with pytest.raises(ValueError):
            HotKeyTracker(top_k=1, capacity=0)


# ----------------------------------------------------------------------
# Shared L2 tier
# ----------------------------------------------------------------------
class TestSharedL2Cache:
    def test_lookup_is_exact_and_lru_bounded(self, rng):
        from repro.serving import SharedL2Cache
        l2 = SharedL2Cache(capacity=2)
        rows = rng.normal(size=(3, 4))
        payloads = rng.normal(size=(3, 6))
        assert l2.lookup(payloads[0]) is None
        l2.insert(payloads[0], rows[0])
        l2.insert(payloads[1], rows[1])
        np.testing.assert_array_equal(l2.lookup(payloads[0]), rows[0])
        # Inserting a third entry evicts the LRU one (payloads[1]).
        l2.insert(payloads[2], rows[2])
        assert len(l2) == 2
        assert l2.lookup(payloads[1]) is None
        np.testing.assert_array_equal(l2.lookup(payloads[0]), rows[0])
        # A byte-different payload never matches.
        assert l2.lookup(payloads[0] + 1e-16) is None

    def test_flush_and_reload_round_trip(self, rng, tmp_path):
        from repro.serving import SharedL2Cache
        donor = SharedL2Cache(directory=tmp_path / "l2")
        payloads = rng.normal(size=(4, 6))
        rows = rng.normal(size=(4, 3))
        donor.bind_model("fingerprint-a")
        for payload, row in zip(payloads, rows):
            donor.insert(payload, row, output_tail=(3,))
        donor.flush()
        reloaded = SharedL2Cache(directory=tmp_path / "l2")
        assert len(reloaded) == 4
        assert reloaded.output_tail == (3,)
        assert reloaded.model_fingerprint == "fingerprint-a"
        for payload, row in zip(payloads, rows):
            np.testing.assert_array_equal(reloaded.lookup(payload), row)
        # Repeated flushes clean up stale generations.
        reloaded.flush()
        reloaded.flush()
        state_files = list((tmp_path / "l2").glob("l2-state-*.npz"))
        assert len(state_files) == 1
        assert not list((tmp_path / "l2").glob(".tmp-*"))

    def test_model_binding_refuses_stale_stores(self, rng, tmp_path):
        from repro.serving import SharedL2Cache
        donor = SharedL2Cache(directory=tmp_path / "l2")
        donor.bind_model("fingerprint-a")
        donor.insert(rng.normal(size=6), rng.normal(size=3))
        donor.flush()
        reloaded = SharedL2Cache(directory=tmp_path / "l2")
        with pytest.raises(ValueError, match="different model"):
            reloaded.bind_model("fingerprint-b")

    def test_warm_load_is_counted_once_a_server_binds_the_bus(
            self, rng, tmp_path):
        from repro.obs import Telemetry
        from repro.serving import SharedL2Cache
        model = build_model("squeezenet", num_classes=4, seed=3)
        policy = ServingPolicy(entries=16, ways=16)
        donor = InferenceServer(model, policy,
                                l2=SharedL2Cache(directory=tmp_path / "l2"))
        donor.l2.insert(rng.normal(size=6), rng.normal(size=3))
        donor.l2.flush()
        server = InferenceServer(model, policy, telemetry=Telemetry(),
                                 l2=SharedL2Cache(directory=tmp_path / "l2"))
        assert len(server.l2) == 1
        assert "repro_l2_loads_total 1" in server.metrics_text()

    def test_server_rejects_l2_without_request_cache(self):
        from repro.serving import SharedL2Cache
        model = build_model("squeezenet", num_classes=4, seed=3)
        with pytest.raises(ValueError):
            InferenceServer(
                model,
                ServingPolicy(request_cache=False, vector_cache=True),
                l2=SharedL2Cache())

    def test_empty_store_flushes_and_reloads(self, tmp_path):
        from repro.serving import SharedL2Cache
        SharedL2Cache(directory=tmp_path / "l2").flush()
        assert len(SharedL2Cache(directory=tmp_path / "l2")) == 0

    def test_flush_requires_a_directory(self):
        from repro.serving import SharedL2Cache
        with pytest.raises(RuntimeError, match="no directory"):
            SharedL2Cache().flush()


# ----------------------------------------------------------------------
# Traffic generation
# ----------------------------------------------------------------------
class TestLoadGen:
    def test_traces_are_deterministic(self):
        config = TrafficConfig(pattern="zipfian", num_requests=50, seed=7)
        assert generate_trace(config, 16) == generate_trace(config, 16)

    def test_zipf_rotation_moves_the_hot_set_between_epochs(self):
        config = TrafficConfig(pattern="zipfian", num_requests=120,
                               zipf_rotate_every=40, seed=7)
        trace = generate_trace(config, 30)
        assert trace == generate_trace(config, 30)  # still deterministic
        epochs = [trace[0:40], trace[40:80], trace[80:120]]
        tops = [np.bincount([r.pool_index for r in epoch],
                            minlength=30).argmax() for epoch in epochs]
        # The rank→payload rotation gives each epoch its own hot key.
        assert len(set(tops)) == 3
        # Stationary config is unchanged by the default knob value.
        plain = TrafficConfig(pattern="zipfian", num_requests=120, seed=7)
        assert generate_trace(plain, 30) == generate_trace(
            TrafficConfig(pattern="zipfian", num_requests=120,
                          zipf_rotate_every=0, seed=7), 30)
        with pytest.raises(ValueError, match="zipf_rotate_every"):
            TrafficConfig(zipf_rotate_every=-1)

    @pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
    def test_patterns_produce_valid_traces(self, pattern):
        config = TrafficConfig(pattern=pattern, num_requests=64, seed=3)
        trace = generate_trace(config, 16)
        assert len(trace) == 64
        arrivals = [request.arrival_s for request in trace]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert all(0 <= request.pool_index < 16 for request in trace)

    def test_zipfian_is_skewed(self):
        uniform = generate_trace(TrafficConfig(pattern="uniform",
                                               num_requests=400, seed=0), 64)
        zipf = generate_trace(TrafficConfig(pattern="zipfian",
                                            num_requests=400, seed=0), 64)
        assert trace_summary(zipf)["top_key_share"] > \
            trace_summary(uniform)["top_key_share"]

    def test_bursty_has_wider_gap_spread(self):
        uniform = generate_trace(TrafficConfig(pattern="uniform",
                                               num_requests=256, seed=0), 8)
        bursty = generate_trace(TrafficConfig(pattern="bursty",
                                              num_requests=256, seed=0), 8)

        def gap_cv(trace):
            arrivals = np.array([r.arrival_s for r in trace])
            gaps = np.diff(arrivals)
            return gaps.std() / gaps.mean()

        assert gap_cv(bursty) > gap_cv(uniform)

    def test_pool_shapes(self):
        images = build_request_pool("squeezenet", pool_size=6, image_size=12)
        assert images.shape == (6, 3, 12, 12)
        tokens = build_request_pool("transformer", pool_size=6)
        assert tokens.shape[0] == 6
        assert tokens.dtype.kind in "iu"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(pattern="nope")
        with pytest.raises(ValueError):
            TrafficConfig(num_requests=0)


# ----------------------------------------------------------------------
# InferenceServer
# ----------------------------------------------------------------------
@pytest.fixture
def small_pool():
    return build_request_pool("squeezenet", pool_size=8, image_size=12,
                              seed=0)


@pytest.fixture
def zipf_trace():
    return generate_trace(TrafficConfig(pattern="zipfian", num_requests=60,
                                        seed=1), 8)


class TestInferenceServer:
    def test_exact_mode_bit_identical_to_oracle(self, small_pool, zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model,
            ServingPolicy(request_cache=True, vector_cache=False,
                          exact_check=True, compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.001))
        outputs, report = server.replay(zipf_trace, small_pool)
        oracle = server.oracle_outputs(small_pool)
        for request, output in zip(zipf_trace, outputs):
            np.testing.assert_array_equal(output,
                                          oracle[request.pool_index])
        assert report.hit_rate > 0
        assert report.requests == 60

    def test_vector_mode_near_exact_with_check(self, small_pool, zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model,
            ServingPolicy(request_cache=False, vector_cache=True,
                          exact_check=True, entries=8192, ways=16))
        outputs, report = server.replay(zipf_trace, small_pool)
        oracle = server.oracle_outputs(small_pool)
        deviation = max(
            float(np.max(np.abs(out - oracle[req.pool_index])))
            for req, out in zip(zipf_trace, outputs))
        assert deviation < 1e-9
        assert report.hit_rate > 0
        assert report.layer_stats

    def test_replay_is_deterministic(self, small_pool, zipf_trace):
        def run():
            model = build_model("squeezenet", num_classes=4, seed=3)
            server = InferenceServer(
                model, ServingPolicy(compute="per_request"))
            outputs, report = server.replay(zipf_trace, small_pool)
            return outputs, report

        outputs_a, report_a = run()
        outputs_b, report_b = run()
        for left, right in zip(outputs_a, outputs_b):
            np.testing.assert_array_equal(left, right)
        assert report_a.request_cache == report_b.request_cache
        assert report_a.batches == report_b.batches

    def test_second_replay_reports_its_own_batches(self, small_pool,
                                                   zipf_trace):
        """A report's ``batches`` counts its own run, with telemetry off;
        ``stats()`` stays lifetime."""
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy())
        assert server.telemetry is None
        _, first = server.replay(zipf_trace, small_pool)
        _, second = server.replay(zipf_trace, small_pool)
        # Batch membership depends only on the trace and the batcher.
        assert 0 < second.batches == first.batches < len(zipf_trace)
        assert server.stats()["batches"] == first.batches + second.batches

    def test_async_serve_trace(self, small_pool, zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy())
        outputs, report = server.serve_trace(zipf_trace[:24], small_pool)
        assert len(outputs) == 24
        assert report.mean_batch_size >= 1
        assert report.latency_p99_ms > 0

    def test_no_cache_baseline(self, small_pool, zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model, ServingPolicy(request_cache=False, vector_cache=False))
        outputs, report = server.replay(zipf_trace[:16], small_pool)
        assert report.hit_rate == 0.0
        assert len(outputs) == 16

    def test_transformer_payloads(self):
        pool = build_request_pool("transformer", pool_size=6, seed=0)
        trace = generate_trace(TrafficConfig(pattern="zipfian",
                                             num_requests=20, seed=2), 6)
        model = build_model("transformer", seed=1)
        server = InferenceServer(
            model, ServingPolicy(compute="per_request"))
        outputs, report = server.replay(trace, pool)
        oracle = server.oracle_outputs(pool)
        for request, output in zip(trace, outputs):
            np.testing.assert_array_equal(output,
                                          oracle[request.pool_index])
        assert report.hit_rate > 0

    def test_sharded_exact_mode_bit_identical_at_any_shard_count(
            self, small_pool, zipf_trace):
        for shards in (2, 3):
            model = build_model("squeezenet", num_classes=4, seed=3)
            server = InferenceServer(
                model,
                ServingPolicy(request_cache=True, vector_cache=False,
                              exact_check=True, compute="per_request"),
                BatcherConfig(max_batch_size=8, max_wait_s=0.001),
                shards=shards)
            outputs, report = server.replay(zipf_trace, small_pool)
            oracle = server.oracle_outputs(small_pool)
            for request, output in zip(zipf_trace, outputs):
                np.testing.assert_array_equal(output,
                                              oracle[request.pool_index])
            assert report.shards == shards
            assert len(report.shard_stats) == shards
            assert sum(row["requests"]
                       for row in report.shard_stats) == len(zipf_trace)

    def test_sharded_replay_is_deterministic(self, small_pool, zipf_trace):
        def run():
            model = build_model("squeezenet", num_classes=4, seed=3)
            server = InferenceServer(
                model, ServingPolicy(compute="per_request"), shards=3)
            outputs, report = server.replay(zipf_trace, small_pool)
            return outputs, report

        outputs_a, report_a = run()
        outputs_b, report_b = run()
        for left, right in zip(outputs_a, outputs_b):
            np.testing.assert_array_equal(left, right)
        assert report_a.request_cache == report_b.request_cache
        assert report_a.batches == report_b.batches
        assert report_a.shard_stats == report_b.shard_stats

    def test_routing_keeps_repeats_on_one_shard(self, small_pool,
                                                zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(), shards=4)
        for index in range(len(small_pool)):
            owner = server.shard_for(small_pool[index])
            assert owner == server.shard_for(small_pool[index])
            assert 0 <= owner < 4
        # Sharding preserves the aggregate hit rate: every repeat of a
        # payload lands on the shard that cached it.
        outputs, report = server.replay(zipf_trace, small_pool)
        single = InferenceServer(build_model("squeezenet", num_classes=4,
                                             seed=3), ServingPolicy())
        _, single_report = single.replay(zipf_trace, small_pool)
        assert report.request_cache["cross_hits"] > 0
        assert report.hit_rate == pytest.approx(single_report.hit_rate,
                                                abs=0.1)

    def test_sharded_vector_engines_stay_private(self, small_pool,
                                                 zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model, ServingPolicy(request_cache=False, vector_cache=True,
                                 entries=8192, ways=16), shards=2)
        outputs, report = server.replay(zipf_trace, small_pool)
        oracle = server.oracle_outputs(small_pool)
        deviation = max(
            float(np.max(np.abs(out - oracle[req.pool_index])))
            for req, out in zip(zipf_trace, outputs))
        assert deviation < 1e-9
        engines = {id(shard.vector_engine) for shard in server.shards}
        assert len(engines) == 2
        # Both shards received traffic and recorded their own per-layer
        # telemetry — the routing really does spread vector work.
        assert {row["shard"] for row in report.layer_stats} == {0, 1}

    def test_sharded_serve_trace_roundtrip(self, small_pool, zipf_trace):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(), shards=2)
        outputs, report = server.serve_trace(zipf_trace[:24], small_pool)
        assert len(outputs) == 24
        assert report.requests == 24
        assert report.mean_batch_size >= 1

    def test_non_numeric_payload_fails_alone(self, small_pool):
        # A string payload used to fail its whole micro-batch ("could
        # not convert string to float"); now it fails before joining
        # one, and the valid payloads reach the batch unconverted.
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model, ServingPolicy(compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.05))
        processed = []
        shard = server.shards[0]

        def recording(payloads, _process=shard.batcher.process_batch):
            processed.extend(payloads)
            return _process(payloads)

        shard.batcher.process_batch = recording
        good, other = small_pool[0], small_pool[1]
        bad = np.full(good.shape, "x")

        async def drive():
            await server.start()
            try:
                return await asyncio.gather(
                    server.infer(good), server.infer(bad),
                    server.infer(other), return_exceptions=True)
            finally:
                await server.stop()

        first, failed, last = asyncio.run(drive())
        assert isinstance(failed, ValueError)
        assert "not numeric" in str(failed)
        oracle = server.oracle_outputs(small_pool[:2])
        np.testing.assert_array_equal(first, oracle[0])
        np.testing.assert_array_equal(last, oracle[1])
        assert len(processed) == 2
        assert processed[0] is good and processed[1] is other
        assert shard.batcher.telemetry.failed == 0

    def test_non_finite_payload_cannot_poison_a_shared_signature(self):
        # Every NaN >= 0 is false, so a NaN payload hashes to signature
        # 0; so does -(R @ 1) for the request cache's projection R.  The
        # NaN request used to fill that line and the finite one was
        # then served the NaN request's cached row.
        model = build_model("squeezenet", num_classes=4, seed=3)
        policy = ServingPolicy(entries=16, ways=16, eviction="lru",
                               compute="batched", exact_check=False)
        server = InferenceServer(model, policy)
        hasher = server.shards[0].request_cache.hasher
        bits = policy.signature_bits
        poisoned = np.full((3, 24, 24), np.nan)
        projection = hasher.projection_matrix(poisoned.size, bits)
        victim = -(projection @ np.ones(bits)).reshape(poisoned.shape)
        for payload in (poisoned, victim):
            assert hasher.signatures(payload.reshape(1, -1), bits)[0] == 0

        async def drive():
            await server.start()
            try:
                with pytest.raises(ValueError, match="NaN or inf"):
                    await server.infer(poisoned)
                return await server.infer(victim)
            finally:
                await server.stop()

        np.testing.assert_allclose(
            asyncio.run(drive()), server.oracle_outputs(victim[None])[0],
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_fails_alone(self, small_pool, bad_value):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model, ServingPolicy(compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.05))
        bad = small_pool[2].copy()
        bad[0, 0, 0] = bad_value

        async def drive():
            await server.start()
            try:
                return await asyncio.gather(
                    server.infer(small_pool[0]), server.infer(bad),
                    server.infer(small_pool[1]), return_exceptions=True)
            finally:
                await server.stop()

        first, failed, last = asyncio.run(drive())
        assert isinstance(failed, ValueError)
        assert "NaN or inf" in str(failed)
        oracle = server.oracle_outputs(small_pool[:2])
        np.testing.assert_array_equal(first, oracle[0])
        np.testing.assert_array_equal(last, oracle[1])
        assert server.shards[0].batcher.telemetry.failed == 0

    def test_mixed_shape_payload_fails_alone(self, small_pool):
        # A (3, 16, 16) request among (3, 24, 24) ones used to fail the
        # whole micro-batch ("all input arrays must have the same
        # shape"); now the batch serves its most common shape.
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model, ServingPolicy(compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.05))
        pool = build_request_pool("squeezenet", pool_size=2,
                                  image_size=24, seed=0)
        odd = build_request_pool("squeezenet", pool_size=1, image_size=16,
                                 seed=1)[0]

        async def drive():
            await server.start()
            try:
                return await asyncio.gather(
                    server.infer(pool[0]), server.infer(odd),
                    server.infer(pool[1]), return_exceptions=True)
            finally:
                await server.stop()

        first, failed, last = asyncio.run(drive())
        assert isinstance(failed, ValueError)
        assert "(3, 16, 16)" in str(failed) and "(3, 24, 24)" in str(failed)
        oracle = server.oracle_outputs(pool)
        np.testing.assert_array_equal(first, oracle[0])
        np.testing.assert_array_equal(last, oracle[1])
        telemetry = server.shards[0].batcher.telemetry
        assert (telemetry.batches, telemetry.completed,
                telemetry.failed) == (1, 2, 1)
        for shard in server.shards:
            counters = shard.request_cache.counters
            assert counters.requests == counters.hits + counters.computed
        assert server.shards[0].request_cache.counters.requests == 2

    def test_shape_tie_serves_the_earliest_shape(self, small_pool):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(compute="per_request"))
        big = build_request_pool("squeezenet", pool_size=1, image_size=16,
                                 seed=1)[0]
        payloads = [small_pool[0], big, big.copy(), small_pool[1]]
        results = server._process_shard_batch(server.shards[0], payloads)
        assert [isinstance(result, ValueError) for result in results] \
            == [False, True, True, False]
        oracle = server.oracle_outputs(small_pool[:2])
        np.testing.assert_array_equal(results[0], oracle[0])
        np.testing.assert_array_equal(results[3], oracle[1])
        counters = server.shards[0].request_cache.counters
        assert counters.requests == 2 == counters.hits + counters.computed

    def test_invalid_shard_count_rejected(self):
        model = build_model("squeezenet", num_classes=4, seed=3)
        with pytest.raises(ValueError, match="shards"):
            InferenceServer(model, ServingPolicy(), shards=0)


class TestSnapshotRestore:
    def _server(self, shards=2):
        model = build_model("squeezenet", num_classes=4, seed=3)
        return InferenceServer(
            model,
            ServingPolicy(request_cache=True, vector_cache=False,
                          exact_check=True, compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.001),
            shards=shards)

    def test_restored_server_keeps_the_output_shape(self, tmp_path):
        """Hits served before a restored server's first compute come
        back in the model's output shape, not flattened."""
        pool = build_request_pool("transformer", pool_size=6, seed=0)
        trace = generate_trace(TrafficConfig(pattern="zipfian",
                                             num_requests=20, seed=2), 6)

        def server():
            return InferenceServer(
                build_model("transformer", seed=1),
                ServingPolicy(request_cache=True, vector_cache=False,
                              exact_check=True, compute="per_request"))

        donor = server()
        donor.replay(trace, pool)
        donor.snapshot(tmp_path / "snap")
        restored = server()
        restored.restore(tmp_path / "snap")
        outputs, _ = restored.replay(trace, pool)
        # Every request hits: the model never runs on the restored server.
        assert restored.cache_counters().computed == \
            donor.cache_counters().computed
        oracle = restored.oracle_outputs(pool)
        for request, output in zip(trace, outputs):
            assert output.shape == oracle[request.pool_index].shape
            assert output.tobytes() == oracle[request.pool_index].tobytes()

    def test_restored_server_continues_like_the_donor(self, tmp_path,
                                                      small_pool,
                                                      zipf_trace):
        prefix, suffix = zipf_trace[:40], zipf_trace[40:]
        continuing = self._server()
        continuing.replay(prefix, small_pool)
        expected_outputs, expected_report = continuing.replay(suffix,
                                                              small_pool)

        donor = self._server()
        donor.replay(prefix, small_pool)
        donor.snapshot(tmp_path / "snap")
        restored = self._server()
        restored.restore(tmp_path / "snap")
        outputs, report = restored.replay(suffix, small_pool)

        for left, right in zip(expected_outputs, outputs):
            assert left.tobytes() == right.tobytes()
        assert report.request_cache == expected_report.request_cache
        # Cache state matches exactly; the routed-request telemetry is
        # per-process, so the restored server only counts the suffix.
        def cache_state(rows):
            return [{key: value for key, value in row.items()
                     if key != "requests"} for row in rows]
        assert cache_state(report.shard_stats) == \
            cache_state(expected_report.shard_stats)

    def test_restore_validates_shards_and_policy(self, tmp_path,
                                                 small_pool, zipf_trace):
        donor = self._server(shards=2)
        donor.replay(zipf_trace[:24], small_pool)
        donor.snapshot(tmp_path / "snap")
        with pytest.raises(ValueError, match="shards"):
            self._server(shards=3).restore(tmp_path / "snap")
        model = build_model("squeezenet", num_classes=4, seed=3)
        other_policy = InferenceServer(
            model, ServingPolicy(request_cache=True, vector_cache=False,
                                 exact_check=True, compute="per_request",
                                 entries=1024, ways=8), shards=2)
        with pytest.raises(ValueError, match="policy"):
            other_policy.restore(tmp_path / "snap")

    def test_restore_rejects_different_weights(self, tmp_path, small_pool,
                                               zipf_trace):
        # Cached outputs are only valid for the weights that produced
        # them; a server with different parameters must refuse the
        # snapshot instead of serving the donor's stale outputs.
        donor = self._server()
        donor.replay(zipf_trace[:24], small_pool)
        donor.snapshot(tmp_path / "snap")
        other_model = build_model("squeezenet", num_classes=4, seed=99)
        other = InferenceServer(
            other_model,
            ServingPolicy(request_cache=True, vector_cache=False,
                          exact_check=True, compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.001), shards=2)
        with pytest.raises(ValueError, match="weights"):
            other.restore(tmp_path / "snap")

    def test_torn_snapshot_write_is_never_visible(self, tmp_path,
                                                  small_pool, zipf_trace):
        # Regression for the torn-write fix: a crash at any instant of
        # snapshot() must leave either the previous complete snapshot
        # or none — never a manifest paired with partial arrays.
        donor = self._server()
        donor.replay(zipf_trace[:24], small_pool)
        snap = tmp_path / "snap"
        manifest = donor.snapshot(snap)

        # Crash before any commit: only temp files land.  Temps never
        # match the committed names, so the prior snapshot restores.
        (snap / ".tmp-state-99.npz").write_bytes(b"partial garbage")
        # Crash between the arrays commit and the manifest commit: the
        # old manifest still references its own generation's arrays
        # file, not the newer orphan.
        (snap / "state-777.npz").write_bytes(b"\x00garbage")
        restored = self._server()
        assert restored.restore(snap)["arrays"] == manifest["arrays"]
        before = restored.cache_counters()
        restored.replay(zipf_trace[:24], small_pool)
        after = restored.cache_counters()
        # Every replayed request is served from the donor's cache state.
        assert after.hits - before.hits == 24

        # The next complete snapshot sweeps both kinds of leftovers.
        donor.snapshot(snap)
        assert not (snap / "state-777.npz").exists()
        assert not list(snap.glob(".tmp-*"))

        # No manifest at all (crash before the final commit) is an
        # explicit error, not a half-restore.
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / ".tmp-manifest.json").write_text("{}")
        with pytest.raises(ValueError, match="no complete snapshot"):
            self._server().restore(torn)

    def test_vector_cache_snapshot_roundtrip(self, tmp_path, small_pool,
                                             zipf_trace):
        def build():
            model = build_model("squeezenet", num_classes=4, seed=3)
            return InferenceServer(
                model, ServingPolicy(request_cache=False, vector_cache=True,
                                     entries=8192, ways=16), shards=2)

        donor = build()
        donor.replay(zipf_trace[:40], small_pool)
        donor.snapshot(tmp_path / "snap")
        restored = build()
        restored.restore(tmp_path / "snap")
        for shard, donor_shard in zip(restored.shards, donor.shards):
            assert shard.vector_engine.occupancy() == \
                donor_shard.vector_engine.occupancy()
        # Warm vector caches serve the repeats immediately.
        before = restored.cache_counters().hits
        restored.replay(zipf_trace[40:], small_pool)
        assert restored.cache_counters().hits > before


class TestHttpFrontEnd:
    def test_http_front_end(self, small_pool):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(
            compute="per_request"))
        front = server.serve_http(port=0)
        try:
            with urllib.request.urlopen(front.url("/healthz"),
                                        timeout=10) as response:
                assert json.load(response) == {
                    "ok": True, "shards": [{"shard": 0, "running": True}]}
            payload = json.dumps(
                {"inputs": small_pool[0].tolist()}).encode()
            request = urllib.request.Request(
                front.url("/infer"), data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.load(response)
            outputs = np.asarray(body["outputs"])
            oracle = server.oracle_outputs(small_pool[:1])[0]
            np.testing.assert_array_equal(outputs, oracle)
            with urllib.request.urlopen(front.url("/stats"),
                                        timeout=10) as response:
                stats = json.load(response)
            assert stats["requests"] >= 1
        finally:
            front.stop()

    def test_healthz_reports_stopped_batchers(self):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(
            compute="per_request"), shards=2)
        front = server.serve_http(port=0)

        def healthz():
            try:
                with urllib.request.urlopen(front.url("/healthz"),
                                            timeout=10) as response:
                    return response.status, json.load(response)
            except urllib.error.HTTPError as error:
                with error:
                    return error.code, json.load(error)

        def stop(coroutine):
            asyncio.run_coroutine_threadsafe(
                coroutine, front._loop).result(timeout=10)

        try:
            assert healthz() == (200, {"ok": True, "shards": [
                {"shard": 0, "running": True},
                {"shard": 1, "running": True}]})
            stop(server.shards[1].batcher.stop())
            assert healthz() == (503, {"ok": False, "shards": [
                {"shard": 0, "running": True},
                {"shard": 1, "running": False}]})
            stop(server.stop())
            assert healthz() == (503, {"ok": False, "shards": [
                {"shard": 0, "running": False},
                {"shard": 1, "running": False}]})
        finally:
            front.stop()

    def test_non_numeric_inputs_get_400(self):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(
            compute="per_request"))
        front = server.serve_http(port=0)
        request = urllib.request.Request(
            front.url("/infer"),
            data=json.dumps({"inputs": [["x", "y"]]}).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            with caught.value as error:
                assert error.code == 400
                assert "not numeric" in json.load(error)["error"]
        finally:
            front.stop()

    def test_non_finite_inputs_get_400(self, small_pool):
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy())
        front = server.serve_http(port=0)
        inputs = small_pool[0].tolist()
        inputs[0][0][0] = float("nan")
        body = json.dumps({"inputs": inputs}).encode()
        assert b"NaN" in body
        request = urllib.request.Request(
            front.url("/infer"), data=body,
            headers={"Content-Type": "application/json"})
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            with caught.value as error:
                assert error.code == 400
                assert "NaN or inf" in json.load(error)["error"]
        finally:
            front.stop()

    @pytest.mark.parametrize("header", ["Content-Length: -1\r\n",
                                        "Content-Length: abc\r\n", ""],
                             ids=["negative", "non-integer", "missing"])
    def test_bad_content_length_gets_400_without_reading(self, header):
        # A negative length used to reach rfile.read(-1), which holds the
        # handler thread until the client hangs up; this client never
        # does, so only an answer sent before reading lets it finish.
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(
            compute="per_request"))
        front = server.serve_http(port=0)
        try:
            with socket.create_connection((front.host, front.port),
                                          timeout=2) as conn:
                conn.sendall(("POST /infer HTTP/1.1\r\nHost: test\r\n"
                              + header + "\r\n").encode())
                reply = conn.makefile("rb").read()
        finally:
            front.stop()
        status_line, _, body = reply.partition(b"\r\n\r\n")
        assert status_line.split()[1] == b"400"
        assert json.loads(body)["error"]

    def test_oversized_content_length_gets_413_without_reading(self):
        # The claimed 1 GiB never arrives: the client half-closes after a
        # few bytes, so a handler that tried to read the claimed length
        # would get a short body and answer 400 instead.
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(model, ServingPolicy(
            compute="per_request"))
        front = server.serve_http(port=0)
        try:
            with socket.create_connection((front.host, front.port),
                                          timeout=5) as conn:
                conn.sendall(b"POST /infer HTTP/1.1\r\nHost: test\r\n"
                             b"Content-Length: 1073741824\r\n\r\n"
                             b'{"inputs": [')
                conn.shutdown(socket.SHUT_WR)
                reply = conn.makefile("rb").read()
        finally:
            front.stop()
        status_line, _, body = reply.partition(b"\r\n\r\n")
        assert status_line.split()[1] == b"413"
        assert "exceeds" in json.loads(body)["error"]

    def test_timed_out_request_is_never_computed(self, small_pool):
        # The doomed request waits in an open batch (max_wait 0.5 s)
        # past its 0.05 s timeout; cancelling it must keep it out of
        # process_batch and out of every cache counter.
        model = build_model("squeezenet", num_classes=4, seed=3)
        server = InferenceServer(
            model, ServingPolicy(compute="per_request"),
            BatcherConfig(max_batch_size=8, max_wait_s=0.5), shards=2)
        processed = []
        for shard in server.shards:
            def recording(payloads, _process=shard.batcher.process_batch):
                processed.extend(payloads)
                return _process(payloads)
            shard.batcher.process_batch = recording
        doomed, kept = small_pool[0], small_pool[1]
        front = server.serve_http(port=0)
        try:
            with pytest.raises(concurrent.futures.TimeoutError):
                front.submit(doomed, timeout_s=0.05)
            np.testing.assert_array_equal(
                np.asarray(front.submit(kept, timeout_s=30)),
                server.oracle_outputs(small_pool[1:2])[0])
        finally:
            front.stop()
        assert len(processed) == 1 and processed[0] is kept
        assert sum(shard.batcher.telemetry.rows
                   for shard in server.shards) == 1
        for shard in server.shards:
            entry = shard.ledger()
            assert entry.rows == entry.request.hits + entry.request.computed
