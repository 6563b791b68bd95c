"""Golden serving determinism: pinned trace → pinned reuse statistics.

A fixed-seed Zipfian load-generator trace is replayed through the
:class:`~repro.serving.server.InferenceServer` in two configurations:

* ``request_exact`` (request cache, exact check, per-request compute):
  every served output must be **byte-identical** to the engine-less
  per-request forward oracle, and the full hit-statistics payload is
  pinned in ``tests/golden/serving_squeezenet.json``;
* ``vector_exact`` (per-layer persistent cache, exact check): reuse
  only copies rows produced by identical vectors, so outputs stay
  within BLAS shape noise of the oracle; the row-level counters are
  pinned alongside.

Any change to the load generator, the replay batching discipline, the
RPQ signatures or the cache admission logic shows up here as a counter
mismatch instead of silently shifting every serving figure.

Regenerate after an *intentional* behaviour change::

    GOLDEN_REGENERATE=1 PYTHONPATH=src python -m pytest tests/test_golden_serving.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.serving import (BatcherConfig, InferenceServer, ServingPolicy,
                           TrafficConfig, build_request_pool, generate_trace)
from repro.serving.loadgen import trace_summary

GOLDEN_PATH = Path(__file__).parent / "golden" / "serving_squeezenet.json"

TRACE_CONFIG = TrafficConfig(pattern="zipfian", num_requests=160, seed=11)
POOL_SIZE = 16
MODEL_SEED = 5
BATCHER = BatcherConfig(max_batch_size=8, max_wait_s=0.001)

POLICIES = {
    "request_exact": ServingPolicy(request_cache=True, vector_cache=False,
                                   exact_check=True, compute="per_request"),
    "vector_exact": ServingPolicy(request_cache=False, vector_cache=True,
                                  exact_check=True, compute="batched",
                                  entries=8192, ways=16),
}


def _pieces():
    pool = build_request_pool("squeezenet", pool_size=POOL_SIZE,
                              image_size=12, seed=3)
    trace = generate_trace(TRACE_CONFIG, len(pool))
    return pool, trace


def _serve(policy_name: str):
    pool, trace = _pieces()
    model = build_model("squeezenet", num_classes=4, seed=MODEL_SEED)
    server = InferenceServer(model, POLICIES[policy_name], BATCHER)
    outputs, report = server.replay(trace, pool)
    oracle = server.oracle_outputs(pool)
    return trace, outputs, report, oracle


def _statistics_payload() -> dict:
    payload: dict = {"trace": trace_summary(_pieces()[1])}
    for name in POLICIES:
        trace, outputs, report, oracle = _serve(name)
        identical = sum(
            1 for request, output in zip(trace, outputs)
            if np.array_equal(output, oracle[request.pool_index]))
        payload[name] = {
            "batches": report.batches,
            "hit_rate": report.hit_rate,
            "request_cache": report.request_cache,
            "vector_cache": report.vector_cache,
            "bit_identical": identical,
        }
    return payload


@pytest.fixture(scope="module")
def golden() -> dict:
    payload = _statistics_payload()
    if os.environ.get("GOLDEN_REGENERATE"):
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2,
                                          sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), \
        "golden file missing; run with GOLDEN_REGENERATE=1"
    return {"current": payload,
            "pinned": json.loads(GOLDEN_PATH.read_text())}


# ----------------------------------------------------------------------
# Sharded warm start: donor prefix → snapshot → restore → held-out suffix
# ----------------------------------------------------------------------
WARM_GOLDEN_PATH = Path(__file__).parent / "golden" / \
    "serving_warm_start.json"
WARM_SHARDS = 2
WARM_PREFIX = 100  # trace[:100] trains the donor; trace[100:] is held out


def _sharded_server():
    model = build_model("squeezenet", num_classes=4, seed=MODEL_SEED)
    return InferenceServer(model, POLICIES["request_exact"], BATCHER,
                           shards=WARM_SHARDS)


def _warm_start_payload() -> dict:
    pool, trace = _pieces()
    prefix, suffix = trace[:WARM_PREFIX], trace[WARM_PREFIX:]

    donor = _sharded_server()
    _, donor_report = donor.replay(prefix, pool)
    restored = _sharded_server()
    outputs = None
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        donor.snapshot(tmp)
        restored.restore(tmp)
        outputs, suffix_report = restored.replay(suffix, pool)
    oracle = restored.oracle_outputs(pool)
    identical = sum(
        1 for request, output in zip(suffix, outputs)
        if np.array_equal(output, oracle[request.pool_index]))
    return {
        "shards": WARM_SHARDS,
        "prefix_requests": len(prefix),
        "suffix_requests": len(suffix),
        "donor": {"hit_rate": donor_report.hit_rate,
                  "request_cache": donor_report.request_cache,
                  "shard_requests": [row["requests"] for row
                                     in donor_report.shard_stats]},
        "restored_suffix": {"hit_rate": suffix_report.hit_rate,
                            "request_cache": suffix_report.request_cache,
                            "shard_requests": [row["requests"] for row
                                               in suffix_report.shard_stats]},
        "suffix_bit_identical": identical,
    }


@pytest.fixture(scope="module")
def warm_golden() -> dict:
    payload = _warm_start_payload()
    if os.environ.get("GOLDEN_REGENERATE"):
        WARM_GOLDEN_PATH.write_text(json.dumps(payload, indent=2,
                                               sort_keys=True) + "\n")
    assert WARM_GOLDEN_PATH.exists(), \
        "golden file missing; run with GOLDEN_REGENERATE=1"
    return {"current": payload,
            "pinned": json.loads(WARM_GOLDEN_PATH.read_text())}


class TestGoldenWarmStart:
    def test_warm_start_statistics_match_pinned(self, warm_golden):
        assert warm_golden["current"] == warm_golden["pinned"]

    def test_restored_suffix_matches_live_continuation(self):
        """Restore == the donor simply continuing on the suffix."""
        pool, trace = _pieces()
        prefix, suffix = trace[:WARM_PREFIX], trace[WARM_PREFIX:]
        continuing = _sharded_server()
        continuing.replay(prefix, pool)
        expected_outputs, expected_report = continuing.replay(suffix, pool)

        donor = _sharded_server()
        donor.replay(prefix, pool)
        restored = _sharded_server()
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            donor.snapshot(tmp)
            restored.restore(tmp)
        outputs, report = restored.replay(suffix, pool)
        for left, right in zip(expected_outputs, outputs):
            assert left.tobytes() == right.tobytes()
        assert report.request_cache == expected_report.request_cache
        assert report.shard_stats == expected_report.shard_stats

    def test_pinned_file_shows_hit_carryover(self, warm_golden):
        pinned = warm_golden["pinned"]
        # The held-out suffix replays against warm caches, so its hit
        # rate must beat the donor's cold-start run (which paid every
        # first sighting) — that is the carryover the snapshot buys.
        assert pinned["restored_suffix"]["hit_rate"] > \
            pinned["donor"]["hit_rate"]
        assert pinned["suffix_bit_identical"] == \
            pinned["suffix_requests"]
        assert pinned["shards"] == WARM_SHARDS


# ----------------------------------------------------------------------
# Tiered serving: LRU eviction + hot-key replication + shared L2
# ----------------------------------------------------------------------
TIERED_GOLDEN_PATH = Path(__file__).parent / "golden" / \
    "serving_tiered.json"
TIERED_SHARDS = 2
# Small, rotating-hot-set trace so every tiering mechanism actually
# fires: 8 fully-associative lines per shard overflow (evictions), the
# Zipf head shifts mid-trace (replacement earns hits), and the hottest
# signatures cross the replication threshold.
TIERED_TRACE = TrafficConfig(pattern="zipfian", num_requests=160,
                             zipf_rotate_every=40, seed=11)
TIERED_POOL_SIZE = 32
TIERED_POLICY = ServingPolicy(request_cache=True, vector_cache=False,
                              exact_check=True, compute="per_request",
                              entries=8, ways=8, eviction="lru",
                              replicate_top=4)


def _tiered_pieces():
    pool = build_request_pool("squeezenet", pool_size=TIERED_POOL_SIZE,
                              image_size=12, seed=3)
    trace = generate_trace(TIERED_TRACE, len(pool))
    return pool, trace


def _tiered_serve():
    from repro.serving import SharedL2Cache
    pool, trace = _tiered_pieces()
    model = build_model("squeezenet", num_classes=4, seed=MODEL_SEED)
    server = InferenceServer(model, TIERED_POLICY, BATCHER,
                             shards=TIERED_SHARDS, l2=SharedL2Cache())
    outputs, report = server.replay(trace, pool)
    oracle = server.oracle_outputs(pool)
    return trace, outputs, report, oracle


def _tiered_payload() -> dict:
    trace, outputs, report, oracle = _tiered_serve()
    identical = sum(
        1 for request, output in zip(trace, outputs)
        if np.array_equal(output, oracle[request.pool_index]))
    return {
        "shards": TIERED_SHARDS,
        "trace": trace_summary(trace),
        "hit_rate": report.hit_rate,
        "request_cache": report.request_cache,
        "l2": report.l2,
        "shard_requests": [row["requests"] for row in report.shard_stats],
        "bit_identical": identical,
    }


@pytest.fixture(scope="module")
def tiered_golden() -> dict:
    payload = _tiered_payload()
    if os.environ.get("GOLDEN_REGENERATE"):
        TIERED_GOLDEN_PATH.write_text(json.dumps(payload, indent=2,
                                                 sort_keys=True) + "\n")
    assert TIERED_GOLDEN_PATH.exists(), \
        "golden file missing; run with GOLDEN_REGENERATE=1"
    return {"current": payload,
            "pinned": json.loads(TIERED_GOLDEN_PATH.read_text())}


class TestGoldenTieredServing:
    def test_tiered_statistics_match_pinned(self, tiered_golden):
        assert tiered_golden["current"] == tiered_golden["pinned"]

    def test_tiered_outputs_byte_identical_to_oracle(self):
        """Eviction/replication/L2 move rows around, never change them."""
        trace, outputs, _, oracle = _tiered_serve()
        for request, output in zip(trace, outputs):
            assert output.tobytes() == \
                oracle[request.pool_index].tobytes()

    def test_pinned_file_shows_every_tier_working(self, tiered_golden):
        pinned = tiered_golden["pinned"]
        assert pinned["bit_identical"] == TIERED_TRACE.num_requests
        # Capacity pressure really evicted; the hot keys really
        # replicated; the L2 really caught post-eviction repeats.
        assert pinned["request_cache"]["evicted"] > 0
        assert pinned["request_cache"]["replicated"] > 0
        assert pinned["l2"]["hits"] > 0
        assert pinned["hit_rate"] > 0.2


class TestGoldenServing:
    def test_exact_mode_outputs_byte_identical(self):
        trace, outputs, report, oracle = _serve("request_exact")
        for request, output in zip(trace, outputs):
            assert output.tobytes() == \
                oracle[request.pool_index].tobytes()
        assert report.hit_rate > 0

    def test_vector_mode_within_blas_shape_noise(self):
        trace, outputs, report, oracle = _serve("vector_exact")
        deviation = max(
            float(np.max(np.abs(output - oracle[request.pool_index])))
            for request, output in zip(trace, outputs))
        assert deviation < 1e-9
        assert report.hit_rate > 0

    def test_hit_statistics_match_pinned(self, golden):
        assert golden["current"] == golden["pinned"]

    def test_pinned_file_claims_full_exactness(self, golden):
        pinned = golden["pinned"]
        assert pinned["request_exact"]["bit_identical"] == \
            TRACE_CONFIG.num_requests
        assert pinned["request_exact"]["hit_rate"] > 0.5
        assert pinned["vector_exact"]["hit_rate"] > 0.3
