"""Serving sweep grid, results envelope and reporting renderer."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.functional_sweep import FunctionalSweepResults
from repro.analysis.grid import GridResults
from repro.analysis.reporting import format_rows, render_results
from repro.analysis.serving_sweep import (
    CACHE_POLICIES,
    SERVING_RESULT_KEYS,
    ServingPoint,
    ServingSweepResults,
    build_serving_grid,
    evaluate_serving_point,
    run_serving_sweep,
)

QUICK = dict(num_requests=40, pool_size=8)


class TestServingGrid:
    def test_grid_cross_product(self):
        points = build_serving_grid(models=("squeezenet",),
                                    traffics=("uniform", "zipfian"),
                                    cache_policies=("none", "request_exact"),
                                    batch_sizes=(4, 8), **QUICK)
        assert len(points) == 8
        assert len(set(points)) == 8

    def test_invalid_points_fail_at_build_time(self):
        with pytest.raises(ValueError, match="unknown traffic"):
            ServingPoint(traffic="ddos")
        with pytest.raises(ValueError, match="unknown cache_policy"):
            ServingPoint(cache_policy="magic")
        with pytest.raises(ValueError, match="unknown model"):
            ServingPoint(model="resnet9000")
        with pytest.raises(ValueError):
            ServingPoint(batch_size=0)

    def test_policy_presets_are_complete(self):
        for name in CACHE_POLICIES:
            point = ServingPoint(cache_policy=name, **QUICK)
            from repro.analysis.serving_sweep import policy_for
            policy = policy_for(point)
            assert policy.entries == point.entries

    def test_shard_and_admission_axes_expand(self):
        points = build_serving_grid(models=("squeezenet",),
                                    traffics=("zipfian",),
                                    cache_policies=("request_exact",),
                                    shard_counts=(1, 2, 4),
                                    admissions=("always", "frequency"),
                                    **QUICK)
        assert len(points) == 6
        assert {point.shards for point in points} == {1, 2, 4}
        assert {point.admission for point in points} == \
            {"always", "frequency"}

    def test_admission_reaches_the_policy(self):
        from repro.analysis.serving_sweep import policy_for
        point = ServingPoint(admission="frequency", **QUICK)
        assert policy_for(point).admission == "frequency"

    def test_invalid_shard_and_admission_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ServingPoint(shards=0, **QUICK)
        with pytest.raises(ValueError, match="admission"):
            ServingPoint(admission="magic", **QUICK)

    def test_parallel_workers_must_match_shards(self):
        # A parallel point runs one worker process per hash-ring shard;
        # any other count would change the routing layout.
        with pytest.raises(ValueError, match="parallel_workers"):
            ServingPoint(shards=2, parallel_workers=4, **QUICK)
        point = ServingPoint(shards=2, parallel_workers=2, **QUICK)
        assert point.parallel_workers == 2

    def test_parallel_grid_marks_multishard_points(self):
        points = build_serving_grid(models=("squeezenet",),
                                    traffics=("zipfian",),
                                    cache_policies=("request_exact",),
                                    shard_counts=(1, 2), parallel=True,
                                    **QUICK)
        workers = {point.shards: point.parallel_workers
                   for point in points}
        # One shard has no parallelism to express; two shards become
        # two worker processes.
        assert workers == {1: 0, 2: 2}


class TestEvaluateServingPoint:
    def test_row_schema_and_content(self):
        point = ServingPoint(cache_policy="request_exact",
                             traffic="zipfian", **QUICK)
        row = evaluate_serving_point(point)
        assert SERVING_RESULT_KEYS <= set(row)
        assert row["hit_rate"] > 0
        assert row["bit_identical_fraction"] == 1.0
        assert row["throughput_rps"] > 0
        json.dumps(row)  # JSON-safe

    def test_rows_are_reproducible(self):
        point = ServingPoint(cache_policy="request_exact", **QUICK)
        left = evaluate_serving_point(point)
        right = evaluate_serving_point(point)
        for key in ("hit_rate", "request_hit_rate", "batches",
                    "distinct_payloads", "bit_identical_fraction"):
            assert left[key] == right[key], key

    def test_no_cache_baseline_has_zero_hits(self):
        row = evaluate_serving_point(ServingPoint(cache_policy="none",
                                                  **QUICK))
        assert row["hit_rate"] == 0.0
        assert row["request_hit_rate"] == 0.0

    def test_sharded_rows_are_deterministic(self):
        # Same trace + same shard count ⇒ identical cache decisions and
        # exactness columns (wall-clock columns are measurements and
        # legitimately vary run to run).
        point = ServingPoint(cache_policy="request_exact", shards=3,
                             **QUICK)
        left = evaluate_serving_point(point)
        right = evaluate_serving_point(point)
        for key in ("hit_rate", "request_hit_rate", "batches",
                    "bit_identical_fraction", "shard_hit_rates",
                    "shard_requests", "shard_balance"):
            assert left[key] == right[key], key
        assert left["shards"] == 3
        assert left["bit_identical_fraction"] == 1.0
        assert len(left["shard_hit_rates"]) == 3
        assert sum(left["shard_requests"]) == QUICK["num_requests"]
        assert left["shard_balance"] >= 1.0

    def test_parallel_point_measures_makespan_with_identical_decisions(
            self):
        point = ServingPoint(cache_policy="request_exact", shards=2,
                             **QUICK)
        parallel_point = ServingPoint(cache_policy="request_exact",
                                      shards=2, parallel_workers=2,
                                      **QUICK)
        reference = evaluate_serving_point(point)
        row = evaluate_serving_point(parallel_point)
        assert row["parallel_workers"] == 2
        assert row["measured_makespan_s"] > 0.0
        assert row["recoveries"] == 0
        assert reference["measured_makespan_s"] == 0.0
        # Worker processes only move where each shard executes: cache
        # decisions and exactness match the in-process replay.
        for key in ("hit_rate", "batches", "bit_identical_fraction",
                    "shard_requests"):
            assert row[key] == reference[key], key

    def test_admission_column_lands_in_rows(self):
        row = evaluate_serving_point(
            ServingPoint(cache_policy="request_exact",
                         admission="frequency", **QUICK))
        assert row["admission"] == "frequency"
        # Frequency gating delays insertion, so the first sighting of
        # every key is rejected and hit rate drops vs always-admit.
        always = evaluate_serving_point(
            ServingPoint(cache_policy="request_exact", **QUICK))
        assert row["hit_rate"] <= always["hit_rate"]


class TestTieringAxes:
    """Eviction × replication × L2: the production-cache acceptance."""

    def test_tiering_axes_validate(self):
        with pytest.raises(ValueError, match="unknown eviction"):
            ServingPoint(eviction="random", **QUICK)
        with pytest.raises(ValueError, match="replicate_top"):
            ServingPoint(replicate_top=-1, **QUICK)
        with pytest.raises(ValueError, match="rotate_every"):
            ServingPoint(rotate_every=-1, **QUICK)
        with pytest.raises(ValueError, match="share memory"):
            ServingPoint(shards=2, parallel_workers=2, replicate_top=4,
                         **QUICK)
        with pytest.raises(ValueError, match="share memory"):
            ServingPoint(shards=2, parallel_workers=2, l2=True, **QUICK)
        with pytest.raises(ValueError, match="request cache"):
            ServingPoint(cache_policy="vector_trust", replicate_top=4,
                         **QUICK)
        with pytest.raises(ValueError, match="request cache"):
            ServingPoint(cache_policy="none", l2=True, **QUICK)

    def test_tiering_axes_reach_the_policy(self):
        from repro.analysis.serving_sweep import policy_for
        point = ServingPoint(eviction="slru", replicate_top=3, **QUICK)
        policy = policy_for(point)
        assert policy.eviction == "slru"
        assert policy.replicate_top == 3

    def test_grid_expands_tiering_axes_and_skips_cacheless(self):
        points = build_serving_grid(models=("squeezenet",),
                                    traffics=("zipfian",),
                                    cache_policies=("none",
                                                    "request_exact"),
                                    evictions=("none", "lru"),
                                    replicate_tops=(0, 4),
                                    shard_counts=(2,), **QUICK)
        # "none" policy has no request cache: replicated combos skip.
        assert {(p.cache_policy, p.eviction, p.replicate_top)
                for p in points} == {
            ("none", "none", 0), ("none", "lru", 0),
            ("request_exact", "none", 0), ("request_exact", "none", 4),
            ("request_exact", "lru", 0), ("request_exact", "lru", 4)}

    def test_eviction_beats_no_replacement_under_hot_set_churn(self):
        """The headline acceptance: at equal capacity on a rotating
        Zipfian hot set, LRU and segmented-LRU beat the paper's
        no-replacement cache — and stay byte-identical to the oracle."""
        churn = dict(traffic="zipfian", cache_policy="request_exact",
                     num_requests=240, pool_size=48, entries=8, ways=8,
                     rotate_every=48)
        baseline = evaluate_serving_point(ServingPoint(eviction="none",
                                                       **churn))
        assert baseline["evicted"] == 0
        for eviction in ("lru", "slru"):
            row = evaluate_serving_point(ServingPoint(eviction=eviction,
                                                      **churn))
            assert row["hit_rate"] > baseline["hit_rate"], eviction
            assert row["evicted"] > 0
            assert row["bit_identical_fraction"] == 1.0

    def test_replication_improves_shard_balance(self):
        skew = dict(traffic="zipfian", cache_policy="request_exact",
                    num_requests=120, pool_size=24, shards=2)
        affinity = evaluate_serving_point(ServingPoint(replicate_top=0,
                                                       **skew))
        replicated = evaluate_serving_point(ServingPoint(replicate_top=4,
                                                         **skew))
        assert replicated["shard_balance"] < affinity["shard_balance"]
        assert replicated["replicated"] > 0
        assert replicated["bit_identical_fraction"] == 1.0
        # Replication spreads the hot keys' requests; it must not cost
        # aggregate hit rate (every shard can answer them locally).
        assert replicated["hit_rate"] >= affinity["hit_rate"]

    def test_l2_catches_eviction_victims(self):
        tiered = dict(traffic="zipfian", cache_policy="request_exact",
                      num_requests=120, pool_size=64, entries=8, ways=8,
                      eviction="lru")
        row = evaluate_serving_point(ServingPoint(l2=True, **tiered))
        plain = evaluate_serving_point(ServingPoint(l2=False, **tiered))
        assert row["l2_hit_rate"] > 0.0
        assert plain["l2_hit_rate"] == 0.0
        assert row["bit_identical_fraction"] == 1.0
        # L1 decisions are unchanged by the tier behind them.
        assert row["hit_rate"] == plain["hit_rate"]
        assert row["evicted"] == plain["evicted"]

    def test_tiered_rows_are_reproducible(self):
        point = ServingPoint(traffic="zipfian",
                             cache_policy="request_exact",
                             num_requests=80, pool_size=24, entries=8,
                             ways=8, shards=2, eviction="lru",
                             replicate_top=4, l2=True, rotate_every=40)
        left = evaluate_serving_point(point)
        right = evaluate_serving_point(point)
        for key in ("hit_rate", "evicted", "replicated", "l2_hit_rate",
                    "shard_requests", "shard_balance",
                    "bit_identical_fraction"):
            assert left[key] == right[key], key
        assert left["bit_identical_fraction"] == 1.0


class TestServingSweepResults:
    def _small_results(self):
        points = build_serving_grid(models=("squeezenet",),
                                    traffics=("zipfian",),
                                    cache_policies=("none",
                                                    "request_exact"),
                                    **QUICK)
        return run_serving_sweep(points, processes=0)

    def test_sweep_runs_and_summarises(self):
        results = self._small_results()
        assert len(results) == 2
        assert all(results.result_keys <= set(row) for row in results.rows)
        summary = results.summary()
        assert summary["points"] == 2
        assert 0 <= summary["mean_hit_rate"] <= 1
        assert "request_exact" in summary["hit_rate_by_policy"]

    def test_schema_marker_round_trip(self, tmp_path):
        results = self._small_results()
        path = tmp_path / "serving.json"
        results.save(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "serving-sweep"
        loaded = ServingSweepResults.load(path)
        assert loaded.rows == results.rows
        assert loaded.summary() == results.summary()

    def test_wrong_schema_rejected(self, tmp_path):
        results = self._small_results()
        path = tmp_path / "serving.json"
        results.save(path)
        with pytest.raises(ValueError, match="serving-sweep"):
            FunctionalSweepResults.load(path)

    def test_multiprocessing_matches_inprocess(self):
        points = build_serving_grid(models=("squeezenet",),
                                    traffics=("zipfian",),
                                    cache_policies=("request_exact",),
                                    seeds=(0, 1), **QUICK)
        pooled = run_serving_sweep(points, processes=2)
        serial = run_serving_sweep(points, processes=0)
        for left, right in zip(pooled.rows, serial.rows):
            assert left["hit_rate"] == right["hit_rate"]
            assert left["bit_identical_fraction"] == \
                right["bit_identical_fraction"]


class TestRenderResults:
    def test_renders_serving_rows(self):
        results = ServingSweepResults(rows=[
            {key: 0 for key in SERVING_RESULT_KEYS} | {
                "model": "squeezenet", "traffic": "zipfian",
                "cache_policy": "layered", "hit_rate": 0.5}])
        text = render_results(results)
        assert "cache_policy" in text
        assert "layered" in text
        assert "0.500" in text

    def test_renders_unknown_schema_with_row_keys(self):
        results = GridResults(rows=[{"a": 1, "b": 2.0}])
        text = render_results(results)
        assert "a" in text and "b" in text

    def test_missing_columns_render_as_dash(self):
        text = format_rows([{"a": 1}], columns=("a", "missing"))
        assert "-" in text

    def test_empty_results_render_headers(self):
        text = render_results(ServingSweepResults(rows=[]))
        assert "hit_rate" in text

    def test_column_override(self):
        results = ServingSweepResults(rows=[
            {"model": "m", "traffic": "t", "hit_rate": 0.25}])
        text = render_results(results, columns=("model", "hit_rate"))
        assert "traffic" not in text.splitlines()[0]
