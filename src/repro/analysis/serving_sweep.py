"""Serving sweep: model × traffic × cache policy × shards × admission grid.

The third sweep family, next to the cycle-model sweep
(:mod:`repro.analysis.sweep`) and the training-accuracy sweep
(:mod:`repro.analysis.functional_sweep`): each :class:`ServingPoint`
names a model, a traffic pattern from the load generator, a cache
configuration, a micro-batch size, a worker-shard count, an admission
policy and the tiering axes (replacement policy, hot-key replication
top-k, shared-L2 tier); evaluating it replays the deterministic trace
through a (possibly sharded)
:class:`~repro.serving.server.InferenceServer` and records

* throughput and p50/p95/p99 latency (simulated queue wait + measured
  compute),
* request- and vector-level hit statistics, plus per-shard hit rates
  and the request-balance factor of the consistent-hash routing,
* output exactness against the engine-less per-request forward oracle
  (bit-identical fraction and maximum absolute deviation).

Rows share the :class:`~repro.analysis.grid.GridResults` JSON envelope
under the ``serving-sweep`` schema marker, so serving files cannot be
mistaken for cycle or functional sweeps.  ``repro-sweep`` (the
``console_scripts`` entry) fronts :func:`main`.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.analysis.functional_sweep import derive_seed
from repro.analysis.grid import GridResults, expand_grid, point_row, run_grid
from repro.core.eviction import EVICTION_POLICIES
from repro.serving.cache import ADMISSION_POLICIES
from repro.models.registry import MODEL_NAMES, build_model, get_spec
from repro.serving.batcher import BatcherConfig
from repro.serving.engine import ServingPolicy
from repro.serving.loadgen import (TRAFFIC_PATTERNS, TrafficConfig,
                                   build_request_pool, generate_trace,
                                   trace_summary)
from repro.serving.server import InferenceServer
from repro.serving.tiering import SharedL2Cache

# Cache-policy presets — the sweep's policy axis.  "exact" modes verify
# payload equality before reuse; "trust" reuses on signature match
# alone (the paper's approximate semantics, measured by the exactness
# columns).
CACHE_POLICIES = {
    "none": dict(request_cache=False, vector_cache=False),
    "request_exact": dict(request_cache=True, vector_cache=False,
                          exact_check=True, compute="per_request"),
    "request_batched": dict(request_cache=True, vector_cache=False,
                            exact_check=True, compute="batched"),
    "vector_exact": dict(request_cache=False, vector_cache=True,
                         exact_check=True, compute="batched"),
    "vector_trust": dict(request_cache=False, vector_cache=True,
                         exact_check=False, compute="batched"),
    "layered": dict(request_cache=True, vector_cache=True,
                    exact_check=True, compute="batched"),
}

SERVING_RESULT_KEYS = frozenset({
    "model", "traffic", "cache_policy", "batch_size", "num_requests",
    "pool_size", "entries", "ways", "ttl_batches", "signature_bits",
    "seed",
    "throughput_rps", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    "hit_rate", "request_hit_rate", "vector_hit_rate",
    "batches", "mean_batch_size",
    "shards", "admission", "shard_balance", "simulated_makespan_s",
    "parallel_workers", "measured_makespan_s",
    "eviction", "replicate_top", "l2", "l2_hit_rate", "evicted",
    "replicated", "rotate_every",
    "distinct_payloads", "top_key_share",
    "bit_identical_fraction", "max_abs_deviation",
    "compute_time_s", "elapsed_s",
    "telemetry", "controller", "telemetry_events", "telemetry_dropped",
    "controller_decisions",
})

# Derived-seed streams (mirrors functional_sweep's convention).
MODEL_STREAM, POOL_STREAM, TRACE_STREAM = 0, 1, 2


@dataclass(frozen=True)
class ServingPoint:
    """One serving scenario."""

    model: str = "squeezenet"
    traffic: str = "zipfian"
    cache_policy: str = "request_exact"
    batch_size: int = 8
    num_requests: int = 200
    pool_size: int = 24
    entries: int = 4096
    ways: int = 16
    ttl_batches: int | None = None
    signature_bits: int = 32
    image_size: int = 12
    max_wait_ms: float = 1.0
    shards: int = 1
    admission: str = "always"
    # Replacement policy of the persistent caches ("none" = the paper's
    # no-replacement MNU behaviour).
    eviction: str = "none"
    # Hot-key replication: replicate the top-k hottest signatures'
    # cached rows across shards (0 = off; needs a request cache).
    replicate_top: int = 0
    # Back the per-shard L1 request caches with a shared in-memory L2
    # (adds the ``l2_hit_rate`` column).
    l2: bool = False
    # Zipfian hot-set churn period (0 = stationary); see
    # :class:`~repro.serving.loadgen.TrafficConfig.zipf_rotate_every`.
    rotate_every: int = 0
    # 0 = in-process replay (simulated makespan); == shards = run the
    # shards as real worker processes and measure the wall-clock
    # makespan (the ``measured_makespan_s`` column).
    parallel_workers: int = 0
    # Observability axes: ``telemetry`` attaches an event bus + metrics
    # registry to the replay (fills the telemetry_* columns);
    # ``controller`` additionally runs the online adaptive
    # policy controller over the telemetry windows.
    telemetry: bool = False
    controller: bool = False
    seed: int = 0

    def __post_init__(self):
        get_spec(self.model)  # rejects unknown models early
        if self.traffic not in TRAFFIC_PATTERNS:
            raise ValueError(f"unknown traffic {self.traffic!r}; "
                             f"choose from {TRAFFIC_PATTERNS}")
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache_policy {self.cache_policy!r}; "
                             f"choose from {sorted(CACHE_POLICIES)}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.num_requests <= 0 or self.pool_size <= 0:
            raise ValueError("num_requests and pool_size must be positive")
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission {self.admission!r}; "
                             f"choose from {ADMISSION_POLICIES}")
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction {self.eviction!r}; "
                             f"choose from {EVICTION_POLICIES}")
        if self.replicate_top < 0:
            raise ValueError("replicate_top must be >= 0")
        if self.rotate_every < 0:
            raise ValueError("rotate_every must be >= 0")
        if self.parallel_workers not in (0, self.shards):
            raise ValueError(
                "parallel_workers must be 0 (in-process replay) or equal "
                "to shards (each shard becomes one worker process)")
        if self.parallel_workers and (self.replicate_top or self.l2):
            raise ValueError(
                "replicate_top and l2 need shards that share memory; "
                "they cannot combine with parallel_workers")
        if (self.replicate_top or self.l2) \
                and not CACHE_POLICIES[self.cache_policy]["request_cache"]:
            raise ValueError("replicate_top and l2 act on the request "
                             "cache; pick a request-caching policy")
        if self.controller and not self.telemetry:
            raise ValueError("the adaptive controller consumes telemetry "
                             "windows; set telemetry=True")
        if self.controller and self.parallel_workers:
            raise ValueError("the adaptive controller needs the "
                             "in-process server; it cannot combine with "
                             "parallel_workers")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def build_serving_grid(models=("squeezenet",),
                       traffics=TRAFFIC_PATTERNS,
                       cache_policies=("none", "request_exact",
                                       "vector_trust"),
                       batch_sizes=(8,), shard_counts=(1,),
                       admissions=("always",), evictions=("none",),
                       replicate_tops=(0,), l2_modes=(False,),
                       seeds=(0,), parallel=False,
                       **fixed) -> list[ServingPoint]:
    """Cross product of the serving scenario axes.

    With ``parallel`` every multi-shard point also runs its shards as
    real worker processes (``parallel_workers == shards``), adding the
    measured-makespan column next to the simulated one.  Tiering axes
    (eviction / replication / L2) that need a request cache are skipped
    for presets without one instead of raising, so mixed grids stay
    expressible.
    """
    combos = expand_grid({"model": models, "traffic": traffics,
                          "cache_policy": cache_policies,
                          "batch_size": batch_sizes,
                          "shards": shard_counts,
                          "admission": admissions,
                          "eviction": evictions,
                          "replicate_top": replicate_tops,
                          "l2": l2_modes, "seed": seeds})
    points = []
    for combo in combos:
        tiered = combo["replicate_top"] or combo["l2"]
        if tiered and not \
                CACHE_POLICIES[combo["cache_policy"]]["request_cache"]:
            continue
        points.append(ServingPoint(
            **combo,
            parallel_workers=combo["shards"]
            if parallel and combo["shards"] > 1 and not tiered else 0,
            **fixed))
    return points


def policy_for(point: ServingPoint) -> ServingPolicy:
    return ServingPolicy(entries=point.entries, ways=point.ways,
                         ttl_batches=point.ttl_batches,
                         signature_bits=point.signature_bits,
                         admission=point.admission,
                         eviction=point.eviction,
                         replicate_top=point.replicate_top,
                         **CACHE_POLICIES[point.cache_policy])


def telemetry_for(point: ServingPoint):
    """The observability bundle a point asks for (``None`` when off)."""
    if not point.telemetry:
        return None
    from repro.obs import AdaptivePolicyController, Telemetry
    return Telemetry(
        controller=AdaptivePolicyController() if point.controller
        else None,
        seeds={"model": derive_seed(point.seed, MODEL_STREAM),
               "pool": derive_seed(point.seed, POOL_STREAM),
               "trace": derive_seed(point.seed, TRACE_STREAM)})


def serving_pieces(point: ServingPoint,
                   l2_store: SharedL2Cache | None = None,
                   telemetry=None):
    """(model, pool, trace, server) for one point, fully seed-derived.

    ``l2_store`` substitutes a caller-built L2 (e.g. a disk-backed one
    from ``repro-serve --l2 DIR``) for the in-memory tier the ``l2``
    axis would otherwise create; ``telemetry`` likewise substitutes a
    caller-built observability bundle (e.g. one with an audit
    directory) for the plain one the ``telemetry`` axis creates.
    """
    pool = build_request_pool(point.model, pool_size=point.pool_size,
                              image_size=point.image_size,
                              seed=derive_seed(point.seed, POOL_STREAM))
    trace = generate_trace(
        TrafficConfig(pattern=point.traffic,
                      num_requests=point.num_requests,
                      zipf_rotate_every=point.rotate_every,
                      seed=derive_seed(point.seed, TRACE_STREAM)),
        len(pool))
    spec = get_spec(point.model)
    num_outputs = 4 if spec.kind == "cnn" else None
    model = build_model(point.model, num_classes=num_outputs,
                        seed=derive_seed(point.seed, MODEL_STREAM))
    server = InferenceServer(
        model, policy_for(point),
        BatcherConfig(max_batch_size=point.batch_size,
                      max_wait_s=point.max_wait_ms / 1e3),
        shards=point.shards,
        l2=l2_store if l2_store is not None
        else (SharedL2Cache() if point.l2 else None),
        telemetry=telemetry if telemetry is not None
        else telemetry_for(point))
    return model, pool, trace, server


def evaluate_serving_point(point: ServingPoint) -> dict:
    """Replay one scenario and measure throughput, latency, exactness.

    Points with ``parallel_workers`` run the shards as real worker
    processes (:class:`~repro.serving.parallel.ParallelInferenceServer`)
    and record the measured wall-clock makespan next to the in-process
    replay's simulated one.  Such points must evaluate in-process
    (``processes=0``): pool children are daemonic and cannot spawn the
    worker processes themselves.
    """
    start = time.perf_counter()
    model, pool, trace, server = serving_pieces(point)

    if point.parallel_workers:
        import multiprocessing

        from repro.serving.parallel import ParallelInferenceServer
        if multiprocessing.current_process().daemon:
            raise RuntimeError(
                "parallel_workers points cannot run inside a sweep "
                "worker pool (daemonic children cannot spawn); rerun "
                "with processes=0")
        parallel = ParallelInferenceServer(
            model, policy_for(point),
            BatcherConfig(max_batch_size=point.batch_size,
                          max_wait_s=point.max_wait_ms / 1e3),
            workers=point.parallel_workers,
            telemetry=server.telemetry)
        with parallel:
            outputs, report = parallel.replay(trace, pool)
        compute_time_s = parallel._compute_time_s
    else:
        outputs, report = server.replay(trace, pool)
        compute_time_s = server._compute_time_s
    oracle = server.oracle_outputs(pool)

    identical = 0
    max_deviation = 0.0
    for request, output in zip(trace, outputs):
        reference = oracle[request.pool_index]
        if np.array_equal(output, reference):
            identical += 1
        deviation = float(np.max(np.abs(output - reference)))
        max_deviation = max(max_deviation, deviation)

    shape = trace_summary(trace)
    shard_requests = [row["requests"] for row in report.shard_stats]
    mean_share = sum(shard_requests) / len(shard_requests) \
        if shard_requests else 0.0
    row = point_row(point, {
        "throughput_rps": float(report.throughput_rps),
        "latency_p50_ms": float(report.latency_p50_ms),
        "latency_p95_ms": float(report.latency_p95_ms),
        "latency_p99_ms": float(report.latency_p99_ms),
        "hit_rate": float(report.hit_rate),
        "request_hit_rate": float(
            report.request_cache.get("hit_rate", 0.0)),
        "vector_hit_rate": float(report.vector_cache.get("hit_rate", 0.0)),
        "batches": int(report.batches),
        "mean_batch_size": float(report.mean_batch_size),
        "distinct_payloads": int(shape["distinct_payloads"]),
        "top_key_share": float(shape["top_key_share"]),
        "bit_identical_fraction": identical / len(trace),
        "max_abs_deviation": max_deviation,
        "compute_time_s": float(compute_time_s),
        "layer_stats": report.layer_stats,
        # Shard-level columns: per-shard hit rates and how evenly the
        # consistent-hash routing spread the requests (1.0 = perfectly
        # balanced; the heaviest shard's requests over the fair share).
        "shard_hit_rates": [float(row["hit_rate"])
                            for row in report.shard_stats],
        "shard_requests": [int(count) for count in shard_requests],
        "shard_balance": float(max(shard_requests) / mean_share)
        if mean_share else 1.0,
        "simulated_makespan_s": float(report.simulated_makespan_s),
        "measured_makespan_s": float(report.measured_makespan_s),
        "recoveries": int(report.recoveries),
        # Tiering columns: replacement-policy evictions, cross-shard
        # replica pushes, and the shared-L2 hit rate (0.0 without L2).
        "evicted": int(report.request_cache.get("evicted", 0)),
        "replicated": int(report.request_cache.get("replicated", 0)),
        "l2_hit_rate": float(report.l2.get("hit_rate", 0.0)),
        # Observability columns: the event-bus digest (all zero when
        # the telemetry axis is off).
        "telemetry_events": int(report.telemetry.get("events", 0)),
        "telemetry_dropped": int(report.telemetry.get("dropped", 0)),
        "controller_decisions": int(report.telemetry.get("decisions", 0)),
    }, started=start)
    return row


@dataclass
class ServingSweepResults(GridResults):
    """Aggregated serving rows; same JSON envelope family as the others."""

    schema: ClassVar[str] = "serving-sweep"
    result_keys: ClassVar[frozenset] = SERVING_RESULT_KEYS

    # -- summaries ------------------------------------------------------
    def hit_rate_by_policy(self) -> dict[str, float]:
        return self.grouped_mean("cache_policy", "hit_rate")

    def summary(self) -> dict:
        summary = self.base_summary()
        if not self.rows:
            return summary
        summary.update({
            "mean_hit_rate": self.column_mean("hit_rate"),
            "hit_rate_by_policy": self.hit_rate_by_policy(),
            "mean_throughput_rps": self.column_mean("throughput_rps"),
            "worst_p99_ms": self.column_max("latency_p99_ms"),
            "max_abs_deviation": self.column_max("max_abs_deviation"),
            "worst_shard_balance": self.column_max("shard_balance"),
        })
        return summary


def run_serving_sweep(points, processes: int | None = None
                      ) -> ServingSweepResults:
    """Evaluate a serving grid through the shared fan-out executor."""
    rows, elapsed = run_grid(list(points), evaluate_serving_point,
                             processes=processes)
    return ServingSweepResults(rows=rows, elapsed_s=elapsed)


# ----------------------------------------------------------------------
# CLI (the ``repro-sweep`` console script)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+", default=["squeezenet"],
                        choices=list(MODEL_NAMES), metavar="MODEL")
    parser.add_argument("--traffics", nargs="+",
                        default=list(TRAFFIC_PATTERNS),
                        choices=list(TRAFFIC_PATTERNS), metavar="PATTERN")
    parser.add_argument("--cache-policies", nargs="+",
                        default=["none", "request_exact", "vector_trust"],
                        choices=sorted(CACHE_POLICIES), metavar="POLICY")
    parser.add_argument("--batch-sizes", nargs="+", type=int, default=[8])
    parser.add_argument("--shards", nargs="+", type=int, default=[1],
                        help="worker-shard counts to sweep")
    parser.add_argument("--admissions", nargs="+", default=["always"],
                        choices=list(ADMISSION_POLICIES), metavar="POLICY",
                        help="cache admission policies to sweep")
    parser.add_argument("--evictions", nargs="+", default=["none"],
                        choices=list(EVICTION_POLICIES), metavar="POLICY",
                        help="cache replacement policies to sweep")
    parser.add_argument("--replicate-tops", nargs="+", type=int,
                        default=[0], metavar="K",
                        help="hot-key replication top-k values to sweep "
                             "(0 = off)")
    parser.add_argument("--l2", action="store_true",
                        help="also sweep request-cache points with a "
                             "shared L2 tier")
    parser.add_argument("--entries", type=int, default=4096,
                        help="cache entries per shard")
    parser.add_argument("--ways", type=int, default=16,
                        help="cache set associativity")
    parser.add_argument("--rotate-every", type=int, default=0,
                        help="zipfian hot-set churn period in requests "
                             "(0 = stationary popularity)")
    parser.add_argument("--telemetry", action="store_true",
                        help="attach the event bus + metrics registry "
                             "to every point (fills the telemetry_* "
                             "columns)")
    parser.add_argument("--controller", action="store_true",
                        help="also run the online adaptive policy "
                             "controller per point (implies "
                             "--telemetry; needs the in-process "
                             "replay, so it rejects --parallel)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--pool-size", type=int, default=24)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--parallel", action="store_true",
                        help="run multi-shard points as real worker "
                             "processes (adds measured_makespan_s)")
    parser.add_argument("--processes", type=int, default=None,
                        help="pool size (0 = in-process)")
    parser.add_argument("--output", default=None,
                        help="write the JSON envelope to this path")
    args = parser.parse_args(argv)

    if args.controller and args.parallel:
        parser.error("--controller mutates live policy state, which "
                     "needs the in-process replay; drop --parallel")
    points = build_serving_grid(models=args.models, traffics=args.traffics,
                                cache_policies=args.cache_policies,
                                batch_sizes=args.batch_sizes,
                                shard_counts=args.shards,
                                admissions=args.admissions,
                                evictions=args.evictions,
                                replicate_tops=args.replicate_tops,
                                l2_modes=(False, True) if args.l2
                                else (False,),
                                seeds=args.seeds,
                                parallel=args.parallel,
                                telemetry=args.telemetry
                                or args.controller,
                                controller=args.controller,
                                num_requests=args.requests,
                                pool_size=args.pool_size,
                                entries=args.entries, ways=args.ways,
                                rotate_every=args.rotate_every)
    print(f"serving sweep: {len(points)} points")
    processes = args.processes
    if any(point.parallel_workers for point in points):
        # Worker processes cannot be spawned from daemonic pool
        # children; parallel points force the in-process executor.
        if processes not in (None, 0):
            print("note: --parallel forces --processes 0 (sweep pool "
                  "children cannot spawn worker processes)")
        processes = 0
    results = run_serving_sweep(points, processes=processes)

    from repro.analysis.reporting import render_results
    print(render_results(results))
    summary = results.summary()
    print(f"\nmean hit rate {summary['mean_hit_rate']:.2%}, "
          f"mean throughput {summary['mean_throughput_rps']:.0f} rps, "
          f"worst p99 {summary['worst_p99_ms']:.2f} ms")
    if args.output:
        results.save(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
