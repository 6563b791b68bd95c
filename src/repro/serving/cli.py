"""``repro-serve`` — the serving stack's console entry point.

Stands up an :class:`~repro.serving.server.InferenceServer` (optionally
sharded) for a model zoo entry and either replays a load-generator
trace through it (the default; prints the telemetry report) or exposes
the HTTP front end:

    repro-serve --model squeezenet --traffic zipfian --requests 300
    repro-serve --cache-policy layered --traffic bursty
    repro-serve --shards 4 --admission frequency
    repro-serve --shards 2 --snapshot-to snap/          # persist caches
    repro-serve --shards 2 --warm-start snap/ --min-hit-rate 0.97
    repro-serve --eviction lru --replicate-top 8 --l2 l2/ --shards 2
    repro-serve --parallel --workers 4                  # real processes
    repro-serve --parallel --workers 4 --kill-worker 1  # crash recovery
    repro-serve --telemetry                             # event bus on
    repro-serve --audit runs/ --controller --rotate-every 40
    repro-serve --audit-read runs/       # print the audit manifest
    repro-serve --http --port 8080 --serve-forever
    repro-serve --http --requests 50     # drive the trace over HTTP
    repro-serve --http --telemetry       # ... and scrape GET /metrics

``--snapshot-to`` writes the cache state after the replay;
``--warm-start`` restores it before serving, so a restarted server
keeps its hit rate; ``--min-hit-rate`` turns the run into a gate (the
CI warm-start round trip).  ``--parallel`` runs the hash-ring shards
as real worker processes with supervised crash recovery;
``--kill-worker``/``--kill-after-batches`` inject a fault into the
replay (the CI parallel-serving smoke), and ``--parity-check``
asserts the parallel run converges to the single-process replay's
outputs, hit rate and cache counters.
``--eviction``/``--replicate-top``/``--l2`` turn on the cache-tiering
stack (replacement policies, hot-key replication, shared L2); without
``--parallel``, ``--parity-check``
asserts every served output is byte-identical to the per-request
oracle (the CI tiered-serving smoke).  ``--telemetry`` attaches the
:mod:`repro.obs` event bus and metrics registry (and, with ``--http``,
the ``GET /metrics`` Prometheus endpoint); ``--audit DIR`` persists a
versioned run manifest there (``--audit-read DIR`` prints one back);
``--controller`` runs the online adaptive policy controller over
``--controller-window``-batch telemetry windows.  Installed by
``setup.py`` (``console_scripts``); equally runnable as ``python -m
repro.serving.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request

import numpy as np

from repro.analysis.serving_sweep import (CACHE_POLICIES, ServingPoint,
                                          serving_pieces)
from repro.core.eviction import EVICTION_POLICIES
from repro.serving.cache import ADMISSION_POLICIES
from repro.models.registry import MODEL_NAMES
from repro.serving.loadgen import TRAFFIC_PATTERNS, trace_summary

# --serve-forever parks on this event instead of a bare sleep loop, so
# tests (and embedders) can stop a serving thread without SIGINT.
_shutdown = threading.Event()


def _print_report(report) -> None:
    print(f"served {report.requests} requests "
          f"({report.throughput_rps:.0f} rps, {report.batches} "
          f"micro-batches, mean size {report.mean_batch_size:.1f})")
    print(f"hit rate {report.hit_rate:.2%}, latency p50 "
          f"{report.latency_p50_ms:.2f} ms / p99 "
          f"{report.latency_p99_ms:.2f} ms")
    if report.shards > 1:
        shares = ", ".join(
            f"shard {row['shard']}: {row['requests']} reqs "
            f"{row['hit_rate']:.0%}" for row in report.shard_stats)
        print(f"{report.shards} shards ({shares})")


def _print_telemetry(args, report) -> None:
    if not report.telemetry:
        return
    digest = report.telemetry
    print(f"telemetry: {digest['events']} events "
          f"({digest['dropped']} dropped)"
          + (f", {digest['decisions']} controller decisions"
             if args.controller else ""))
    if args.audit:
        print(f"audit manifest written to {args.audit} "
              f"(read back with --audit-read {args.audit})")


def _parallel_main(args, point, pool, trace, server) -> int:
    """The ``--parallel`` replay: real workers, supervised recovery."""
    from repro.analysis.serving_sweep import policy_for
    from repro.serving.batcher import BatcherConfig
    from repro.serving.parallel import (FaultInjection,
                                        ParallelInferenceServer)

    fault = None
    if args.kill_worker is not None:
        fault = FaultInjection(worker=args.kill_worker,
                               kill_after_batches=args.kill_after_batches)
        print(f"fault injection: kill worker {fault.worker} after "
              f"{fault.kill_after_batches} batches")
    parallel = ParallelInferenceServer(
        server.model, policy_for(point),
        BatcherConfig(max_batch_size=point.batch_size,
                      max_wait_s=point.max_wait_ms / 1e3),
        workers=args.workers, snapshot_every_batches=args.snapshot_every,
        fault=fault, telemetry=server.telemetry)
    with parallel:
        outputs, report = parallel.replay(trace, pool)
    _print_report(report)
    _print_telemetry(args, report)
    print(f"{args.workers} worker processes: measured makespan "
          f"{report.measured_makespan_s:.3f}s, "
          f"{report.recoveries} recover"
          f"{'y' if report.recoveries == 1 else 'ies'}")
    if args.kill_worker is not None and report.recoveries == 0:
        print("FAIL fault was injected but no recovery happened")
        return 1

    failures = []
    if args.parity_check:
        # The determinism oracle: the same trace through the
        # single-process replay at the same shard count must produce
        # identical outputs and identical cache decisions.
        reference_outputs, reference = server.replay(trace, pool)
        mismatched = sum(
            1 for ours, theirs in zip(outputs, reference_outputs)
            if not np.array_equal(ours, theirs))
        if mismatched:
            failures.append(f"{mismatched}/{len(trace)} outputs differ "
                            f"from the single-process replay")
        if abs(report.hit_rate - reference.hit_rate) > 1e-12:
            failures.append(
                f"hit rate {report.hit_rate:.4%} != single-process "
                f"{reference.hit_rate:.4%}")
        for name in ("request_cache", "vector_cache"):
            ours, theirs = getattr(report, name), getattr(reference, name)
            if ours != theirs:
                failures.append(f"{name} counters {ours} != "
                                f"single-process {theirs}")
        if not failures:
            print(f"parity: outputs and hit rate "
                  f"({report.hit_rate:.2%}) match the single-process "
                  f"replay, cache counters included")
    if args.min_hit_rate is not None \
            and report.hit_rate < args.min_hit_rate:
        failures.append(f"hit rate {report.hit_rate:.2%} below the "
                        f"{args.min_hit_rate:.2%} floor")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def serve_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="squeezenet",
                        choices=list(MODEL_NAMES))
    parser.add_argument("--traffic", default="zipfian",
                        choices=list(TRAFFIC_PATTERNS))
    parser.add_argument("--cache-policy", default="request_exact",
                        choices=sorted(CACHE_POLICIES))
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--pool-size", type=int, default=24)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--shards", type=int, default=1,
                        help="worker shards behind the routing front end")
    parser.add_argument("--admission", default="always",
                        choices=list(ADMISSION_POLICIES),
                        help="cache insertion gate")
    parser.add_argument("--eviction", default="none",
                        choices=list(EVICTION_POLICIES),
                        help="cache replacement policy (none = the "
                             "paper's no-replacement behaviour)")
    parser.add_argument("--replicate-top", type=int, default=0,
                        metavar="K",
                        help="replicate the K hottest signatures' "
                             "cached rows across shards (0 = off)")
    parser.add_argument("--l2", default=None, metavar="DIR",
                        help="back the per-shard caches with a shared "
                             "L2 tier persisted under DIR")
    parser.add_argument("--entries", type=int, default=4096,
                        help="cache entries per shard")
    parser.add_argument("--ways", type=int, default=16,
                        help="cache set associativity")
    parser.add_argument("--rotate-every", type=int, default=0,
                        help="zipfian hot-set churn period in requests "
                             "(0 = stationary popularity)")
    parser.add_argument("--warm-start", default=None, metavar="DIR",
                        help="restore cache state from a snapshot "
                             "directory before serving")
    parser.add_argument("--snapshot-to", default=None, metavar="DIR",
                        help="write cache state to a snapshot directory "
                             "after serving")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        help="exit non-zero unless the replay hit rate "
                             "reaches this floor (warm-start gate)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parallel", action="store_true",
                        help="run the shards as real worker processes "
                             "with supervised crash recovery")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker-process count for --parallel")
    parser.add_argument("--kill-worker", type=int, default=None,
                        metavar="W",
                        help="with --parallel: inject a fault that kills "
                             "worker W mid-replay (recovery smoke)")
    parser.add_argument("--kill-after-batches", type=int, default=2,
                        help="batches the faulted worker completes "
                             "before dying")
    parser.add_argument("--snapshot-every", type=int, default=4,
                        help="with --parallel: worker snapshot cadence "
                             "in batches (recovery watermark)")
    parser.add_argument("--parity-check", action="store_true",
                        help="with --parallel: exit non-zero unless the "
                             "parallel replay matches the single-process "
                             "replay's outputs and hit counters; "
                             "otherwise: exit non-zero unless every "
                             "served output is byte-identical to the "
                             "engine-less per-request oracle (needs "
                             "--cache-policy request_exact)")
    parser.add_argument("--telemetry", action="store_true",
                        help="attach the repro.obs event bus + metrics "
                             "registry to the run")
    parser.add_argument("--audit", default=None, metavar="DIR",
                        help="persist a versioned audit manifest of the "
                             "run under DIR (implies --telemetry)")
    parser.add_argument("--audit-read", default=None, metavar="DIR",
                        help="print the audit manifest found under DIR "
                             "and exit")
    parser.add_argument("--controller", action="store_true",
                        help="retune TTL/admission online from telemetry "
                             "windows (implies --telemetry)")
    parser.add_argument("--controller-window", type=int, default=4,
                        metavar="N",
                        help="telemetry window size in micro-batches")
    parser.add_argument("--http", action="store_true",
                        help="expose the stdlib HTTP front end")
    parser.add_argument("--port", type=int, default=0,
                        help="HTTP port (0 = ephemeral)")
    parser.add_argument("--serve-forever", action="store_true",
                        help="with --http: block until interrupted")
    args = parser.parse_args(argv)
    if args.audit_read:
        from repro.obs import read_manifest, render_manifest
        print(render_manifest(read_manifest(args.audit_read)))
        return 0
    if args.controller and args.parallel:
        parser.error("--controller retunes the in-process server's "
                     "caches; it cannot be combined with --parallel")
    if args.parallel and args.http:
        parser.error("--parallel serves the replay path; it cannot be "
                     "combined with --http")
    if args.parallel and (args.warm_start or args.snapshot_to):
        parser.error("--parallel manages per-worker snapshots itself; "
                     "--warm-start/--snapshot-to apply to the "
                     "single-process server")
    if args.parallel and (args.replicate_top or args.l2):
        parser.error("--replicate-top/--l2 need shards that share "
                     "memory; they cannot be combined with --parallel")
    if not args.parallel and args.parity_check \
            and args.cache_policy != "request_exact":
        parser.error("--parity-check without --parallel asserts "
                     "byte-identity against the per-request oracle, "
                     "which only the request_exact policy guarantees")

    shards = args.workers if args.parallel else args.shards
    l2_store = None
    if args.l2 is not None:
        from repro.serving.tiering import SharedL2Cache
        l2_store = SharedL2Cache(directory=args.l2)
    telemetry = None
    if args.telemetry or args.audit or args.controller:
        from repro.analysis.functional_sweep import derive_seed
        from repro.analysis.serving_sweep import (MODEL_STREAM,
                                                  POOL_STREAM,
                                                  TRACE_STREAM)
        from repro.obs import AdaptivePolicyController, Telemetry
        telemetry = Telemetry(
            audit_dir=args.audit,
            controller=AdaptivePolicyController() if args.controller
            else None,
            window_batches=args.controller_window,
            seeds={"model": derive_seed(args.seed, MODEL_STREAM),
                   "pool": derive_seed(args.seed, POOL_STREAM),
                   "trace": derive_seed(args.seed, TRACE_STREAM)})
    point = ServingPoint(model=args.model, traffic=args.traffic,
                         cache_policy=args.cache_policy,
                         batch_size=args.batch_size,
                         num_requests=args.requests,
                         pool_size=args.pool_size,
                         entries=args.entries, ways=args.ways,
                         shards=shards,
                         admission=args.admission,
                         eviction=args.eviction,
                         replicate_top=args.replicate_top,
                         l2=args.l2 is not None,
                         rotate_every=args.rotate_every,
                         telemetry=telemetry is not None,
                         controller=args.controller, seed=args.seed)
    _, pool, trace, server = serving_pieces(point, l2_store=l2_store,
                                            telemetry=telemetry)
    tiering = ""
    if args.eviction != "none" or args.replicate_top or args.l2:
        pieces = [f"{args.eviction} eviction"]
        if args.replicate_top:
            pieces.append(f"top-{args.replicate_top} replication")
        if args.l2:
            pieces.append(f"shared L2 ({len(l2_store)} warm entries)")
        tiering = ", " + ", ".join(pieces)
    print(f"{args.model} behind a {args.cache_policy} cache "
          f"({shards} shard{'s' if shards != 1 else ''}, "
          f"{args.admission} admission{tiering}); {args.traffic} trace "
          f"({trace_summary(trace)['distinct_payloads']} distinct "
          f"payloads)")
    if args.parallel:
        return _parallel_main(args, point, pool, trace, server)
    if args.warm_start:
        manifest = server.restore(args.warm_start)
        print(f"warm-started from {args.warm_start} "
              f"({len(manifest['caches'])} cache streams)")

    if not args.http:
        outputs, report = server.replay(trace, pool)
        _print_report(report)
        _print_telemetry(args, report)
        if report.request_cache.get("evicted") \
                or report.request_cache.get("replicated"):
            print(f"tiering: {report.request_cache.get('evicted', 0)} "
                  f"evictions, {report.request_cache.get('replicated', 0)} "
                  f"replica pushes")
        if report.l2:
            print(f"shared L2: {report.l2['entries']} entries, hit rate "
                  f"{report.l2['hit_rate']:.2%}")
        if args.snapshot_to:
            manifest = server.snapshot(args.snapshot_to)
            print(f"snapshot written to {args.snapshot_to} "
                  f"({len(manifest['caches'])} cache streams)")
        if l2_store is not None:
            manifest = l2_store.flush()
            print(f"L2 store flushed to {args.l2} "
                  f"({manifest['entries']} entries)")
        failures = []
        if args.parity_check:
            # The exactness oracle: every served output must be
            # byte-identical to the engine-less per-request forward —
            # eviction, replication and L2 may change *where* a row
            # comes from, never its bytes.
            oracle = server.oracle_outputs(pool)
            mismatched = sum(
                1 for request, output in zip(trace, outputs)
                if not np.array_equal(output,
                                      oracle[request.pool_index]))
            if mismatched:
                failures.append(f"{mismatched}/{len(trace)} outputs "
                                f"differ from the per-request oracle")
            else:
                print(f"parity: all {len(trace)} outputs byte-identical "
                      f"to the per-request oracle")
        if args.min_hit_rate is not None \
                and report.hit_rate < args.min_hit_rate:
            failures.append(f"hit rate {report.hit_rate:.2%} below the "
                            f"{args.min_hit_rate:.2%} floor")
        for failure in failures:
            print(f"FAIL {failure}")
        return 1 if failures else 0

    front = server.serve_http(port=args.port)
    print(f"HTTP front end at {front.url()} "
          f"(POST /infer, GET /stats, GET /healthz)")
    try:
        if args.serve_forever:
            _shutdown.clear()
            try:
                # Park on the event (poll cheaply) so a test or an
                # embedder can stop the loop by setting it; Ctrl-C
                # still works for interactive runs.
                while not _shutdown.wait(timeout=0.2):
                    pass
                print("shutdown requested")
            except KeyboardInterrupt:
                print("interrupted")
            return 0

        # Drive the trace through the HTTP door as a self-test — with
        # concurrent clients, so requests actually share micro-batches
        # (serial requests would make every batch size 1 and leave the
        # batching path untested).
        from concurrent.futures import ThreadPoolExecutor

        def post(request):
            body = json.dumps(
                {"inputs": np.asarray(
                    pool[request.pool_index]).tolist()}).encode()
            http_request = urllib.request.Request(
                front.url("/infer"), data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(http_request, timeout=30):
                pass

        with ThreadPoolExecutor(max_workers=min(16, args.batch_size * 2)) \
                as executor:
            for future in [executor.submit(post, request)
                           for request in trace]:
                future.result()
        with urllib.request.urlopen(front.url("/stats"),
                                    timeout=10) as response:
            stats = json.load(response)
        print(f"drove {args.requests} requests over HTTP: hit rate "
              f"{stats['hit_rate']:.2%}, mean batch size "
              f"{stats['mean_batch_size']:.2f}, p99 "
              f"{stats['latency_p99_ms']:.2f} ms")
        if telemetry is not None:
            with urllib.request.urlopen(front.url("/metrics"),
                                        timeout=10) as response:
                exposition = response.read().decode("utf-8")
            samples = [line for line in exposition.splitlines()
                       if line and not line.startswith("#")]
            print(f"GET /metrics: {len(samples)} samples, e.g. "
                  + "; ".join(samples[:2]))
        return 0
    finally:
        front.stop()


if __name__ == "__main__":
    sys.exit(serve_main())
