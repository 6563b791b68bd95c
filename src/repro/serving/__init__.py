"""Reuse-aware inference serving.

The training engine (:mod:`repro.core.reuse`) clears its MCACHE for
every layer call — single-use batches, as the paper's training flow
requires.  Serving inverts that: production traffic repeats, so the
signature machinery pays off *across* requests.  This package provides

* :class:`~repro.serving.engine.ServingPolicy` — admission/eviction
  knobs (capacity geometry, TTL by batch age, per-layer enable, exact
  collision checking) shared by both cache granularities;
* :class:`~repro.serving.cache.SignatureResultCache` — a persistent
  signature→result store over :class:`~repro.core.mcache_vec.VectorizedMCache`
  whose state survives across batches, with one hit ledger,
  :class:`~repro.serving.cache.CacheCounters`;
* :class:`~repro.serving.engine.ServingReuseEngine` — the per-layer
  vector-granularity reuse engine a :class:`~repro.nn.module.Module`
  attaches like the training engine;
* :class:`~repro.serving.batcher.MicroBatcher` — the asyncio
  micro-batching request queue with backpressure;
* :class:`~repro.serving.server.InferenceServer` — a routing front end
  over N worker shards (each with its own caches and batcher), with
  cache :meth:`~repro.serving.server.InferenceServer.snapshot` /
  :meth:`~repro.serving.server.InferenceServer.restore` persistence
  and an optional stdlib HTTP front end;
* :class:`~repro.serving.parallel.ParallelInferenceServer` — the
  hash-ring shards as real worker processes (measured wall-clock
  makespan) with supervised crash recovery
  (:class:`~repro.serving.parallel.FaultInjection` makes the recovery
  path testable);
* :mod:`~repro.serving.router` — deterministic signature-hash routing
  on a SHA-256 consistent ring, plus
  :class:`~repro.serving.router.HotKeyTracker` hot-key replication;
* :class:`~repro.serving.tiering.SharedL2Cache` — the shared
  second-tier payload→row store behind the per-shard L1 caches;
* :mod:`~repro.serving.loadgen` — deterministic traffic generators
  (uniform, bursty, hot-key/Zipfian).

Both cache granularities are :class:`SignatureResultCache` instances.
They share no code with training's stateless signature phase
(:class:`repro.core.session.ReuseSession`), and nothing under
:mod:`repro.core`, :mod:`repro.training` or :mod:`repro.nn` imports
this package.
"""

from repro.serving.batcher import BatcherConfig, MicroBatcher
from repro.serving.cache import (CacheCounters, ServeOutcome,
                                 SignatureResultCache)
from repro.serving.engine import ServingPolicy, ServingReuseEngine
from repro.serving.loadgen import (
    TRAFFIC_PATTERNS,
    Request,
    TrafficConfig,
    build_request_pool,
    generate_trace,
)
from repro.serving.parallel import FaultInjection, ParallelInferenceServer
from repro.serving.router import (ConsistentHashRing, HotKeyTracker,
                                  signature_key)
from repro.serving.server import InferenceServer, ServingReport
from repro.serving.tiering import SharedL2Cache

__all__ = [
    "BatcherConfig",
    "ConsistentHashRing",
    "HotKeyTracker",
    "signature_key",
    "CacheCounters",
    "FaultInjection",
    "InferenceServer",
    "MicroBatcher",
    "ParallelInferenceServer",
    "Request",
    "ServeOutcome",
    "ServingPolicy",
    "ServingReport",
    "ServingReuseEngine",
    "SharedL2Cache",
    "SignatureResultCache",
    "TRAFFIC_PATTERNS",
    "TrafficConfig",
    "build_request_pool",
    "generate_trace",
]
