"""The sharded inference-serving front end.

:class:`InferenceServer` is a routing front end over ``shards`` worker
shards.  Each shard owns a full copy of the serving machinery — its own
request-granularity :class:`~repro.serving.cache.SignatureResultCache`,
its own per-layer :class:`~repro.serving.engine.ServingReuseEngine` and
its own :class:`~repro.serving.batcher.MicroBatcher` — and requests are
routed to shards by deterministic signature hashing on a consistent
ring (:mod:`repro.serving.router`), so all repeats of a payload land on
the shard that caches it.  ``shards=1`` degenerates to the original
single-backend facade, batch for batch.

Three ways to drive the server:

* :meth:`serve_trace` — push a load-generator trace through the real
  asyncio queues (optionally in real time), measuring wall-clock
  latency;
* :meth:`replay` — a deterministic replay of the same batching
  discipline on a simulated clock: requests are partitioned onto their
  shards, each shard's batches form exactly as its collector would
  form them, and execution is serialised in (close-time, shard) order —
  so batch compositions (and therefore every cache decision) depend
  only on the trace and the shard count, which is what the sweep grid
  and the golden suite need.  Each shard is modelled as its own
  backend worker, so the report's ``simulated_makespan_s`` shows the
  scale-out win that one in-process replay cannot show in wall clock;
* :meth:`serve_http` — a stdlib HTTP front end (JSON in/out) for
  driving the server from outside the process.

Cache state survives restarts: :meth:`snapshot` writes every shard's
caches as a versioned JSON manifest plus one ``.npz`` array payload
through the one commit path, :func:`repro.durable.commit` (fsynced, so
a snapshot survives a power loss as well as a process crash), and
:meth:`restore` rebuilds an identically configured server into the
donor's exact cache state (same placements, ages and counters), all or
nothing, so a warm-started server reproduces the donor's hit behaviour
on subsequent traffic — the golden warm-start suite pins this.

:meth:`oracle_outputs` provides the exactness reference: the same
weights, engines detached, every request forwarded alone.  With the
request cache in ``exact_check`` mode and ``compute="per_request"``,
served outputs are byte-identical to that oracle *at any shard count* —
reuse only ever copies an output the oracle computation produced for an
identical payload.  (Batched compute trades that guarantee for
throughput: BLAS reduction orders vary with batch shape, so outputs
match the oracle only to ~1e-13; the sweep records the measured
deviation.)
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.rpq import RPQHasher
from repro.core.stats import LayerReuseStats, ReuseStats
from repro.durable import commit, read
from repro.serving.batcher import (BatcherConfig, BatcherTelemetry,
                                   MicroBatcher)
from repro.serving.cache import CacheCounters
from repro.serving.engine import (ServingPolicy, ServingReuseEngine,
                                  SignatureResultCache)
from repro.serving.loadgen import Request
from repro.serving.router import (ConsistentHashRing, HotKeyTracker,
                                  signature_key)

SNAPSHOT_FORMAT = "repro-serving-snapshot"
# Version 2: the cache state layout gained the eviction metadata
# (repro.serving.cache.STATE_VERSION 2).  Version 3: each shard's
# per-layer reuse statistics ride along, so a restored server reports
# the same ``layer_stats`` as its donor.
# Version 4: cache state version 3, without the ``mcache_stats`` meta.
# Version 5: the model's unflattened output shape rides along, so hits
# served before a restored server's first compute keep that shape.
# Version 6: cache state version 4 (one line-ordered layout, the payload
# width) and one batch clock per shard (``shard_batch_indices``).
# Version 7: one row clock per shard (``shard_rows``), so a restored
# shard's ledger, and a respawned worker's, keep counting its rows.
SNAPSHOT_VERSION = 7
SNAPSHOT_MANIFEST = "manifest.json"
# Largest ``POST /infer`` body the HTTP front end reads; a longer
# claimed ``Content-Length`` gets a 413 before any of the body is read.
MAX_INFER_BODY_BYTES = 16 * 1024 * 1024


@dataclass
class ServingReport:
    """Telemetry of one served run (:func:`build_report`).

    Every count is a run delta, so a second or warm-started run counts
    only its own traffic: ``requests``, ``batches``,
    ``mean_batch_size``, ``request_cache``, ``vector_cache``,
    ``hit_rate``, ``recoveries``, ``shard_stats``' and ``layer_stats``'
    counts and ``l2``'s ``hits``/``misses``/``inserts``.
    ``shard_stats``' ``occupancy``, ``layer_stats``' ``detection_on``
    and ``l2``'s ``entries`` are levels at run end; ``telemetry`` is the
    bus's lifetime digest.  ``/stats`` is lifetime throughout.
    """

    requests: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    duration_s: float = 0.0
    throughput_rps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    request_cache: dict = field(default_factory=dict)
    vector_cache: dict = field(default_factory=dict)
    layer_stats: list = field(default_factory=list)
    hit_rate: float = 0.0
    shards: int = 1
    shard_stats: list = field(default_factory=list)
    # Simulated busy-until time of the slowest shard worker in replay
    # (0.0 for wall-clock paths): the scale-out makespan.
    simulated_makespan_s: float = 0.0
    # Wall-clock time to drain the whole replay across real worker
    # processes (0.0 for in-process paths): the measured counterpart of
    # ``simulated_makespan_s``.
    measured_makespan_s: float = 0.0
    # Worker respawns the parallel supervisor performed during the run.
    recoveries: int = 0
    # Shared-L2 telemetry (empty when no L2 tier is attached).
    l2: dict = field(default_factory=dict)
    # Event-bus digest (empty when telemetry is off): emitted/dropped
    # event counts and applied controller decisions.
    telemetry: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ShardLedger:
    """One shard's running totals: batch and row clocks (both ride in
    snapshots), cache counters (``None`` for a cache that is off),
    per-(layer, phase) reuse rows and resident lines."""

    batches: int = 0
    rows: int = 0
    request: CacheCounters | None = field(default_factory=CacheCounters)
    vector: CacheCounters | None = field(default_factory=CacheCounters)
    layers: list = field(default_factory=list)
    occupancy: int = 0


@dataclass
class RunLedger:
    """A server's running totals: one :class:`ShardLedger` per shard,
    the shared L2's counters and the supervisor's worker respawns."""

    shards: list
    l2: dict = field(default_factory=dict)
    recoveries: int = 0


def build_report(start: RunLedger, end: RunLedger, *, requests: int,
                 duration_s: float, latencies_s, telemetry=None,
                 **extra) -> ServingReport:
    """The one :class:`ServingReport` builder: ``end`` minus ``start``.

    Both servers call it with the ledger read when the run began and
    the one read when it ended.  The ``latency_*`` fields are exact
    reads of the run's own per-request latency array; the hit rate is
    the request cache's when one is on, else the vector cache's.
    ``telemetry`` (a :class:`repro.obs.Telemetry` or ``None``) adds its
    lifetime digest; ``extra`` fills the remaining report fields.
    """
    request_deltas, vector_deltas = [], []
    shard_stats, layer_stats = [], []
    for index, (before, after) in enumerate(zip(start.shards, end.shards)):
        # ``None`` stays ``None``: that cache is off.
        request = after.request and after.request - before.request
        vector = after.vector and after.vector - before.vector
        request_deltas.append(request)
        vector_deltas.append(vector)
        # ``hits``/``hit_rate`` count rows at both granularities.
        merged = CacheCounters.aggregate(
            counters for counters in (request, vector) if counters)
        shard_stats.append({
            "shard": index, "requests": after.rows - before.rows,
            "hits": merged.hits, "hit_rate": merged.hit_rate,
            "batches": after.batches - before.batches,
            "occupancy": after.occupancy})
        earlier = {(row["layer"], row["phase"]): row
                   for row in before.layers}
        for row in after.layers:
            prior = earlier.get((row["layer"], row["phase"]))
            vectors = row["vectors"] - (prior["vectors"] if prior else 0)
            hits = row["hits"] - (prior["hits"] if prior else 0)
            layer_stats.append(dict(
                row, vectors=vectors, hits=hits,
                hit_fraction=hits / vectors if vectors else 0.0,
                shard=index))
    request_cache = CacheCounters.aggregate(request_deltas).to_dict() \
        if None not in request_deltas else {}
    vector_cache = CacheCounters.aggregate(vector_deltas).to_dict() \
        if None not in vector_deltas else {}
    l2 = {}
    if end.l2:
        l2 = {name: end.l2[name] - start.l2.get(name, 0)
              for name in ("hits", "misses", "inserts")}
        lookups = l2["hits"] + l2["misses"]
        l2.update(entries=end.l2["entries"],
                  hit_rate=l2["hits"] / lookups if lookups else 0.0)
    rows = sum(row["requests"] for row in shard_stats)
    batches = sum(row["batches"] for row in shard_stats)
    latencies_ms = np.asarray(latencies_s, dtype=np.float64) * 1e3
    p50 = p95 = p99 = mean = 0.0
    if len(latencies_ms):
        p50, p95, p99 = (float(value) for value in
                         np.percentile(latencies_ms, (50, 95, 99)))
        mean = float(latencies_ms.mean())
    return ServingReport(
        requests=requests, batches=batches,
        mean_batch_size=rows / batches if batches else 0.0,
        duration_s=duration_s,
        throughput_rps=requests / duration_s if duration_s else 0.0,
        latency_p50_ms=p50, latency_p95_ms=p95, latency_p99_ms=p99,
        latency_mean_ms=mean,
        request_cache=request_cache, vector_cache=vector_cache,
        layer_stats=layer_stats,
        hit_rate=(request_cache or vector_cache).get("hit_rate", 0.0),
        shards=len(shard_stats), shard_stats=shard_stats,
        recoveries=end.recoveries - start.recoveries, l2=l2,
        telemetry=telemetry.summary() if telemetry is not None else {},
        **extra)


def simulate_clock(arrivals: np.ndarray, schedule: list, compute_s: list
                   ) -> tuple[np.ndarray, float]:
    """Per-request latency and makespan on the replay's simulated clock.

    ``schedule`` holds each shard's ``(close_time, members)`` batches
    in order and ``compute_s`` their measured compute times.  Each
    shard is its own backend worker: a batch starts once it has closed
    and its shard is free, so a request's latency is its queue wait
    plus the compute of its batch.
    """
    latencies = np.zeros(len(arrivals))
    makespan = 0.0
    for batches, times in zip(schedule, compute_s):
        free_at = 0.0
        for (close_time, members), compute in zip(batches, times):
            free_at = max(close_time, free_at) + compute
            latencies[members] = free_at - arrivals[members]
        makespan = max(makespan, free_at)
    return latencies, makespan


class _Shard:
    """One serving worker: caches, vector engine and micro-batcher."""

    def __init__(self, index: int, server: "InferenceServer"):
        self.index = index
        policy = server.policy
        self.request_cache = SignatureResultCache(policy) \
            if policy.request_cache else None
        self.vector_engine = ServingReuseEngine(policy) \
            if policy.vector_cache else None
        self.batcher = MicroBatcher(
            lambda payloads, _shard=self:
                server._process_shard_batch(_shard, payloads),
            server.batcher_config)
        self.batch_index = 0
        self.rows = 0

    def ledger(self) -> ShardLedger:
        """This shard's running totals, as fresh copies."""
        entry = ShardLedger(self.batch_index, self.rows, None, None)
        if self.request_cache is not None:
            entry.request = CacheCounters.aggregate(
                [self.request_cache.counters])
            entry.occupancy += self.request_cache.occupancy()
        if self.vector_engine is not None:
            entry.vector = self.vector_engine.counters()
            entry.layers = self.vector_engine.layer_summary()
            entry.occupancy += sum(self.vector_engine.occupancy().values())
        return entry


class InferenceServer:
    """Serve a trained model with sharded cross-request reuse."""

    def __init__(self, model, policy: ServingPolicy | None = None,
                 batcher: BatcherConfig | None = None, shards: int = 1,
                 l2=None, telemetry=None):
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.model = model
        self.policy = policy or ServingPolicy()
        self.batcher_config = batcher or BatcherConfig()
        self.num_shards = shards
        # Observability is strictly opt-in: with ``telemetry=None``
        # (a repro.obs.Telemetry bundle otherwise) every emission site
        # below is a single ``is not None`` check — provably inert.
        self.telemetry = telemetry
        self.bus = telemetry.bus if telemetry is not None else None
        model.eval()

        self._ring = ConsistentHashRing(shards)
        # Routing hashes with the same RPQ stream the caches use, so
        # the shard split is a pure function of (payload, policy).
        self._route_hasher = RPQHasher(seed=self.policy.rpq_seed)
        # Hot-key replication: the tracker promotes the hottest
        # signatures, routing spreads them round-robin, and each served
        # batch pushes their rows to the peer shards' caches.
        self._hot = HotKeyTracker(
            self.policy.replicate_top,
            min_count=self.policy.replicate_min_count) \
            if self.policy.replicate_top > 0 else None
        # The shared second tier behind the per-shard request caches.
        if l2 is not None and not self.policy.request_cache:
            raise ValueError("the shared L2 backs the request cache; "
                             "enable request_cache to attach one")
        self.l2 = l2
        self.shards = [_Shard(index, self) for index in range(shards)]
        model.set_engine(self.shards[0].vector_engine)

        if self.bus is not None:
            for shard in self.shards:
                shard.batcher.telemetry.bus = self.bus
                shard.batcher.telemetry.source = f"shard{shard.index}"
                if shard.vector_engine is not None:
                    shard.vector_engine.bus = self.bus
                    shard.vector_engine.source = f"shard{shard.index}"
            if self._hot is not None:
                self._hot.bus = self.bus
            if l2 is not None:
                l2.attach_bus(self.bus)
        # Controller/audit window accumulation (telemetry-only state).
        self._window_index = 0
        self._window_batches = 0
        self._window_delta = CacheCounters()
        self._clears_applied = 0

        self._output_tail: tuple | None = None
        self._compute_time_s = 0.0
        self._started_at = time.perf_counter()
        if l2 is not None:
            # Cached rows are only valid for the weights that computed
            # them; binding refuses a persisted store from another model.
            l2.bind_model(self._model_fingerprint())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, payload) -> int:
        """The shard serving a payload.

        The ring owner by default; replicated hot keys take the
        tracker's round-robin turn across all shards instead.
        """
        if self.num_shards == 1:
            return 0
        key = self._signature_key(payload)
        home = self._ring.route(key)
        if self._hot is not None and self._hot.observe(key):
            return self._hot.spread(key, home, self.num_shards)
        return home

    def _signature_key(self, payload) -> bytes:
        """The ring key of one payload (per-row RPQ hashing).

        Signatures are computed one payload at a time on purpose:
        batching the projection would change BLAS reduction order and
        could flip knife-edge quantisations, i.e. change routing.
        """
        flat = np.asarray(payload, dtype=np.float64).reshape(1, -1)
        return signature_key(self._route_hasher.signatures(
            flat, self.policy.signature_bits)[0])

    def _shards_for_trace(self, trace: list[Request], pool: np.ndarray,
                          order: np.ndarray) -> np.ndarray:
        if self.num_shards == 1:
            return np.zeros(len(trace), dtype=np.int64)
        unique = sorted({request.pool_index for request in trace})
        keys = {index: self._signature_key(pool[index])
                for index in unique}
        routed = self._ring.route_many([keys[index] for index in unique])
        owners = dict(zip(unique, (int(shard) for shard in routed)))
        if self._hot is None:
            return np.array([owners[request.pool_index]
                             for request in trace], dtype=np.int64)
        # Replication routes online, in arrival order: the tracker's
        # counts, promotions and round-robin turns see the requests
        # exactly as the async front door would.
        shard_of = np.empty(len(trace), dtype=np.int64)
        for k in order:
            index = trace[k].pool_index
            key = keys[index]
            if self._hot.observe(key):
                shard_of[k] = self._hot.spread(key, owners[index],
                                               self.num_shards)
            else:
                shard_of[k] = owners[index]
        return shard_of

    # ------------------------------------------------------------------
    # Synchronous batch path
    # ------------------------------------------------------------------
    def _forward_rows(self, payloads: np.ndarray) -> np.ndarray:
        """Model outputs for a stack of payloads, flattened per request."""
        start = time.perf_counter()
        if self.policy.compute == "per_request":
            outputs = np.stack([self.model(payload[None])[0]
                                for payload in payloads]) \
                if len(payloads) else np.empty((0,))
        else:
            outputs = self.model(payloads)
        self._compute_time_s += time.perf_counter() - start
        outputs = np.asarray(outputs, dtype=np.float64)
        self._output_tail = outputs.shape[1:]
        return outputs.reshape(len(payloads), -1)

    def _process_shard_batch(self, shard: _Shard, payloads: list) -> list:
        """One micro-batch through one shard's caches and the model.

        The batch serves its most common payload shape (a tie goes to
        the shape that arrived first).  Each other payload touches no
        cache and gets its own ``ValueError``, naming both shapes, in
        its result slot, so it fails alone.  Every payload advances the
        shard's row clock.
        """
        shard.rows += len(payloads)
        arrays = [np.asarray(payload) for payload in payloads]
        shapes = [array.shape for array in arrays]
        counts: dict = {}
        for shape in shapes:
            counts[shape] = counts.get(shape, 0) + 1
        if len(counts) == 1:
            return self._serve_shard_batch(shard, arrays)
        served = max(counts, key=counts.get)
        members = [k for k, shape in enumerate(shapes) if shape == served]
        results: list = [
            ValueError(f"payload shape {shape} does not match the "
                       f"batch's payload shape {served}")
            for shape in shapes]
        outputs = self._serve_shard_batch(shard,
                                          [arrays[k] for k in members])
        for k, output in zip(members, outputs):
            results[k] = output
        return results

    def _serve_shard_batch(self, shard: _Shard, arrays: list) -> list:
        """Equal-shape payloads through one shard's caches and the model."""
        if shard.vector_engine is not None:
            # The model is shared; batches execute one at a time (the
            # asyncio loop / the replay scheduler serialise them), so
            # attaching the owning shard's engine per batch keeps each
            # shard's per-layer caches private.
            self.model.set_engine(shard.vector_engine)
        stacked = np.array(arrays)
        observing = self.bus is not None
        if observing:
            counters_before = CacheCounters.aggregate(
                [shard.request_cache.counters]) \
                if shard.request_cache is not None else None
            l2_before = (self.l2.hits, self.l2.misses, self.l2.inserts) \
                if self.l2 is not None else None
        if shard.request_cache is not None:
            flat = np.asarray(stacked, dtype=np.float64).reshape(
                len(stacked), -1)
            if self.l2 is not None:
                compute = lambda indices: self._compute_rows_l2(  # noqa: E731
                    stacked, flat, indices)
            else:
                compute = lambda indices: self._forward_rows(  # noqa: E731
                    stacked[indices])
            rows, _ = shard.request_cache.serve(flat, compute,
                                                shard.batch_index)
            if self._hot is not None and self.num_shards > 1:
                self._push_replicas(shard, flat, rows)
        else:
            rows = self._forward_rows(stacked)
        if shard.vector_engine is not None:
            shard.vector_engine.end_batch()
        shard.batch_index += 1
        if observing:
            self._observe_batch(shard, len(arrays), counters_before,
                                l2_before)
        tail = self._output_tail or (rows.shape[1],)
        return list(rows.reshape(len(rows), *tail))

    # ------------------------------------------------------------------
    # Telemetry emission + window/controller loop (bus-enabled only)
    # ------------------------------------------------------------------
    def _observe_batch(self, shard: _Shard, rows: int, counters_before,
                       l2_before) -> None:
        """Emit this batch's events and advance the telemetry window.

        Runs strictly *after* every cache decision of the batch — the
        emissions cannot perturb them, which is what keeps telemetry-on
        replays byte-identical to the oracle.
        """
        payload: dict = {"shard": shard.index,
                         "batch": shard.batch_index - 1, "rows": rows}
        if counters_before is not None:
            delta = shard.request_cache.counters - counters_before
            payload["counters"] = asdict(delta)
            self._window_delta.merge(delta)
        if l2_before is not None:
            payload["l2_hits"] = self.l2.hits - l2_before[0]
            payload["l2_misses"] = self.l2.misses - l2_before[1]
            payload["l2_inserts"] = self.l2.inserts - l2_before[2]
        self.bus.emit("serve.batch", source=f"shard{shard.index}",
                      **payload)
        self._window_batches += 1
        if self._window_batches >= self.telemetry.window_batches:
            self._close_window()

    def _active_policy(self):
        """The policy live on the caches (the controller may have
        retuned it past the constructor-time ``self.policy``)."""
        if self.shards[0].request_cache is not None:
            return self.shards[0].request_cache.policy
        return self.policy

    def _close_window(self) -> None:
        delta = self._window_delta
        policy = self._active_policy()
        window = {
            "window": self._window_index,
            "batches": self._window_batches,
            "rows": delta.requests,
            "hits": delta.hits,
            "hit_rate": delta.hit_rate,
            "computed": delta.computed,
            "inserted": delta.inserted,
            "rejected": delta.rejected,
            "expired": delta.expired,
            "evicted": delta.evicted,
            "ttl_batches": policy.ttl_batches,
            "admission": policy.admission,
            "eviction": policy.eviction,
            "signature_bits": policy.signature_bits,
        }
        self._window_index += 1
        self._window_batches = 0
        self._window_delta = CacheCounters()
        self.bus.emit("serve.window", source="server", **window)
        telemetry = self.telemetry
        if telemetry.recorder is not None:
            telemetry.recorder.record_window(window)
        if telemetry.controller is not None:
            for decision in telemetry.controller.observe_window(window):
                self._apply_decision(decision)
                self.bus.emit("controller.decision", source="controller",
                              **decision)
                if telemetry.recorder is not None:
                    telemetry.recorder.record_decision(decision)
        telemetry.pump()

    def _apply_decision(self, decision: dict) -> None:
        """Retune the live caches per one controller decision.

        Under ``request_exact``+``per_request`` none of these actions
        can break byte-identity: they only move which rows are cached,
        and the exact check verifies payload bytes before any reuse.
        """
        action = decision["action"]
        caches = [shard.request_cache for shard in self.shards
                  if shard.request_cache is not None]
        if action == "flash_clear":
            for cache in caches:
                cache.clear()
            self._clears_applied += len(caches)
            self.bus.emit("session.clear", source="controller",
                          clears=len(caches))
        elif action == "ttl":
            for cache in caches:
                cache.policy = cache.policy.replace(
                    ttl_batches=decision["ttl_batches"])
        elif action == "admission":
            for cache in caches:
                cache.policy = cache.policy.replace(
                    admission=decision["admission"])
        elif action == "signature_bits":
            # New signature length invalidates every stored signature:
            # swap the policy and clear (the cache hashes with
            # ``policy.signature_bits`` per call, so the next batch
            # probes at the new length).  Routing keeps the original
            # bits — it only distributes load.
            for cache in caches:
                cache.policy = cache.policy.replace(
                    signature_bits=decision["signature_bits"])
                cache.clear()
            self.bus.emit("session.clear", source="controller",
                          clears=len(caches))
        else:  # pragma: no cover — controller and server move together
            raise ValueError(f"unknown controller action {action!r}")

    def _begin_run(self, kind: str, **extra) -> None:
        """Open one audited run (replay / serve_trace) on the recorder.

        Resets the window accumulators and the controller so every run
        observes windows from a clean state — which is what makes the
        recorded decision stream reproducible from the manifest alone
        (``repro.obs.controller.replay_decisions``).  A no-op when
        telemetry is off.
        """
        if self.telemetry is None:
            return
        self._window_index = 0
        self._window_batches = 0
        self._window_delta = CacheCounters()
        controller = self.telemetry.controller
        if controller is not None:
            controller.reset()
        recorder = self.telemetry.recorder
        if recorder is not None:
            header = {
                "kind": kind,
                "config": {
                    "policy": self._policy_fingerprint(),
                    "model": self._model_fingerprint(),
                    "shards": self.num_shards,
                    "batcher": {
                        "max_batch_size":
                            self.batcher_config.max_batch_size,
                        "max_wait_s": self.batcher_config.max_wait_s,
                    },
                    "window_batches": self.telemetry.window_batches,
                },
                "seeds": self.telemetry.seeds,
            }
            if controller is not None:
                header["controller"] = controller.describe()
            header.update(extra)
            recorder.begin_run(**header)

    def _finalize_run(self, report: "ServingReport") -> None:
        """Close the audited run: drain the bus and commit the manifest."""
        if self.telemetry is None:
            return
        self.telemetry.pump()
        recorder = self.telemetry.recorder
        if recorder is not None:
            recorder.finalize({
                "requests": report.requests,
                "batches": report.batches,
                "hit_rate": report.hit_rate,
                **self.telemetry.summary(),
            })

    def _compute_rows_l2(self, stacked: np.ndarray, flat: np.ndarray,
                         indices) -> np.ndarray:
        """L1-missing rows via the shared L2: hit rows come from the
        store, truly missing ones from the model (written through)."""
        indices = np.asarray(indices, dtype=np.int64)
        cached = [self.l2.lookup(flat[index]) for index in indices]
        missing = [slot for slot, row in enumerate(cached) if row is None]
        if missing:
            computed = self._forward_rows(stacked[indices[missing]])
            width = computed.shape[1]
        else:
            # Every row came from L2: the store also remembers the
            # unflattened output shape the model never got to set.
            width = len(cached[0])
            if self.l2.output_tail is not None:
                self._output_tail = tuple(self.l2.output_tail)
        out = np.empty((len(indices), width), dtype=np.float64)
        for slot, row in enumerate(cached):
            if row is not None:
                out[slot] = row
        for position, slot in enumerate(missing):
            out[slot] = computed[position]
            self.l2.insert(flat[indices[slot]], computed[position],
                           self._output_tail)
        return out

    def _push_replicas(self, shard: _Shard, flat: np.ndarray,
                       rows: np.ndarray) -> None:
        """Push this batch's replicated hot rows to the peer shards.

        Every served row whose signature is in the tracker's replicated
        set is admitted into each peer's request cache (insert, or
        refresh in place), stamped with the *peer's* batch clock — so
        replicas age out under the peer's own TTL and the next push
        re-validates them.  Under ``request_exact``+``per_request`` the
        pushed row is the per-request oracle's bytes, so replication
        cannot perturb the byte-identity contract.
        """
        pushed: set[bytes] = set()
        for position in range(len(flat)):
            payload_bytes = flat[position].tobytes()
            if payload_bytes in pushed:
                continue
            pushed.add(payload_bytes)
            if not self._hot.is_replicated(
                    self._signature_key(flat[position])):
                continue
            for peer in self.shards:
                if peer is shard or peer.request_cache is None:
                    continue
                peer.request_cache.admit_external(
                    flat[position], rows[position], peer.batch_index)

    # ------------------------------------------------------------------
    # Async front door
    # ------------------------------------------------------------------
    async def start(self) -> None:
        for shard in self.shards:
            await shard.batcher.start()

    async def stop(self) -> None:
        for shard in self.shards:
            await shard.batcher.stop()

    async def infer(self, payload):
        """Serve one request through its shard's micro-batching queue.

        A payload that is not bool, integer or floating point fails
        here, alone, instead of failing every request of the
        micro-batch it would join.  So does a payload holding a NaN or
        an inf: it would hash to a real signature (every ``NaN >= 0`` is
        false), and a finite request with that signature would be
        served its cached result.  Valid payloads go on unconverted.
        """
        array = np.asarray(payload)
        if array.dtype.kind not in "biuf":
            raise ValueError(f"payload dtype {array.dtype} is not numeric")
        if not np.isfinite(array).all():
            raise ValueError("payload holds NaN or inf")
        shard = self.shards[self.shard_for(payload)]
        return await shard.batcher.submit(payload)

    def health(self) -> dict:
        """Liveness of every shard's batcher (the ``/healthz`` payload).

        ``ok`` only while every shard's collector task is running.  It
        only reads task state, so any thread may call it.
        """
        shards = [{"shard": shard.index, "running": shard.batcher.running}
                  for shard in self.shards]
        return {"ok": all(row["running"] for row in shards),
                "shards": shards}

    def serve_trace(self, trace: list[Request], pool: np.ndarray,
                    realtime: bool = False, time_scale: float = 1.0
                    ) -> tuple[list, ServingReport]:
        """Drive a load-generator trace through the asyncio queues.

        With ``realtime`` each request is submitted at its (scaled)
        arrival offset, exercising the max-wait path of the batchers;
        otherwise everything is enqueued as fast as the bounded queues
        admit it (the saturation regime).  Returns the per-request
        outputs in trace order plus a wall-clock report.
        """
        self._begin_run("serve_trace", requests=len(trace))
        ledger = self.ledger()
        start = time.perf_counter()
        latencies = np.zeros(len(trace))

        async def _drive():
            await self.start()
            try:
                origin = asyncio.get_running_loop().time()

                async def one(k: int, request: Request):
                    if realtime:
                        offset = request.arrival_s * time_scale
                        delay = offset - (asyncio.get_running_loop().time()
                                          - origin)
                        if delay > 0:
                            await asyncio.sleep(delay)
                    submitted = time.perf_counter()
                    output = await self.infer(pool[request.pool_index])
                    latencies[k] = time.perf_counter() - submitted
                    return output

                return await asyncio.gather(
                    *(one(k, request) for k, request in enumerate(trace)))
            finally:
                await self.stop()

        outputs = asyncio.run(_drive())
        duration = time.perf_counter() - start
        report = build_report(ledger, self.ledger(), requests=len(trace),
                              duration_s=duration, latencies_s=latencies,
                              telemetry=self.telemetry)
        self._finalize_run(report)
        return outputs, report

    # ------------------------------------------------------------------
    # Deterministic replay (simulated clock, same batching discipline)
    # ------------------------------------------------------------------
    def _form_batches(self, arrivals: np.ndarray, member_order: np.ndarray
                      ) -> list[tuple[float, np.ndarray]]:
        """Collector-equivalent batches over one shard's request stream.

        A batch opens at its oldest request and closes when full or
        when ``max_wait_s`` elapses — membership depends only on the
        arrival times and the batcher config (the collector is
        modelled as always available).
        """
        config = self.batcher_config
        batches = []
        i = 0
        while i < len(member_order):
            first_arrival = arrivals[member_order[i]]
            deadline = first_arrival + config.max_wait_s
            j = i + 1
            while (j < len(member_order) and j - i < config.max_batch_size
                   and arrivals[member_order[j]] <= deadline):
                j += 1
            close_time = arrivals[member_order[j - 1]] \
                if j - i == config.max_batch_size else deadline
            batches.append((float(close_time), member_order[i:j]))
            i = j
        return batches

    def _schedule(self, trace: list[Request], pool: np.ndarray
                  ) -> tuple[np.ndarray, list]:
        """The replay's batch plan: the trace's arrival times, plus each
        shard's collector-equivalent ``(close_time, members)`` batches
        in order (``members`` index into ``trace``)."""
        arrivals = np.array([request.arrival_s for request in trace])
        order = np.argsort(arrivals, kind="stable")
        shard_of = self._shards_for_trace(trace, pool, order)
        return arrivals, [
            self._form_batches(arrivals, order[shard_of[order] == index])
            for index in range(self.num_shards)]

    def replay(self, trace: list[Request], pool: np.ndarray
               ) -> tuple[list, ServingReport]:
        """Replay a trace with deterministic shard and batch composition.

        Requests are partitioned onto their shards by signature
        routing, each shard's batches form exactly as its collector
        would form them on the trace's own clock, and the batches
        execute serially in (close-time, shard, sequence) order — so
        membership and every cache decision depend *only* on the trace,
        the batcher config and the shard count (unlike the wall-clock
        :meth:`serve_trace` path, where service time feeds back into
        composition).  Latency combines the simulated queue wait with
        measured compute time; each shard is its own backend worker, so
        shards drain their queues in parallel on the simulated clock.
        """
        self._begin_run("replay", requests=len(trace))
        ledger = self.ledger()
        arrivals, schedule = self._schedule(trace, pool)
        outputs: list = [None] * len(trace)
        compute_s = [[0.0] * len(batches) for batches in schedule]
        wall_start = time.perf_counter()
        for _close, index, sequence in sorted(
                (close_time, index, sequence)
                for index, batches in enumerate(schedule)
                for sequence, (close_time, _) in enumerate(batches)):
            shard = self.shards[index]
            members = schedule[index][sequence][1]
            compute_start = time.perf_counter()
            batch_outputs = self._process_shard_batch(
                shard, [pool[trace[k].pool_index] for k in members])
            compute_s[index][sequence] = time.perf_counter() - compute_start
            for k, output in zip(members, batch_outputs):
                outputs[k] = output
            shard.batcher.telemetry.record_batch(len(members))

        duration = time.perf_counter() - wall_start
        latencies, makespan = simulate_clock(arrivals, schedule, compute_s)
        report = build_report(ledger, self.ledger(), requests=len(trace),
                              duration_s=duration, latencies_s=latencies,
                              telemetry=self.telemetry,
                              simulated_makespan_s=makespan)
        self._finalize_run(report)
        return outputs, report

    # ------------------------------------------------------------------
    # Exactness oracle
    # ------------------------------------------------------------------
    def oracle_outputs(self, payloads: np.ndarray) -> np.ndarray:
        """Engine-less per-request forwards of the same weights.

        Every payload is forwarded alone, so each oracle output depends
        only on its own payload — the canonical reference the exact
        serving configuration reproduces byte for byte, at any shard
        count.
        """
        self.model.set_engine(None)
        try:
            self.model.eval()
            outputs = [np.asarray(self.model(payload[None])[0],
                                  dtype=np.float64)
                       for payload in payloads]
        finally:
            self.model.set_engine(self.shards[0].vector_engine)
        return np.stack(outputs) if outputs else np.empty((0,))

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _policy_fingerprint(self) -> dict:
        fingerprint = self.policy.fingerprint()
        fingerprint.update({
            "request_cache": self.policy.request_cache,
            "vector_cache": self.policy.vector_cache,
            "compute": self.policy.compute,
            # Vector-cache scope: a mismatch would strand restored
            # streams (never probed, or probed at other vector lengths).
            "layers": list(self.policy.layers)
            if self.policy.layers is not None else None,
            "replicate_top": self.policy.replicate_top,
            "replicate_min_count": self.policy.replicate_min_count,
        })
        return fingerprint

    def _model_fingerprint(self) -> str:
        """SHA-256 over the model's parameter bytes.

        Cached outputs are only valid for the weights that produced
        them — ``exact_check`` verifies input payloads, never weights —
        so :meth:`restore` refuses a snapshot taken under different
        parameters instead of silently serving stale outputs.
        """
        import hashlib
        digest = hashlib.sha256()
        for parameter in self.model.parameters():
            array = np.ascontiguousarray(parameter.value)
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def snapshot(self, path) -> dict:
        """Persist every shard's cache state under ``path`` (a directory).

        Writes a versioned JSON manifest plus one ``.npz`` holding the
        plain-array payloads of every request- and vector-granularity
        cache; :meth:`restore` on an identically configured server
        rebuilds the donor's exact cache state.  Returns the manifest.
        One :func:`repro.durable.commit`, so a crash or a power loss
        leaves the previous complete snapshot or the new one.
        """
        caches = []
        arrays: dict[str, np.ndarray] = {}

        def _add(kind: str, shard_index: int, cache, **identity):
            prefix = f"c{len(caches)}"
            meta, cache_arrays = cache.state_dict()
            caches.append({"prefix": prefix, "kind": kind,
                           "shard": shard_index, "meta": meta, **identity})
            for name, value in cache_arrays.items():
                arrays[f"{prefix}.{name}"] = value

        for shard in self.shards:
            if shard.request_cache is not None:
                _add("request", shard.index, shard.request_cache)
            if shard.vector_engine is not None:
                for layer, length, cache in \
                        shard.vector_engine.cache_streams():
                    _add("vector", shard.index, cache, layer=layer,
                         vector_length=length)

        manifest = commit(path, SNAPSHOT_MANIFEST, {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "shards": self.num_shards,
            "policy": self._policy_fingerprint(),
            "model": self._model_fingerprint(),
            "shard_batch_indices": [shard.batch_index
                                    for shard in self.shards],
            "shard_rows": [shard.rows for shard in self.shards],
            "output_tail": None if self._output_tail is None
            else list(self._output_tail),
            "layer_stats": [[asdict(record) for record
                             in shard.vector_engine.stats.all_records()]
                            if shard.vector_engine is not None else []
                            for shard in self.shards],
            "caches": caches,
        }, arrays, arrays_stem="state")
        if self.telemetry is not None:
            self.telemetry.announce(
                "snapshot.write", "server", path=str(path),
                caches=len(caches), generation=manifest["generation"])
        return manifest

    def restore(self, path) -> dict:
        """Warm-start this server from a :meth:`snapshot` directory.

        Validates the manifest (format, version, shard count and the
        full serving-policy fingerprint must match) and rebuilds every
        cache into the donor's exact state — placements, stored data,
        TTL ages, counters, batch and row clocks, per-layer statistics
        and the model's output shape — so subsequent traffic sees the
        donor's hit behaviour.
        Returns the manifest.  All or nothing: every record loads into a
        fresh cache, and the fresh caches go live only once all have
        loaded.
        """
        manifest, arrays = read(path, SNAPSHOT_MANIFEST, SNAPSHOT_FORMAT,
                                SNAPSHOT_VERSION)
        if manifest.get("shards") != self.num_shards:
            raise ValueError(
                f"snapshot was taken with {manifest.get('shards')} shards; "
                f"this server has {self.num_shards} (signature routing "
                f"would scatter the restored keys)")
        if manifest.get("policy") != self._policy_fingerprint():
            raise ValueError("snapshot was taken under a different "
                             "serving policy; refusing to restore")
        if manifest.get("model") != self._model_fingerprint():
            raise ValueError("snapshot was taken under different model "
                             "weights; its cached outputs would be stale "
                             "— refusing to restore")

        loaded = []
        for record in manifest["caches"]:
            shard = self.shards[record["shard"]]
            if record["kind"] == "request":
                if shard.request_cache is None:
                    raise ValueError("snapshot holds a request cache "
                                     "but the policy disables it")
                owner = shard.request_cache
            else:
                owner = shard.vector_engine
            cache = SignatureResultCache(owner.policy, hasher=owner.hasher)
            prefix = record["prefix"] + "."
            cache.load_state_dict(record["meta"], {
                name[len(prefix):]: value for name, value in arrays.items()
                if name.startswith(prefix)})
            loaded.append((shard, record, cache))
        layer_stats = [ReuseStats({
            (stats["layer"], stats["phase"]): LayerReuseStats(**stats)
            for stats in records}) for records in manifest["layer_stats"]]

        for shard, record, cache in loaded:
            if record["kind"] == "request":
                shard.request_cache = cache
            else:
                shard.vector_engine.install_cache(
                    record["layer"], int(record["vector_length"]), cache)
        if manifest["output_tail"] is not None:
            self._output_tail = tuple(manifest["output_tail"])
        for shard, batch_index, rows, stats in zip(
                self.shards, manifest["shard_batch_indices"],
                manifest["shard_rows"], layer_stats):
            shard.batch_index = int(batch_index)
            shard.rows = int(rows)
            if shard.vector_engine is not None:
                shard.vector_engine.batch_index = int(batch_index)
                shard.vector_engine.stats = stats
        if self.telemetry is not None:
            self.telemetry.announce("snapshot.restore", "server",
                                    path=str(path),
                                    caches=len(manifest["caches"]))
        return manifest

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def cache_counters(self) -> CacheCounters:
        """Aggregate cache-lifetime counters across every shard.

        Counters survive :meth:`restore`, so on a warm-started server
        they cover the donor's traffic too; a run's report counts only
        its own (see :meth:`ledger`).
        """
        if self.policy.request_cache:
            return CacheCounters.aggregate(
                shard.request_cache.counters for shard in self.shards)
        if self.policy.vector_cache:
            return CacheCounters.aggregate(
                shard.vector_engine.counters() for shard in self.shards)
        return CacheCounters()

    def ledger(self) -> RunLedger:
        """Every shard's running totals and the shared L2's counters."""
        return RunLedger([shard.ledger() for shard in self.shards],
                         l2=self.l2.stats_dict() if self.l2 is not None
                         else {})

    def stats(self) -> dict:
        """Live snapshot (the HTTP ``/stats`` payload).

        The report since an all-zero ledger, so lifetime (restored
        clocks and counters included).  ``duration_s``/
        ``throughput_rps`` are wall clock since the server was built;
        ``compute_time_s`` is the model time inside that.  Latency
        percentiles are lifetime reads of the batchers' merged latency
        histogram.
        """
        telemetry = BatcherTelemetry.aggregate(
            shard.batcher.telemetry for shard in self.shards)
        payload = build_report(
            RunLedger([ShardLedger()] * self.num_shards), self.ledger(),
            requests=telemetry.completed,
            duration_s=time.perf_counter() - self._started_at,
            latencies_s=(), telemetry=self.telemetry).to_dict()
        histogram = telemetry.latency_hist
        payload.update(latency_p50_ms=histogram.percentile(50) * 1e3,
                       latency_p95_ms=histogram.percentile(95) * 1e3,
                       latency_p99_ms=histogram.percentile(99) * 1e3,
                       latency_mean_ms=histogram.mean * 1e3,
                       queue_depth=sum(shard.batcher.depth
                                       for shard in self.shards),
                       compute_time_s=self._compute_time_s)
        return payload

    def metrics_text(self) -> str:
        """The Prometheus text exposition (the HTTP ``/metrics`` body).

        Drains the bus into the metrics registry first, so a scrape
        always reflects every batch served before it.  Requires a
        telemetry bundle (the HTTP front end answers 404 otherwise).
        """
        if self.telemetry is None:
            raise RuntimeError("telemetry is off; build the server with "
                               "a repro.obs.Telemetry to scrape metrics")
        return self.telemetry.render_prometheus()

    # ------------------------------------------------------------------
    # HTTP front end (stdlib only)
    # ------------------------------------------------------------------
    def serve_http(self, host: str = "127.0.0.1", port: int = 0
                   ) -> "HttpFrontEnd":
        """Start the HTTP front end; returns a handle with ``.port``."""
        front = HttpFrontEnd(self, host, port)
        front.start()
        return front


class HttpFrontEnd:
    """JSON-over-HTTP adapter around an :class:`InferenceServer`.

    ``POST /infer`` with ``{"inputs": <nested list>}`` returns
    ``{"outputs": <nested list>}`` (a 413, unread, for a body longer
    than :data:`MAX_INFER_BODY_BYTES`); ``GET /stats`` reports telemetry and
    ``GET /healthz`` each shard's batcher liveness, with a 503 while any
    is down.  The asyncio loop (and the micro-batchers of every shard)
    runs on a dedicated thread; HTTP handler threads submit into it and
    block on the result — so concurrent HTTP clients still share
    micro-batches.
    """

    def __init__(self, server: InferenceServer, host: str = "127.0.0.1",
                 port: int = 0):
        self.server = server
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._http = None
        self._http_thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        ready = threading.Event()
        startup_errors: list[BaseException] = []

        def run_loop():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 — report below
                startup_errors.append(error)
                ready.set()
                return
            ready.set()
            loop.run_forever()

        self._loop_thread = threading.Thread(target=run_loop, daemon=True)
        self._loop_thread.start()
        # Fail loudly instead of binding HTTP to a dead event loop.
        if not ready.wait(timeout=10):
            raise RuntimeError("serving loop did not start within 10s")
        if startup_errors:
            self._loop = None
            raise RuntimeError("serving loop failed to start") \
                from startup_errors[0]

        front = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # pragma: no cover — quiet
                pass

            def _send(self, status: int, payload: dict) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/healthz":
                    health = front.server.health()
                    self._send(200 if health["ok"] else 503, health)
                elif self.path == "/stats":
                    self._send(200, front.server.stats())
                elif self.path == "/metrics":
                    if front.server.telemetry is None:
                        self._send(404, {"error": "telemetry is off"})
                        return
                    body = front.server.metrics_text().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type",
                                     "text/plain; version=0.0.4")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self._send(404, {"error": f"unknown path {self.path}"})

            def do_POST(self):
                if self.path != "/infer":
                    self._send(404, {"error": f"unknown path {self.path}"})
                    return
                try:
                    # Validate before reading: rfile.read(-1) would block
                    # until the client hangs up.
                    raw = self.headers.get("Content-Length")
                    if raw is None:
                        raise ValueError("missing Content-Length")
                    length = int(raw)
                    if length < 0:
                        raise ValueError(f"negative Content-Length {length}")
                    if length > MAX_INFER_BODY_BYTES:
                        self._send(413, {
                            "error": f"Content-Length {length} exceeds "
                                     f"{MAX_INFER_BODY_BYTES} bytes"})
                        return
                    payload = json.loads(self.rfile.read(length))
                    inputs = np.asarray(payload["inputs"])
                    started = time.perf_counter()
                    outputs = front.submit(inputs)
                    latency_ms = (time.perf_counter() - started) * 1e3
                except Exception as error:  # noqa: BLE001 — report to client
                    self._send(400, {"error": str(error)})
                    return
                self._send(200, {"outputs": np.asarray(outputs).tolist(),
                                 "latency_ms": latency_ms})

        self._http = ThreadingHTTPServer((self.host, self._requested_port),
                                         Handler)
        self.port = self._http.server_address[1]
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, daemon=True)
        self._http_thread.start()

    def submit(self, inputs: np.ndarray, timeout_s: float = 30.0):
        """Thread-safe inference: submit into the serving loop.

        On timeout the request is cancelled, so a still-queued request
        is dropped instead of computed for nobody.
        """
        if self._loop is None:
            raise RuntimeError("front end is not running")
        future = asyncio.run_coroutine_threadsafe(
            self.server.infer(inputs), self._loop)
        try:
            return future.result(timeout=timeout_s)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise

    def stop(self) -> None:
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http_thread.join(timeout=5)
            self._http = None
        if self._loop is not None:
            stop_future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop)
            stop_future.result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5)
            self._loop = None

    def url(self, path: str = "") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def __enter__(self) -> "HttpFrontEnd":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
