"""Serving workload: squeezenet behind two in-process hash-ring shards.

Traffic is Zipfian over a pool of 64 distinct 24 px payloads, and the
hot set rotates five times over the trace, so the small LRU request
cache keeps probing, inserting and evicting.  The cache is fully
associative, so its hit rate depends on the traffic alone, not on which
set each payload's signature happens to land in.  One process drives
it in three phases on one event loop:

* warm-up: the first requests, kept out of every percentile;
* saturation: chunks of requests submitted to ``infer`` all at once,
  alternating between the caching server and an identical server with
  no request cache (the exact baseline) so host noise lands on both;
* open loop: the caching server alone, at a fixed rate under a third
  of its saturated throughput on a 2-CPU host.  Each request's latency is
  measured from the time it was due, so a stall also counts against
  the requests it delays, and the generator's own lateness is reported.

The client keeps no per-request Python objects: outputs land in one
array and are checked against the oracle after the run, so the
collector's pauses reflect the server's heap, not the benchmark's.

With ``trace`` the saturation chunks and the open loop's windows
alternate between traced and untraced; latencies come from the
untraced windows, queue waits from the traced ones.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time

import numpy as np

from repro.analysis.functional_sweep import derive_seed
from repro.models.registry import build_model
from repro.serving import (BatcherConfig, InferenceServer, ServingPolicy,
                           TrafficConfig, build_request_pool, generate_trace)

from perfbench.bench import PER_LAYER, HostSpeed, layer_table, median, \
    percentile, rss_mb, setup_seconds, summary
from perfbench.spans import Tracer

MODEL = "squeezenet"
POOL_SIZE = 64
IMAGE_SIZE = 24
SHARDS = 2
ROTATIONS = 5
BATCHER = BatcherConfig(max_batch_size=8, max_wait_s=0.001)
CACHE_POLICY = ServingPolicy(entries=16, ways=16, eviction="lru",
                             compute="batched", exact_check=True)
EXACT_POLICY = ServingPolicy(request_cache=False)
# Under a third of the caching server's saturated rate (about 5,500
# req/s on a 2-CPU host); at 80% load the p99 swings by 3x between runs.
OPEN_LOOP_RPS = 1600.0
WARMUP_REQUESTS = 256
CHUNK = 256
# Saturation chunks per measured second, and the open loop's share of
# the measured seconds.
CHUNKS_PER_S = 3.0
OPEN_LOOP_SHARE = 0.5
# The open loop runs in windows of this many requests.  Its p99 is the
# median of the windows' p99s (each keeps ten samples beyond it), so a
# few stalls move a few windows, not the result.
OPEN_WINDOW = 1000
# Host-speed probes block the event loop for about 3 ms.
OPEN_LOOP_PROBE_S = 0.25
TOLERANCE = 1e-9
SETUP_REPEATS = 5
POOL_STREAM, TRACE_STREAM, MODEL_STREAM = 0, 1, 2


def _build(seed: int, trace_config: TrafficConfig):
    pool = build_request_pool(MODEL, pool_size=POOL_SIZE,
                              image_size=IMAGE_SIZE,
                              seed=derive_seed(seed, POOL_STREAM))
    servers = {}
    for name, policy in (("cached", CACHE_POLICY), ("exact", EXACT_POLICY)):
        model = build_model(MODEL, num_classes=4,
                            seed=derive_seed(seed, MODEL_STREAM))
        servers[name] = InferenceServer(model, policy, BATCHER,
                                        shards=SHARDS)
    indices = np.array([request.pool_index for request
                        in generate_trace(trace_config, POOL_SIZE)])
    return pool, servers, indices


class Client:
    """Submits requests; keeps each output row and whether it failed."""

    def __init__(self, pool: np.ndarray, indices: np.ndarray,
                 servers: dict, width: int, tracer: Tracer):
        self.pool = pool
        self.indices = indices
        self.servers = servers
        self.outputs = {name: np.full((len(indices), width), np.nan)
                        for name in servers}
        self.failed = {name: np.zeros(len(indices), dtype=bool)
                       for name in servers}
        self.errors: list[str] = []
        self.tracer = tracer
        self.tracing = False
        # id(payload view) -> submit time, for the traced queue wait.
        self.submitted: dict[int, float] = {}

    def trace(self, on: bool) -> None:
        """Swap the tracer's wrappers in or out between requests."""
        if on != self.tracing:
            (self.tracer.install if on else self.tracer.uninstall)()
            self.tracing = on
            # Requests sent before the switch have no wait to record.
            self.submitted.clear()

    async def _one(self, name: str, index: int) -> None:
        # A fresh view per request, so its id names this request.
        payload = self.pool[self.indices[index]]
        if self.tracing:
            self.submitted[id(payload)] = time.perf_counter()
        try:
            output = await self.servers[name].infer(payload)
            self.outputs[name][index] = np.asarray(output).reshape(-1)
        except Exception as error:  # noqa: BLE001 — counted as failed
            self.failed[name][index] = True
            if len(self.errors) < 3:
                self.errors.append(f"{name}: {error!r}")

    async def saturate(self, name: str, start: int, stop: int) -> float:
        """All requests at once; returns the wall seconds to finish."""
        begin = time.perf_counter()
        await asyncio.gather(*(self._one(name, index)
                               for index in range(start, stop)))
        return time.perf_counter() - begin

    async def open_loop(self, name: str, start: int, stop: int,
                        rate: float, speed: HostSpeed, trace: bool):
        """Fixed-rate arrivals; returns the due times, each request's
        latency from its due time and how late it was sent.  With
        ``trace`` every second window of ``OPEN_WINDOW`` is traced."""
        count = stop - start
        latency = np.zeros(count)
        late = np.zeros(count)
        origin = time.perf_counter() + 0.005

        async def one(offset: int, due: float):
            await self._one(name, start + offset)
            latency[offset] = time.perf_counter() - due

        pending: set = set()
        offset = 0
        while offset < count:
            speed.maybe_probe(OPEN_LOOP_PROBE_S)
            now = time.perf_counter()
            while offset < count and origin + offset / rate <= now:
                self.trace(trace and offset // OPEN_WINDOW % 2 == 1)
                due = origin + offset / rate
                late[offset] = now - due
                task = asyncio.ensure_future(one(offset, due))
                pending.add(task)
                task.add_done_callback(pending.discard)
                offset += 1
            if offset < count:
                await asyncio.sleep(origin + offset / rate
                                    - time.perf_counter())
        await asyncio.gather(*pending)
        self.trace(False)
        return origin + np.arange(count) / rate, latency, late


def _instrument(tracer: Tracer, servers: dict, client: Client,
                state: dict) -> None:
    def on_batch_for(server):
        def on_batch(tracer_, args, kwargs):
            now = time.perf_counter()
            waits = state["waits"].setdefault(state["phase"], [])
            for payload in args[0]:
                submitted = client.submitted.pop(id(payload), None)
                if submitted is not None:
                    waits.append(now - submitted)
            depth = sum(shard.batcher.depth for shard in server.shards)
            state["depth"][state["phase"]] = max(
                state["depth"].get(state["phase"], 0), depth)
        return on_batch

    def on_serve(tracer_, args, kwargs, result):
        outcome = result[1]
        tracer_.count("rows", outcome.rows)
        tracer_.count("hit_rows", outcome.hit_rows)
        tracer_.count("unique", outcome.unique)

    for name, server in servers.items():
        tracer.patch(server, "shard_for", "serving.route")
        tracer.patch(server.model, "forward", "serving.forward")
        for shard in server.shards:
            tracer.patch(shard.batcher, "process_batch",
                         unit_kind=lambda name=name:
                         f"batch.{name}.{state['phase']}",
                         on_call=on_batch_for(server))
            cache = shard.request_cache
            if cache is not None:
                tracer.patch(cache, "serve", "session.serve",
                             on_result=on_serve)
                tracer.patch(cache.hasher, "signatures", "rpq.signatures",
                             on_result=lambda t, a, k, r:
                             t.count("rpq_rows", len(r)))


def _counters(server):
    return [shard.request_cache.counters for shard in server.shards]


def _rows(server):
    return [(shard.batcher.telemetry.rows, shard.batcher.telemetry.batches)
            for shard in server.shards]


def run(name: str, seed: int, seconds: float, trace: bool, result,
        speed: HostSpeed, imports: list,
        iterations: int | None = None) -> None:
    smoke = iterations is not None
    if smoke:
        warmup, chunk, chunks, open_requests = 8, 16, iterations, 32
    else:
        warmup, chunk = WARMUP_REQUESTS, CHUNK
        chunks = max(2, round(seconds * CHUNKS_PER_S))
        open_requests = round(OPEN_LOOP_RPS * seconds * OPEN_LOOP_SHARE)
    saturation = chunks * chunk
    total = warmup + saturation + open_requests
    trace_config = TrafficConfig(pattern="zipfian", num_requests=total,
                                 rate_rps=OPEN_LOOP_RPS,
                                 zipf_rotate_every=-(-total // ROTATIONS),
                                 seed=derive_seed(seed, TRACE_STREAM))

    builds = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        begin = time.perf_counter()
        pool, servers, indices = _build(seed, trace_config)
        builds.append((begin, time.perf_counter() - begin))
        speed.probe()

    cached, exact = servers["cached"], servers["exact"]
    # The exactness reference, computed before any request is served.
    oracle = cached.oracle_outputs(pool).reshape(len(pool), -1)
    tracer = Tracer()
    client = Client(pool, indices, servers, oracle.shape[1], tracer)
    state = {"phase": "warmup", "waits": {}, "depth": {}}
    if trace:
        _instrument(tracer, servers, client, state)
    # (server, traced) -> [(start, seconds)] of each saturation chunk.
    chunk_s = {(server, traced): [] for server in servers
               for traced in (False, True)}
    marks = {}

    async def drive():
        for server in servers.values():
            await server.start()
        try:
            begin = time.perf_counter()
            for server_name in servers:
                await client.saturate(server_name, 0, warmup)
            result.info["warmup_s"] = time.perf_counter() - begin
            gc.collect()
            speed.probe()
            marks["sat"] = ([c.to_dict() for c in _counters(cached)],
                            _rows(cached))
            state["phase"] = "sat"
            for k in range(chunks):
                traced = trace and k % 2 == 1
                lo = warmup + k * chunk
                client.trace(traced)
                for server_name in servers:
                    began = time.perf_counter()
                    chunk_s[server_name, traced].append(
                        (began, await client.saturate(server_name, lo,
                                                      lo + chunk)))
                client.trace(False)
                speed.maybe_probe()
            marks["open"] = ([c.to_dict() for c in _counters(cached)],
                             _rows(cached))
            state["phase"] = "open"
            gc.collect()
            return await client.open_loop(
                "cached", warmup + saturation, total, OPEN_LOOP_RPS, speed,
                trace)
        finally:
            client.trace(False)
            for server in servers.values():
                await server.stop()

    due, latency, late = asyncio.run(drive())
    rss_end_mb = rss_mb()
    marks["end"] = ([c.to_dict() for c in _counters(cached)], _rows(cached))
    # Latencies of the untraced windows only, whole windows each.
    window = np.arange(len(latency)) // OPEN_WINDOW
    untraced = (window % 2 == 0 if trace else True) \
        & (window < len(latency) // OPEN_WINDOW)
    if not untraced.any():  # a smoke run: fewer than a window
        untraced[:] = True
    raw_latency_ms, late_ms = latency[untraced] * 1e3, late * 1e3
    latency_ms = raw_latency_ms * speed.factors(due[untraced])
    tail_ms = median([percentile(latency_ms[window[untraced] == w], 99)
                      for w in np.unique(window[untraced])])

    _check(result, client, cached, oracle,
           sent={"cached": total, "exact": warmup + saturation})

    def rps(server, traced, scaled=True):
        records = chunk_s[server, traced]
        seconds_ = speed.scaled(records) if scaled \
            else np.array([took for _, took in records])
        return (chunk / seconds_).tolist()

    def delta(key, start, stop):
        return sum(c[key] for c in marks[stop][0]) \
            - sum(c[key] for c in marks[start][0])

    probed = delta("requests", "sat", "open")
    hit_rate = (delta("cross_hits", "sat", "open")
                + delta("intra_hits", "sat", "open")) / probed \
        if probed else 0.0
    sat_rows = [(a[0] - b[0], a[1] - b[1])
                for a, b in zip(marks["open"][1], marks["sat"][1])]
    batch_size_mean = sum(r for r, _ in sat_rows) \
        / max(1, sum(b for _, b in sat_rows))
    open_rows = [a[0] - b[0] for a, b in zip(marks["end"][1],
                                             marks["open"][1])]
    shard_balance = max(open_rows) / (sum(open_rows) / len(open_rows)) \
        if sum(open_rows) else 0.0

    result.distributions.update({
        "cached_chunk_rps": summary(rps("cached", False)),
        "exact_chunk_rps": summary(rps("exact", False)),
        "unscaled_cached_chunk_rps": summary(rps("cached", False, False)),
        "unscaled_exact_chunk_rps": summary(rps("exact", False, False)),
        "open_latency_ms": summary(latency_ms),
        "unscaled_open_latency_ms": summary(raw_latency_ms),
        "open_late_ms": summary(late_ms),
        "host_speed": speed.summary(),
    })
    result.metrics.update({
        "setup_s": setup_seconds(speed, imports, builds),
        "samples_per_s": median(rps("cached", False)),
        "exact_samples_per_s": median(rps("exact", False)),
        "rss_end_mb": rss_end_mb,
    })
    evicted = sum(c["evicted"] for c in marks["end"][0])
    result.info.update({
        "latency_p50_ms": median(latency_ms),
        "latency_tail_ms": tail_ms,
        "latency_tail": f"median over untraced windows of "
                        f"{OPEN_WINDOW} requests of the open-loop p99, "
                        f"from each request's due time",
        "latency_samples": int(untraced.sum()),
        "global_p99_ms": percentile(latency_ms, 99),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unscaled_setup_s": median([s for _, s in imports])
        + median([s for _, s in builds]),
        "import_s": summary([s for _, s in imports]),
        "build_s": summary([s for _, s in builds]),
        "open_loop_rps": OPEN_LOOP_RPS,
        "open_loop_requests": open_requests,
        "saturation_requests": saturation,
        "hit_rate": hit_rate,
        "batch_size_mean": batch_size_mean,
        "shard_balance": shard_balance,
        "evicted": evicted,
        "gen_late_p99_ms": percentile(late_ms, 99),
    })
    if not trace:
        return

    unit = "batch.cached.sat"

    # Per-layer times are means per traced batch (route: median per
    # call), on the same host-speed scale as the end-to-end numbers.
    scale = speed.factor()

    def per_batch(layer, field=0):
        return tracer.mean_ms(unit, layer, field) * scale

    def ratio(numerator, denominator):
        total_ = tracer.total_count(unit, denominator)
        return tracer.total_count(unit, numerator) / total_ if total_ \
            else 0.0

    waits_ms = np.asarray(state["waits"].get("open", [])) * 1e3 * scale
    traced_rps = rps("cached", True)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "rpq.signatures_ms": per_batch("rpq.signatures"),
        "rpq.vectors_hashed": tracer.mean_count(unit, "rpq_rows"),
        "session.unique_frac": ratio("unique", "rows"),
        "session.hit_frac": ratio("hit_rows", "rows"),
        "session.serve_ms": per_batch("session.serve"),
        "session.evicted": evicted,
        "serving.route_ms": median(np.asarray(
            tracer.loose.get("serving.route", [])) / 1e6) * scale,
        "serving.batch_ms": per_batch(unit),
        "serving.forward_ms": per_batch("serving.forward", 1),
        "serving.batch_size_mean": batch_size_mean,
        "serving.hit_rate": hit_rate,
        "serving.queue_wait_p50_ms": median(waits_ms),
        "serving.queue_wait_p99_ms": percentile(waits_ms, 99),
        "serving.queue_depth_max": state["depth"].get("open", 0),
        "serving.shard_balance": shard_balance,
        "serving.gen_late_p99_ms": percentile(late_ms, 99) * scale,
        "serving.latency_p50_ms": result.info["latency_p50_ms"],
        "serving.latency_p99_ms": result.info["latency_tail_ms"],
        "trace.coverage": tracer.coverage("batch.cached"),
        "trace.overhead_pct": (median(rps("cached", False))
                               / median(traced_rps) - 1.0) * 100.0
        if traced_rps else 0.0,
    })
    result.metrics.update(metrics)
    out = result.out_dir()
    tracer.write_chrome(out / "trace.json")
    (out / "layers.md").write_text(
        f"## {name} seed {seed}\n\n"
        + layer_table(tracer, "batch.cached.sat",
                      "Caching server, saturation batches")
        + "\n" + layer_table(tracer, "batch.exact.sat",
                             "Exact server, saturation batches")
        + "\n" + layer_table(tracer, "batch.cached.open",
                             "Caching server, open-loop batches"))


def _check(result, client: Client, cached, oracle, sent) -> None:
    """Outputs match the oracle; cache counters conserve requests."""
    for name, count in sent.items():
        failed = client.failed[name][:count]
        result.tally(count, int(failed.sum()),
                     f"{name} requests raised: {client.errors}")
        served = np.flatnonzero(~failed)
        deviation = np.abs(client.outputs[name][served]
                           - oracle[client.indices[served]]).max(axis=1)
        wrong = int((~(deviation <= TOLERANCE)).sum())
        worst = deviation.max() if len(deviation) else float("nan")
        result.tally(0, wrong, f"{name} outputs off the oracle by up to "
                               f"{worst:.3g}")
    counters = _counters(cached)
    broken = [index for index, c in enumerate(counters)
              if c.requests != c.hits + c.computed]
    result.tally(len(counters), len(broken),
                 f"requests != hits + computed on shards {broken}")
    probed = sum(c.requests for c in counters)
    result.tally(1, int(probed != sent["cached"]),
                 f"shards probed {probed} requests, {sent['cached']} sent")
