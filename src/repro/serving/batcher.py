"""Asyncio micro-batching request queue.

Requests arrive one at a time; the accelerator-style backend wants
whole batches (and the reuse caches get their intra-batch dedup from
them).  :class:`MicroBatcher` sits between the two: ``submit`` enqueues
a payload and awaits its result, while a single collector task drains
the queue into batches bounded by ``max_batch_size`` and
``max_wait_s`` — a full batch leaves immediately, a partial one leaves
when its oldest request has waited long enough.  The queue itself is
bounded (``max_queue``), so a slow backend exerts backpressure on
producers instead of buffering without limit (the INFN-style
queued-scale-out behaviour under bursty load: absorb, then drain).

Telemetry is bounded too: a serve-forever process must not grow one
list entry per request, so :class:`BatcherTelemetry` keeps exact
running counters (request, batch and row counts) plus a streaming
:class:`~repro.obs.metrics.LogHistogram` of request latency, whose
percentile reads stay within one bucket width of the exact values at
any stream length (regression-tested).  Per-run latency percentiles
come from the run's own latency array instead (see
:class:`~repro.serving.server.ServingReport`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.obs.metrics import LogHistogram


@dataclass(frozen=True)
class BatcherConfig:
    """Micro-batching knobs."""

    max_batch_size: int = 8
    max_wait_s: float = 0.002
    max_queue: int = 1024

    def __post_init__(self):
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s cannot be negative")
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")


@dataclass
class BatcherTelemetry:
    """Latency/batch-shape measurements of one batcher lifetime.

    Counters (``submitted``/``completed``/``failed``/``cancelled``/
    ``batches``/``rows``) are exact forever; the latency *distribution*
    is a log-bucket histogram (with an exact count and sum), so a
    serve-forever process holds a fixed amount of telemetry no matter
    how many requests it sees.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Requests whose caller gave up before their batch ran; they are
    #: dropped unprocessed.
    cancelled: int = 0
    #: Micro-batches executed / total rows across them (exact).
    batches: int = 0
    rows: int = 0
    latency_hist: LogHistogram = field(default_factory=LogHistogram)
    #: Optional telemetry bus hookup (set by the owning server when
    #: observability is enabled; ``None`` keeps recording bus-free).
    bus: object = None
    source: str = ""

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.rows += int(size)
        if self.bus is not None:
            self.bus.emit("batcher.batch", source=self.source,
                          size=int(size))

    def record_latency(self, latency_s: float) -> None:
        self.latency_hist.record(latency_s)
        if self.bus is not None:
            self.bus.emit("batcher.latency", source=self.source,
                          latency_s=float(latency_s))

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.rows / self.batches

    @classmethod
    def aggregate(cls, telemetries) -> "BatcherTelemetry":
        """Merge several batchers' telemetry (the sharded server's view):
        counters sum and the latency histograms merge, both exactly."""
        total = cls()
        for telemetry in telemetries:
            total.submitted += telemetry.submitted
            total.completed += telemetry.completed
            total.failed += telemetry.failed
            total.cancelled += telemetry.cancelled
            total.batches += telemetry.batches
            total.rows += telemetry.rows
            total.latency_hist.merge(telemetry.latency_hist)
        return total


class _Pending:
    __slots__ = ("payload", "future", "enqueued_at")

    def __init__(self, payload, future, enqueued_at):
        self.payload = payload
        self.future = future
        self.enqueued_at = enqueued_at


class MicroBatcher:
    """Bounded queue + collector loop around a batch-processing callable.

    ``process_batch(payloads: list) -> list`` is called with up to
    ``max_batch_size`` payloads and must return one result per payload
    in order; it runs inside the event loop (numpy work releases the
    GIL quickly enough at this scale).  An exception raised by
    ``process_batch`` fails every request of the batch individually,
    and an exception *returned* in a payload's result slot fails that
    request alone — the loop keeps serving.
    """

    def __init__(self, process_batch, config: BatcherConfig | None = None):
        self.process_batch = process_batch
        self.config = config or BatcherConfig()
        self.telemetry = BatcherTelemetry()
        self._queue: asyncio.Queue | None = None
        self._collector: asyncio.Task | None = None
        self._closed = False
        # Submissions past the _closed check but not yet resolved.
        # stop() must not cancel the collector while any exist: a put
        # that lands after queue.join() would otherwise orphan its
        # future forever.
        self._inflight = 0
        # Set whenever _inflight is zero; stop() awaits it instead of
        # spinning the event loop with zero-delay sleeps.
        self._drained: asyncio.Event | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._collector is not None:
            raise RuntimeError("batcher already started")
        self._closed = False
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._drained = asyncio.Event()
        if not self._inflight:
            self._drained.set()
        self._collector = asyncio.get_running_loop().create_task(
            self._collect())

    async def stop(self) -> None:
        """Drain in-flight submissions, then cancel the collector."""
        if self._collector is None:
            return
        self._closed = True
        # Wait for every admitted submission to resolve — not just the
        # queue to empty: a submit suspended at its put() has nothing
        # in the queue yet, and joining too early would strand it.  The
        # drained event is set by the last in-flight submit, so this
        # parks instead of busy-polling the loop.
        await self._drained.wait()
        await self._queue.join()
        self._collector.cancel()
        try:
            await self._collector
        except asyncio.CancelledError:
            pass
        self._collector = None
        self._queue = None

    @property
    def running(self) -> bool:
        """True while the collector task exists and has not finished."""
        return self._collector is not None and not self._collector.done()

    @property
    def depth(self) -> int:
        """Requests currently queued (not yet collected)."""
        return self._queue.qsize() if self._queue is not None else 0

    # ------------------------------------------------------------------
    async def submit(self, payload):
        """Enqueue one payload and await its result.

        Awaiting the bounded queue's ``put`` is the backpressure: when
        ``max_queue`` requests are in flight, producers stall here.
        """
        if self._queue is None or self._closed:
            raise RuntimeError("batcher is not running")
        future = asyncio.get_running_loop().create_future()
        pending = _Pending(payload, future, time.perf_counter())
        self.telemetry.submitted += 1
        self._inflight += 1
        self._drained.clear()
        try:
            await self._queue.put(pending)
            return await future
        finally:
            self._inflight -= 1
            if not self._inflight:
                self._drained.set()

    # ------------------------------------------------------------------
    async def _collect(self) -> None:
        config = self.config
        queue = self._queue
        while True:
            first = await queue.get()
            batch = [first]
            deadline = first.enqueued_at + config.max_wait_s
            while len(batch) < config.max_batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    # Deadline passed: take whatever is already queued,
                    # without waiting for more.
                    try:
                        batch.append(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                    continue
                try:
                    batch.append(await asyncio.wait_for(queue.get(),
                                                        timeout=remaining))
                except asyncio.TimeoutError:
                    break
            # A caller that gave up (its future is cancelled) must not
            # cost compute or touch any cache.
            live = [item for item in batch if not item.future.cancelled()]
            self.telemetry.cancelled += len(batch) - len(live)
            if live:
                self._run_batch(live)
            for _ in batch:
                queue.task_done()

    def _run_batch(self, batch: list) -> None:
        self.telemetry.record_batch(len(batch))
        try:
            results = self.process_batch([item.payload for item in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"process_batch returned {len(results)} results "
                    f"for {len(batch)} payloads")
        except Exception as error:  # noqa: BLE001 — fail requests, not loop
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        RuntimeError(f"batch processing failed: {error}"))
            self.telemetry.failed += len(batch)
            return
        now = time.perf_counter()
        for item, result in zip(batch, results):
            if isinstance(result, Exception):
                # This payload failed alone; the rest of the batch is
                # served.
                self.telemetry.failed += 1
                if not item.future.done():
                    item.future.set_exception(result)
                continue
            self.telemetry.record_latency(now - item.enqueued_at)
            self.telemetry.completed += 1
            if not item.future.done():
                item.future.set_result(result)
