"""Process-parallel serving: the hash-ring shards as real workers.

:class:`~repro.serving.server.InferenceServer` models its N shards as
independent workers but executes them serially under one GIL — its
``simulated_makespan_s`` *predicts* the scale-out win.  This module
measures it: :class:`ParallelInferenceServer` runs each shard as a real
worker process (``multiprocessing``, spawn context — import-safe on
every platform) owning its own :class:`~repro.serving.cache.SignatureResultCache`
caches, vector engine and batch executor, behind the same
consistent-hash router.  The replication move mirrors the paper's
hardware scale-out of the compute/reuse unit.

Determinism is inherited, not re-implemented: the parent routes and
forms batches with an in-process :class:`InferenceServer` front — the
same signature hashing, the same collector-equivalent batch composition
— and each worker applies its batch stream through the same
``_process_shard_batch`` path.  Because shard streams are independent
(each cache only ever sees its own shard's keys), executing them in
parallel preserves every cache decision of the single-process replay,
and the ``request_exact`` + ``per_request`` configuration stays
byte-identical to the engine-less oracle.

Robustness is first-class.  The supervisor inside :meth:`replay`
detects worker death (a poison task crashing the process, an injected
kill) and hangs (no progress within ``worker_timeout_s``), then
recovers: terminate, respawn with fresh queues (a SIGKILL mid-queue
operation can poison the old ones), warm-restore from the worker's
latest on-disk :meth:`snapshot` and re-dispatch every batch at or after
the snapshot's watermark.  Re-applied batches reproduce the exact cache
transitions the uninterrupted run would have made, so the recovered run
converges to the same outputs *and* the same hit counters.
:class:`FaultInjection` (``kill_after_batches``) makes the crash path
testable and drives the CI smoke job.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs import Telemetry
from repro.obs.bus import Event
from repro.serving.batcher import BatcherConfig
from repro.serving.engine import ServingPolicy
from repro.serving.loadgen import Request
from repro.serving.server import (SNAPSHOT_MANIFEST, InferenceServer,
                                  RunLedger, ServingReport, build_report,
                                  simulate_clock)

#: Exit code a fault-injected worker dies with (distinguishable from
#: crashes in test assertions).
FAULT_EXIT_CODE = 17


@dataclass(frozen=True)
class FaultInjection:
    """Deterministic worker-failure hook for recovery tests and CI.

    Applies to one worker's *first* incarnation only — the respawned
    generation runs clean, so a recovery under test cannot be re-killed
    into a respawn loop.  ``mode="kill"`` exits the process hard (no
    ack, no cleanup) just before processing its
    ``kill_after_batches``-th batch; ``mode="hang"`` stops responding
    instead, exercising the supervisor's timeout path.
    """

    worker: int = 0
    kill_after_batches: int = 2
    mode: str = "kill"

    def __post_init__(self):
        if self.worker < 0:
            raise ValueError("worker must be non-negative")
        if self.kill_after_batches < 0:
            raise ValueError("kill_after_batches must be non-negative")
        if self.mode not in ("kill", "hang"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


def _worker_main(index: int, model, policy: ServingPolicy,
                 batcher_config: BatcherConfig, snapshot_dir: str,
                 snapshot_every_batches: int, telemetry_window: int,
                 fault: FaultInjection | None, tasks, results) -> None:
    """One shard worker: a single-shard server fed batches over a queue.

    Module-level (spawn-picklable) on purpose.  Protocol — requests:
    ``("batch", seq, stacked_payloads)``, ``("stats",)``,
    ``("snapshot",)``, ``("exit",)``; replies: ``("ready", watermark)``
    once at startup, then ``("done", seq, outputs, compute_s, events)``,
    ``("stats", shard_ledger)`` and ``("snapshotted", batch_index)``.

    ``telemetry_window`` > 0 switches on a worker-local telemetry
    bundle: the batch's events are drained off a forwarding
    subscription and ride the ack home as ``(kind, source, payload)``
    tuples (the ``events`` slot — an empty list with telemetry off),
    where the supervisor re-emits them onto its own bus.

    The worker snapshots its cache state every
    ``snapshot_every_batches`` acked batches — *after* the ack, so the
    snapshot's watermark never exceeds what the supervisor has
    received, and re-dispatching from the watermark can only replay
    batches whose state the restored cache has not yet absorbed.
    """
    telemetry = Telemetry(window_batches=telemetry_window) \
        if telemetry_window else None
    server = InferenceServer(model, policy, batcher_config, shards=1,
                             telemetry=telemetry)
    forward = telemetry.bus.subscribe(name="forward") \
        if telemetry is not None else None
    path = Path(snapshot_dir)
    watermark = 0
    if (path / SNAPSHOT_MANIFEST).exists():
        manifest = server.restore(path)
        watermark = int(manifest["shard_batch_indices"][0])
    results.put(("ready", watermark))

    shard = server.shards[0]
    batches_done = watermark
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "exit":
            return
        if kind == "stats":
            # The ledger is a fresh copy: the queue pickles on its
            # feeder thread, after the next batch may have run.
            results.put(("stats", shard.ledger()))
            continue
        if kind == "snapshot":
            server.snapshot(path)
            results.put(("snapshotted", shard.batch_index))
            continue
        seq, stacked = message[1], message[2]
        if fault is not None and fault.worker == index \
                and batches_done == fault.kill_after_batches:
            if fault.mode == "hang":
                while True:  # pragma: no cover — killed by supervisor
                    time.sleep(1.0)
            os._exit(FAULT_EXIT_CODE)
        compute_start = time.perf_counter()
        outputs = server._process_shard_batch(shard, list(stacked))
        compute_s = time.perf_counter() - compute_start
        shard.batcher.telemetry.record_batch(len(stacked))
        events = [event.as_tuple() for event in forward.drain()] \
            if forward is not None else []
        results.put(("done", seq, np.stack(outputs), compute_s, events))
        batches_done += 1
        if snapshot_every_batches \
                and batches_done % snapshot_every_batches == 0:
            server.snapshot(path)


class _Worker:
    """Supervisor-side handle of one shard worker process."""

    def __init__(self, index: int, spawn_args: tuple, context,
                 fault: FaultInjection | None):
        self.index = index
        self._spawn_args = spawn_args
        self._context = context
        self.generation = 0
        self.watermark = 0
        self.process = None
        self.tasks = None
        self.results = None
        self._start(fault)

    def _start(self, fault: FaultInjection | None) -> None:
        # Fresh queues per generation: a worker killed mid-put/get can
        # leave the old queue's internal state unusable.
        self.tasks = self._context.Queue()
        self.results = self._context.Queue()
        self.process = self._context.Process(
            target=_worker_main,
            args=(*self._spawn_args, fault, self.tasks, self.results),
            daemon=True)
        self.process.start()

    def wait_ready(self, timeout_s: float) -> int:
        kind, watermark = self.results.get(timeout=timeout_s)
        if kind != "ready":  # pragma: no cover — protocol guard
            raise RuntimeError(f"worker {self.index} sent {kind!r} "
                               f"before ready")
        self.watermark = int(watermark)
        return self.watermark

    def drain(self) -> list:
        """Salvage whatever replies are already queued (best-effort)."""
        salvaged = []
        while True:
            try:
                salvaged.append(self.results.get_nowait())
            except (queue_module.Empty, OSError, EOFError):
                return salvaged

    def respawn(self) -> list:
        """Terminate (if needed), salvage late acks, start clean.

        Returns the salvaged replies; the respawned generation carries
        no fault injection.  The new incarnation warm-restores from the
        shard's snapshot directory inside ``_worker_main``.
        """
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=10)
        salvaged = self.drain()
        for old in (self.tasks, self.results):
            old.close()
            old.cancel_join_thread()
        self.generation += 1
        self._start(fault=None)
        return salvaged

    def shutdown(self) -> None:
        try:
            self.tasks.put(("exit",))
            self.process.join(timeout=5)
        except (OSError, ValueError):  # pragma: no cover — dead queue
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        for old in (self.tasks, self.results):
            old.close()
            old.cancel_join_thread()


class ParallelInferenceServer:
    """N hash-ring shards as supervised worker processes.

    Routing, batch composition, the exactness oracle and the audited
    run lifecycle come from an in-process :class:`InferenceServer`
    front configured with the same shard count and telemetry, and the
    report from the same :func:`~repro.serving.server.build_report`
    over the workers' ledgers, so a parallel replay partitions, batches
    and reports exactly as the single-process replay would — the
    workers only move *where* each shard's stream executes.  Use as a
    context manager (or call :meth:`start`/:meth:`stop`); workers
    persist across replays, so repeated replays on warm workers measure
    steady-state speed.
    """

    def __init__(self, model, policy: ServingPolicy | None = None,
                 batcher: BatcherConfig | None = None, workers: int = 4,
                 snapshot_dir=None, snapshot_every_batches: int = 8,
                 worker_timeout_s: float = 60.0, max_respawns: int = 3,
                 fault: FaultInjection | None = None, telemetry=None):
        if telemetry is not None and telemetry.controller is not None:
            # Each worker owns its caches in another process; the
            # supervisor cannot retune them mid-replay, so online
            # policy control is an in-process-server feature.
            raise ValueError("the adaptive policy controller needs the "
                             "in-process server; run the parallel "
                             "server with a controller-less Telemetry")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if snapshot_every_batches < 0:
            raise ValueError("snapshot_every_batches must be non-negative")
        if worker_timeout_s <= 0:
            raise ValueError("worker_timeout_s must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        self.model = model
        self.policy = policy or ServingPolicy()
        if self.policy.replicate_top > 0:
            # Workers are isolated processes: there is no shared memory
            # to push replicated rows through, so a parallel run with
            # replication on could never match the in-process replay.
            raise ValueError("hot-key replication needs shards that "
                             "share memory; it is not supported under "
                             "the process-parallel server")
        self.batcher_config = batcher or BatcherConfig()
        self.num_workers = workers
        self.snapshot_every_batches = snapshot_every_batches
        self.worker_timeout_s = worker_timeout_s
        self.max_respawns = max_respawns
        self.fault = fault
        self.telemetry = telemetry
        # Lifetime respawns: the ``max_respawns`` budget; a report
        # counts its own run's through the ledger.
        self.recoveries = 0

        self._front = InferenceServer(model, self.policy,
                                      self.batcher_config, shards=workers,
                                      telemetry=telemetry)
        # Worker-side model time across replays (sum of acked per-batch
        # compute), mirroring InferenceServer._compute_time_s.
        self._compute_time_s = 0.0
        self._context = multiprocessing.get_context("spawn")
        self._owns_snapshot_dir = snapshot_dir is None
        self._snapshot_root = Path(snapshot_dir) if snapshot_dir is not None \
            else Path(tempfile.mkdtemp(prefix="repro-serving-workers-"))
        self._workers: list[_Worker] | None = None

    # -- lifecycle ------------------------------------------------------
    def worker_snapshot_dir(self, index: int) -> Path:
        return self._snapshot_root / f"worker-{index}"

    def start(self) -> None:
        """Spawn every worker and wait until all report ready."""
        if self._workers is not None:
            raise RuntimeError("workers already started")
        self._snapshot_root.mkdir(parents=True, exist_ok=True)
        self._workers = []
        for index in range(self.num_workers):
            spawn_args = (index, self.model, self.policy,
                          self.batcher_config,
                          str(self.worker_snapshot_dir(index)),
                          self.snapshot_every_batches,
                          self.telemetry.window_batches
                          if self.telemetry is not None else 0)
            self._workers.append(_Worker(index, spawn_args, self._context,
                                         self.fault))
        for worker in self._workers:
            worker.wait_ready(self.worker_timeout_s)

    def stop(self) -> None:
        if self._workers is None:
            return
        for worker in self._workers:
            worker.shutdown()
        self._workers = None
        if self._owns_snapshot_dir:
            shutil.rmtree(self._snapshot_root, ignore_errors=True)

    def __enter__(self) -> "ParallelInferenceServer":
        if self._workers is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- delegated determinism helpers ----------------------------------
    def oracle_outputs(self, payloads: np.ndarray) -> np.ndarray:
        """Engine-less per-request forwards (same oracle as the front)."""
        return self._front.oracle_outputs(payloads)

    # -- worker RPC helpers ---------------------------------------------
    def _ledger(self) -> RunLedger:
        """The workers' shard ledgers plus this supervisor's respawns."""
        return RunLedger(self._ask_all("stats", "stats"),
                         recoveries=self.recoveries)

    def _ask_all(self, request: str, answer: str) -> list:
        """Send ``request`` to every worker; each one's ``answer`` payload."""
        for worker in self._workers:
            worker.tasks.put((request,))
        payloads = []
        for worker in self._workers:
            reply = worker.results.get(timeout=self.worker_timeout_s)
            while reply[0] != answer:
                reply = worker.results.get(timeout=self.worker_timeout_s)
            payloads.append(reply[1])
        return payloads

    def snapshot_workers(self) -> list[int]:
        """Force every worker to persist its cache state now."""
        if self._workers is None:
            raise RuntimeError("workers are not running")
        return [int(count) for count
                in self._ask_all("snapshot", "snapshotted")]

    # -- the supervised parallel replay ---------------------------------
    def _recover(self, worker: _Worker, plan: list, acked: dict,
                 ledger: RunLedger) -> None:
        """Respawn one worker and re-dispatch its outstanding stream.

        ``plan`` is the worker's full batch stream for this replay (the
        stacked payloads, indexed by sequence).  The restored
        snapshot's watermark counts *lifetime* batches; ``base``, from
        the replay's start ``ledger``, is the worker's lifetime count
        when this replay began (and, thanks to the pre-dispatch
        snapshot, a floor for any restored watermark), so
        ``watermark - base`` is the first replay sequence the restored
        cache has not absorbed — everything from there on is re-sent
        and replays the exact transitions it missed.  Re-executed
        batches that were already acked overwrite their outputs with
        identical values (their cache decisions replay identically from
        the restored state).
        """
        if self.recoveries >= self.max_respawns:
            raise RuntimeError(
                f"worker {worker.index} failed more than "
                f"{self.max_respawns} times; giving up (poison task?)")
        self.recoveries += 1
        for reply in worker.respawn():
            if reply[0] == "done":
                acked[(worker.index, reply[1])] = (reply[2], reply[3],
                                                   reply[4])
        watermark = worker.wait_ready(self.worker_timeout_s)
        base = ledger.shards[worker.index].batches
        if watermark < base:
            # Without snapshots the worker restarts from an older state
            # and re-runs the whole plan: the run's ledger starts there.
            worker.tasks.put(("stats",))
            ledger.shards[worker.index] = worker.results.get(
                timeout=self.worker_timeout_s)[1]
        resume_from = max(0, watermark - base)
        if self.telemetry is not None:
            self.telemetry.announce(
                "worker.recovered", "supervisor", worker=worker.index,
                generation=worker.generation, resumed_from=resume_from)
        for seq in range(resume_from, len(plan)):
            worker.tasks.put(("batch", seq, plan[seq]))

    def replay(self, trace: list[Request], pool: np.ndarray
               ) -> tuple[list, ServingReport]:
        """Replay a trace across the worker processes, supervised.

        Batch composition per shard is exactly the front's
        deterministic replay schedule; each worker drains its own
        stream concurrently.  Latency and ``simulated_makespan_s`` run
        on the in-process replay's simulated clock with the workers'
        acked compute times; ``measured_makespan_s`` is the wall-clock
        time from first dispatch to last ack.
        """
        if self._workers is None:
            raise RuntimeError("workers are not running "
                               "(use `with server:` or call start())")
        self._front._begin_run("parallel_replay", requests=len(trace))
        arrivals, schedule = self._front._schedule(trace, pool)
        plans = [[np.stack([np.asarray(pool[trace[k].pool_index])
                            for k in members])
                  for _close, members in batches] for batches in schedule]

        ledger = self._ledger()
        if self.snapshot_every_batches:
            # Pin every worker's recovery floor at this replay's start:
            # a respawn can then never restore to a state missing an
            # *earlier* replay's tail (whose batches are not in this
            # replay's re-dispatch plan).
            self.snapshot_workers()

        acked: dict[tuple[int, int], tuple] = {}
        started = time.perf_counter()
        for worker in self._workers:
            for seq, stacked in enumerate(plans[worker.index]):
                worker.tasks.put(("batch", seq, stacked))

        expected = {worker.index: len(plans[worker.index])
                    for worker in self._workers}
        received = dict.fromkeys(expected, 0)
        progress_at = {worker.index: time.perf_counter()
                       for worker in self._workers}

        def outstanding(worker: _Worker) -> bool:
            return received[worker.index] < expected[worker.index]

        while any(outstanding(worker) for worker in self._workers):
            advanced = False
            for worker in self._workers:
                # Drain without blocking: a 4-worker replay must not
                # stall 50ms on an idle queue while another worker's
                # acks wait (that would serialise collection).
                while outstanding(worker):
                    try:
                        reply = worker.results.get_nowait()
                    except (queue_module.Empty, OSError, EOFError):
                        break
                    if reply[0] == "done":
                        key = (worker.index, reply[1])
                        if key not in acked:
                            received[worker.index] += 1
                        acked[key] = (reply[2], reply[3], reply[4])
                        progress_at[worker.index] = time.perf_counter()
                        advanced = True
            if advanced:
                continue
            for worker in self._workers:
                if not outstanding(worker):
                    continue
                silent_s = time.perf_counter() - progress_at[worker.index]
                # Death, or alive-but-silent past the deadline (hung,
                # or a poison task stalled it): respawn and re-dispatch.
                if not worker.process.is_alive() \
                        or silent_s > self.worker_timeout_s:
                    self._recover(worker, plans[worker.index], acked,
                                  ledger)
                    # _recover may have salvaged late acks directly
                    # into ``acked``; resync the progress count.
                    received[worker.index] = sum(
                        1 for (w, _s) in acked if w == worker.index)
                    progress_at[worker.index] = time.perf_counter()
            time.sleep(0.0005)
        makespan = time.perf_counter() - started

        outputs: list = [None] * len(trace)
        compute_s = [[acked[(index, seq)][1] for seq in range(len(batches))]
                     for index, batches in enumerate(schedule)]
        for index, batches in enumerate(schedule):
            for seq, (_close, members) in enumerate(batches):
                batch_outputs, _compute, events = acked[(index, seq)]
                for position, k in enumerate(members):
                    outputs[k] = np.asarray(batch_outputs[position])
                # Forwarded worker telemetry replays here, once per
                # batch in plan order — a re-executed batch's duplicate
                # ack overwrote its slot, so the event stream the
                # supervisor's bus sees is deterministic.
                if self.telemetry is not None:
                    for kind, source, payload in events:
                        self._forward_event(index, kind, source, payload)
        self._compute_time_s += sum(map(sum, compute_s))
        latencies, simulated = simulate_clock(arrivals, schedule, compute_s)

        # A respawned worker restores its clocks, counters and layer
        # statistics from its snapshot and re-runs the batches after
        # it, so the ledger difference holds across recoveries too.
        report = build_report(
            ledger, self._ledger(), requests=len(trace),
            duration_s=makespan, latencies_s=latencies,
            telemetry=self.telemetry, simulated_makespan_s=simulated,
            measured_makespan_s=makespan)
        self._front._finalize_run(report)
        return outputs, report

    def _forward_event(self, worker_index: int, kind: str, source: str,
                       payload: dict) -> None:
        """Re-emit one worker event onto the supervisor's bus.

        Workers run single-shard servers, so their events arrive
        labelled ``shard0``; relabelling with the worker index makes
        the merged stream indistinguishable from the in-process
        sharded server's (the workers=1 parity test pins the resulting
        metrics registries equal).
        """
        if source.startswith("shard"):
            source = f"shard{worker_index}"
        payload = dict(payload)
        if "shard" in payload:
            payload["shard"] = worker_index
        elif kind == "serve.window":
            # Worker windows are per-worker (the supervisor never sees
            # a global window); tag the origin.
            payload["worker"] = worker_index
        self.telemetry.bus.emit_event(Event(kind, source, payload))
        if kind == "serve.window" and self.telemetry.recorder is not None:
            self.telemetry.recorder.record_window(payload)
