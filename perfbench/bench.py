"""Shared pieces of the benchmark: metric names, statistics, host
fingerprint and the result record every workload returns."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every workload reports every metric, so names are workload-neutral:
# a training step and a served request are both "samples".  Latency is
# not among them: on a host whose CPUs other tenants time-share, the
# open-loop p50 doubled between runs minutes apart, so no bound a
# latency could be given would hold; latencies are per-layer metrics.
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "exact_samples_per_s": "1/s",
    "rss_end_mb": "MB",
}

# Layers that do not run on a workload report 0.
PER_LAYER = {
    "data.batch_wait_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optim_ms": "ms",
    "nn.im2col_ms": "ms",
    "nn.im2col_mb": "MB",
    "rpq.signatures_ms": "ms",
    "rpq.vectors_hashed": "count",
    "session.classify_ms": "ms",
    "session.unique_frac": "frac",
    "session.ride_ms": "ms",
    "session.hit_frac": "frac",
    "session.serve_ms": "ms",
    "session.evicted": "count",
    "reuse.engine_ms": "ms",
    "reuse.bookkeeping_ms": "ms",
    "reuse.detection_on_frac": "frac",
    "reuse.cost_x": "x",
    "adaptation.update_ms": "ms",
    "adaptation.signature_bits": "bits",
    "adaptation.layers_off": "count",
    "adaptation.final_loss": "loss",
    "accelerator.simulate_ms": "ms",
    "accelerator.signature_cycle_frac": "frac",
    "accelerator.mercury_cycles": "cycles",
    "accelerator.baseline_cycles": "cycles",
    "accelerator.modelled_speedup": "x",
    "serving.route_ms": "ms",
    "serving.batch_ms": "ms",
    "serving.forward_ms": "ms",
    "serving.batch_size_mean": "count",
    "serving.hit_rate": "frac",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.queue_depth_max": "count",
    "serving.shard_balance": "x",
    "serving.gen_late_p99_ms": "ms",
    "training.step_p50_ms": "ms",
    "training.step_p95_ms": "ms",
    "serving.latency_p50_ms": "ms",
    "serving.latency_p99_ms": "ms",
    "trace.coverage": "frac",
    "trace.overhead_pct": "%",
}


def summary(values) -> dict:
    """Median, quartiles, mean and sample count of a sample."""
    arr = np.asarray(values, dtype=np.float64)
    if not len(arr):
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "mean": 0.0, "n": 0}
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "mean": float(arr.mean()), "n": int(len(arr))}


def median(values) -> float:
    return summary(values)["median"]


def percentile(values, q: float) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if len(arr) else 0.0


class _Kernel:
    """Small GEMMs, array passes and an interpreter loop: the mix the
    workloads run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((64, 64))
        self._vector = rng.random(20_000)

    def run(self) -> None:
        block = self._matrix
        for _ in range(20):
            block = np.tanh(block @ self._matrix * 0.01)
        vector = self._vector
        for _ in range(5):
            vector = np.sort(vector * 1.0001)
        total = 0
        for i in range(3000):
            total += i * i


def _current_cpu() -> str:
    """The CPU this thread runs on (Linux), else ``""``."""
    try:
        with open("/proc/thread-self/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[36]
    except (OSError, IndexError):
        return ""


def serve_probes() -> None:
    """The probe process: for each line on stdin, moves to the CPU the
    line names, runs the kernel twice and prints the seconds the second
    run took (the first, cold from the switch, tracked the host's speed
    less well)."""
    kernel = _Kernel()
    for line in sys.stdin:
        if line.strip():
            try:
                os.sched_setaffinity(0, {int(line)})
            except (OSError, ValueError):
                pass
        kernel.run()
        start = time.perf_counter()
        kernel.run()
        print(time.perf_counter() - start, flush=True)


class HostSpeed:
    """How fast the host runs a fixed reference kernel, over time.

    Shared hosts drift between fast and slow states for tens of seconds
    at a time (another tenant on a sibling hardware thread, frequency
    changes); CPU time slows with wall time, so neither clock escapes
    it.  The benchmark times this kernel between its measured units and
    rescales each unit's time by ``NOMINAL_S`` over the kernel's median
    time within ``WINDOW_S`` of that unit.  Timings then read as on a
    host where the kernel takes ``NOMINAL_S``.

    The kernel runs in a process of its own, on the CPU the benchmark
    was on, while the benchmark waits for it.  So nothing the program
    does to its own process (threads holding the GIL, a fragmented
    heap, more memory) slows the kernel and is divided out; only the
    speed of the host's CPU is.  Use as a context manager: leaving it
    stops the probe process.
    """

    NOMINAL_S = 1.2e-3
    WINDOW_S = 1.0
    INTERVAL_S = 0.025

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._process = subprocess.Popen(
            [sys.executable, "-c",
             "from perfbench.bench import serve_probes; serve_probes()"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            self._request()  # waits for the imports; the first run is cold
        except BaseException:
            self.__exit__()
            raise

    def _request(self) -> float:
        self._process.stdin.write(_current_cpu() + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed probe process exited")
        return float(line)

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()

    def probe(self) -> None:
        start = time.perf_counter()
        took = self._request()
        self.at.append(start)
        self.took.append(took)

    def maybe_probe(self, interval: float = INTERVAL_S) -> None:
        """Probe if ``interval`` seconds have passed since the last one."""
        if not self.at or time.perf_counter() - self.at[-1] >= interval:
            self.probe()

    def factors(self, times) -> np.ndarray:
        """Rescaling factor for units that started at ``times``."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        times = np.asarray(times, dtype=np.float64)
        lo = np.searchsorted(at, times - self.WINDOW_S)
        hi = np.searchsorted(at, times + self.WINDOW_S)
        out = np.empty(len(times))
        for i, (start, stop) in enumerate(zip(lo, hi)):
            if stop - start < 5:  # too few nearby: the five nearest
                centre = int(np.searchsorted(at, times[i]))
                start = max(0, min(centre - 2, len(at) - 5))
                stop = start + 5
            out[i] = self.NOMINAL_S / np.median(took[start:stop])
        return out

    def scaled(self, samples) -> np.ndarray:
        """Seconds of ``(start, seconds)`` samples, rescaled."""
        if not len(samples):
            return np.zeros(0)
        starts, seconds = np.asarray(samples, dtype=np.float64).T
        return seconds * self.factors(starts)

    def factor(self) -> float:
        """Rescaling factor of the whole run."""
        return self.NOMINAL_S / float(np.median(self.took))

    def summary(self) -> dict:
        return {"kernel_ms": summary(np.asarray(self.took) * 1e3),
                "nominal_ms": self.NOMINAL_S * 1e3}


def rss_mb() -> float:
    """Resident set size now (Linux), else the peak so far.

    Read after the measured work and a collection, it is what the
    process keeps: growth shows, the transient copies of a resize do not.
    """
    gc.collect()
    try:
        import ctypes
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError):
        # ru_maxrss is in KiB on Linux.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(speed: HostSpeed, imports, builds) -> float:
    """Set-up time: the median import plus the median build, each
    ``(start, seconds)`` sample rescaled to host speed."""
    return median(speed.scaled(imports)) + median(speed.scaled(builds))


def fingerprint() -> dict:
    """The host facts a result is only comparable under."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class Result:
    """What one workload run measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: dict[str, float] = {}
        self.distributions: dict[str, dict] = {}
        self.info: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def tally(self, attempted: int, failed: int, message: str) -> None:
        """Count checked operations; ``message`` explains any failures."""
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.failures.append(f"{failed}/{attempted}: {message}")

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> dict:
        """The final stdout line: the metrics of this run's mode."""
        names = PER_LAYER if self.trace else END_TO_END
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"{self.workload} did not measure {missing}")
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": float(self.metrics[name]),
                                   "unit": unit}
                            for name, unit in names.items()}}

    def record(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                "fingerprint": fingerprint(),
                "argv": sys.argv,
                **self.line(),
                "distributions": self.distributions, "info": self.info,
                "failures": self.failures[:50]}

    def out_dir(self) -> Path:
        path = OUT_DIR / self.workload / \
            f"seed{self.seed}-trace{int(self.trace)}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def save(self) -> Path:
        path = self.out_dir() / "result.json"
        path.write_text(json.dumps(self.record(), indent=1))
        return path


def layer_table(tracer, prefix: str, title: str) -> str:
    """Markdown table of per-unit self and inclusive time per layer."""
    units = tracer.units_of(prefix)
    lines = [f"### {title}", "",
             f"{len(units)} traced units, coverage "
             f"{tracer.coverage(prefix):.3f} (layer self time over unit "
             f"wall clock); wall-clock ms, not rescaled to host speed", "",
             "| layer | self median ms | q1 | q3 | self mean ms | "
             "incl mean ms | calls/unit |",
             "|---|---|---|---|---|---|---|"]
    for name in tracer.layer_names(prefix):
        own = summary(tracer.per_unit(prefix, name, 0))
        incl = summary(tracer.per_unit(prefix, name, 1))
        calls = summary([unit.layers.get(name, (0, 0, 0))[2]
                         for unit in units])
        lines.append(f"| {name} | {own['median']:.4f} | {own['q1']:.4f} | "
                     f"{own['q3']:.4f} | {own['mean']:.4f} | "
                     f"{incl['mean']:.4f} | {calls['mean']:.1f} |")
    return "\n".join(lines) + "\n"
