"""The repository benchmark: training and serving against exact compute.

Run from the repository root::

    python3 perfbench/run.py --workload train-vgg13-reuse --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One run measures one workload for ``--seconds`` seconds and checks its
outputs (see ``perfbench/train.py`` and ``perfbench/serve.py``).  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a separate traced run, and writes a Chrome trace
(``trace.json``, opens in Perfetto) and a per-layer table
(``layers.md``) under ``.perfbench/<workload>/``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the host fingerprint, goes to
``result.json`` beside it.  The exit code is 1 when a check fails and 2
when the program cannot be imported.

``--workload all`` runs every workload in its own process and prints
one row per workload.

BLAS is pinned to one thread before numpy is imported and string
hashing to one seed (``PYTHONHASHSEED``); results taken under different
host fingerprints are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-vgg13-reuse", "train-transformer-paper",
             "serve-zipf-churn")
# Imports cannot be repeated in one process; set-up takes the median of
# this one and fresh interpreters'.
IMPORT_REPEATS = 5
HASH_SEED = "0"


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark repro end to end and layer by layer.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool, speed,
                 iterations: int | None = None, imports=()):
    """Measure one workload in this process; returns its ``Result``.

    ``speed`` is the run's ``HostSpeed``; ``imports`` are ``(start,
    seconds)`` samples of the imports' time; ``iterations`` runs that
    many timed steps or chunks only (a smoke run, without the minimum
    sample counts)."""
    from perfbench import serve, train
    from perfbench.bench import Result

    result = Result(name, seed, seconds, trace)
    module = serve if name.startswith("serve") else train
    module.run(name, seed, seconds, trace, result, speed,
               imports=list(imports), iterations=iterations)
    return result


def _import_sample() -> tuple:
    """``(start, seconds)`` of the imports in a fresh interpreter."""
    snippet = ("import sys, time\n"
               "start = time.perf_counter()\n"
               f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
               "from perfbench import serve, train\n"
               "print(time.perf_counter() - start)\n")
    start = time.perf_counter()
    completed = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT,
                               capture_output=True, text=True, check=True)
    return start, float(completed.stdout)


def _run_all(args) -> int:
    """Every workload in a fresh process, one row per workload."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode == 2 or not lines:
            sys.stderr.write(completed.stderr)
            return 2
        line = json.loads(lines[-1])
        cells = [f"{key}={value['value']:.6g} {value['unit']}"
                 for key, value in line["metrics"].items()]
        print(f"{name:26s} correct={line['correct']} "
              f"failed={line['failed']}/{line['attempted']}  "
              + "  ".join(cells))
        status = max(status, completed.returncode)
    return status


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per interpreter, and with it the
        # layout of every dict the serving cache keys by bytes: the
        # caching server's throughput moved 15% between runs of one
        # seed.  The seed is read at start-up, so start again with it.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve()),
                  *(sys.argv[1:] if argv is None else argv)])
    # Before numpy is imported, so every BLAS call runs on one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
        from perfbench import serve, train  # noqa: F401
        from perfbench.bench import HostSpeed
    except ImportError as error:
        print(f"cannot import the program: {error}", file=sys.stderr)
        return 2
    imports = [(started, time.perf_counter() - started)]
    with HostSpeed() as speed:
        for _ in range(IMPORT_REPEATS - 1):
            speed.probe()
            imports.append(_import_sample())
        speed.probe()
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), speed, imports=imports)
    path = result.save()
    line = result.line()
    print(f"fingerprint {json.dumps(result.record()['fingerprint'])}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          + "  ".join(f"{key}={value['value']:.6g} {value['unit']}"
                      for key, value in line["metrics"].items()))
    print(f"latency p50={result.info['latency_p50_ms']:.6g} ms  "
          f"tail={result.info['latency_tail_ms']:.6g} ms "
          f"({result.info['latency_tail']}; not bounded)")
    for failure in result.failures:
        print(f"FAILED {failure}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
