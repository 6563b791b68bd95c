"""Training workloads: a MERCURY reuse run beside an exact run.

Both runs are built by ``repro.analysis.functional_sweep`` from the same
``FunctionalPoint``, so they share the dataset, the weight
initialisation and the minibatch order.  Their steps alternate (reuse,
exact, reuse, ...) so that noise on the host lands on both alike.  Only
full batches are used, so every step does the same work.

The reuse run's adaptation state, loss and reuse statistics are read
after a fixed number of steps (``model_steps``), not at the end of the
timed loop, so ``modelled_speedup`` and ``final_loss`` depend on the
seed alone, never on how many steps the host managed in the time.

With ``trace`` the steps alternate between traced and untraced pairs;
the exact run then goes through ``ExactCountingEngine`` so each layer's
plain GEMM is timed for the break-even table.
"""

from __future__ import annotations

import copy
import resource
import time
from dataclasses import dataclass

import numpy as np

import repro.nn.layers.conv as conv_module
from repro.accelerator.mercury_sim import MercurySimulator
from repro.analysis.functional_sweep import (MODEL_STREAM, FunctionalPoint,
                                             derive_seed, load_point_data,
                                             mercury_config_for,
                                             training_config_for)
from repro.core.reuse import ExactCountingEngine, ReuseEngine
from repro.core.session import ReuseSession
from repro.data.loaders import BatchLoader
from repro.models.registry import build_model
from repro.training.trainer import Trainer

from perfbench.bench import PER_LAYER, HostSpeed, layer_table, median, \
    percentile, rss_mb, setup_seconds, summary
from perfbench.spans import Tracer

BATCH_SIZE = 8
SETUP_REPEATS = 5
SIMULATE_REPEATS = 5


@dataclass(frozen=True)
class TrainWorkload:
    model: str
    adaptation: str
    # Step pairs run before timing starts (kept out of every percentile).
    warmup_steps: int
    # Steps after which the adaptation state, the loss window and the
    # statistics behind the modelled speedup are read.
    model_steps: int
    # Timed pairs at least: 200 leaves ten samples beyond the p95.
    min_steps: int = 200
    replay_steps: int = 8
    loss_window: int = 20


WORKLOADS = {
    "train-vgg13-reuse": TrainWorkload("vgg13", "off", warmup_steps=30,
                                       model_steps=150),
    "train-transformer-paper": TrainWorkload("transformer", "full",
                                             warmup_steps=100,
                                             model_steps=300),
}


class Run:
    """One model, its trainer and its stream of full batches."""

    def __init__(self, point: FunctionalPoint, data, engine):
        train_x, train_y, _, _, outputs = data
        self.model = build_model(point.model, num_classes=outputs,
                                 seed=derive_seed(point.seed, MODEL_STREAM))
        config = training_config_for(point)
        self.trainer = Trainer(self.model, config, engine=engine)
        self.loader = BatchLoader(train_x, train_y,
                                  batch_size=point.batch_size,
                                  seed=config.seed)
        self._batches = self._full_batches()
        self.losses: list[float] = []

    def _full_batches(self):
        while True:
            for inputs, targets in self.loader:
                if len(inputs) == self.loader.batch_size:
                    yield inputs, targets

    def fetch(self):
        return next(self._batches)

    def step(self) -> None:
        inputs, targets = self.fetch()
        self.losses.append(float(self.trainer.train_step(inputs, targets)))


def _timed(run: Run, tracer: Tracer | None, kind: str) -> tuple:
    """``(start, seconds)`` of one step, inside a unit when traced."""
    start = time.perf_counter()
    if tracer is None:
        run.step()
    else:
        with tracer.unit(kind):
            run.step()
    return start, time.perf_counter() - start


# -- instrumentation (traced process only) ------------------------------
def _count_rows(name):
    def hook(tracer, args, kwargs, result):
        tracer.count(name, len(result))
    return hook


def _count_engine(tracer, args, kwargs, result):
    if tracer.parent_layer() == "reuse.engine":
        return  # matmul_groups delegating to matmul: counted once
    vectors = args[0]
    rows = len(vectors) if hasattr(vectors, "shape") \
        else sum(len(group) for group in vectors)
    tracer.count("engine_vectors", rows)


def _count_classified(tracer, args, kwargs, result):
    simulations = result if isinstance(result, list) else [result]
    for simulation in simulations:
        tracer.count("classified", len(simulation.states))
        tracer.count("classified_hits", simulation.hits)
        tracer.count("classified_unique", simulation.unique_signatures)


def _instrument_run(tracer: Tracer, run: Run) -> None:
    for module in run.model.modules():
        tracer.patch(module, "forward", "nn.forward",
                     label=module.layer_name)
        tracer.patch(module, "backward", "nn.backward",
                     label=module.layer_name)
    loss = run.trainer.loss_fn
    tracer.patch(loss, "forward", "nn.forward", label="loss")
    tracer.patch(loss, "backward", "nn.backward", label="loss")
    tracer.patch(run.model, "zero_grad", "nn.optim")
    tracer.patch(run.trainer.optimizer, "step", "nn.optim")
    tracer.patch(run, "fetch", "data")


def instrument(tracer: Tracer, reuse: Run, exact: Run,
               engine: ReuseEngine, exact_engine) -> None:
    _instrument_run(tracer, reuse)
    _instrument_run(tracer, exact)
    tracer.patch(conv_module, "im2col", "nn.im2col",
                 on_result=lambda t, a, k, r: t.count("im2col_bytes",
                                                      r.nbytes))
    for name in ("matmul", "matmul_groups"):
        tracer.patch(engine, name, "reuse.engine", label_kw="layer",
                     on_result=_count_engine)
    tracer.patch(engine.hasher, "signatures", "rpq.signatures",
                 on_result=_count_rows("rpq_rows"))
    for name in ("classify", "classify_groups"):
        tracer.patch(engine.session, name, "session.classify",
                     on_result=_count_classified)
    for name in ("ride", "ride_groups"):
        tracer.patch(ReuseSession, name, "session.ride")
    tracer.patch(engine, "end_iteration", "adaptation")
    tracer.patch(exact_engine, "matmul", "exact.gemm", label_kw="layer")


def break_even_rows(tracer: Tracer, engine: ReuseEngine) -> list[dict]:
    """Per engine layer: reuse cost against the plain GEMM.

    With reuse time ``R`` at hit fraction ``h`` modelled as a fixed
    overhead plus the missed share of the GEMM ``G``, reuse pays off
    above the hit fraction ``R / G - (1 - h)``; above 1 it never does.
    """
    reuse_units = len(tracer.units_of("step.reuse"))
    exact_units = len(tracer.units_of("step.exact"))
    hits: dict[str, int] = {}
    vectors: dict[str, int] = {}
    for record in engine.stats.all_records():
        hits[record.layer] = hits.get(record.layer, 0) + record.hits
        vectors[record.layer] = vectors.get(record.layer, 0) \
            + record.total_vectors

    def per_step(layer, label, field, units):
        entry = tracer.by_label.get((layer, label))
        return entry[field] / 1e6 / units if entry and units else 0.0

    rows = []
    # First-seen order is the forward order of the model's layers.
    labels = list(dict.fromkeys(label for layer, label in tracer.by_label
                                if layer == "reuse.engine"))
    for label in labels:
        hit = hits.get(label, 0) / vectors[label] if vectors.get(label) \
            else 0.0
        reuse_ms = per_step("reuse.engine", label, 1, reuse_units)
        gemm_ms = per_step("exact.gemm", label, 1, exact_units)
        rows.append({
            "layer": label, "hit_frac": hit,
            "hash_ms": per_step("rpq.signatures", label, 0, reuse_units),
            "classify_ms": per_step("session.classify", label, 0,
                                    reuse_units),
            "ride_ms": per_step("session.ride", label, 0, reuse_units),
            "bookkeeping_ms": per_step("reuse.engine", label, 0,
                                       reuse_units),
            "reuse_ms": reuse_ms, "gemm_ms": gemm_ms,
            "break_even_hit": reuse_ms / gemm_ms - (1.0 - hit)
            if gemm_ms else float("nan"),
        })
    return rows


def break_even_table(rows: list[dict]) -> str:
    lines = ["### Per-layer break-even (per step, forward + backward)", "",
             "| layer | hit frac | hash ms | classify ms | ride ms | "
             "bookkeeping ms | reuse ms | plain GEMM ms | break-even hit |",
             "|---|---|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['layer']} | {row['hit_frac']:.3f} | "
            f"{row['hash_ms']:.4f} | {row['classify_ms']:.4f} | "
            f"{row['ride_ms']:.4f} | {row['bookkeeping_ms']:.4f} | "
            f"{row['reuse_ms']:.4f} | {row['gemm_ms']:.4f} | "
            f"{row['break_even_hit']:.3f} |")
    return "\n".join(lines) + "\n"


# -- the workload ----------------------------------------------------------
def _build(point: FunctionalPoint, trace: bool):
    data = load_point_data(point)
    config = mercury_config_for(point)
    engine = ReuseEngine(config)
    exact_engine = ExactCountingEngine() if trace else None
    return (config, engine, exact_engine, Run(point, data, engine),
            Run(point, data, exact_engine))


def run(name: str, seed: int, seconds: float, trace: bool, result,
        speed: HostSpeed, imports: list,
        iterations: int | None = None) -> None:
    spec = WORKLOADS[name]
    point = FunctionalPoint(model=spec.model, dataset_scale="small",
                            adaptation=spec.adaptation,
                            batch_size=BATCH_SIZE, seed=seed)
    smoke = iterations is not None
    builds = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        config, engine, exact_engine, reuse, exact = _build(point, trace)
        builds.append((start, time.perf_counter() - start))
        speed.probe()

    tracer = Tracer()
    if trace:
        instrument(tracer, reuse, exact, engine, exact_engine)

    start = time.perf_counter()
    for _ in range(1 if smoke else spec.warmup_steps):
        reuse.step()
        exact.step()
        speed.maybe_probe()
    result.info["warmup_s"] = time.perf_counter() - start
    result.info["warmup_steps"] = len(reuse.losses)

    snapshot = None
    # (kind, traced) -> [(start, seconds)] of each timed step.
    steps = {(kind, traced): [] for kind in ("reuse", "exact")
             for traced in (False, True)}
    start = time.perf_counter()
    pairs = 0
    while True:
        if smoke:
            if pairs >= iterations:
                break
        elif (time.perf_counter() - start >= seconds
              and pairs >= spec.min_steps and snapshot is not None):
            break
        traced = trace and pairs % 2 == 1
        with tracer.installed(traced):
            active = tracer if traced else None
            for kind, run_ in (("reuse", reuse), ("exact", exact)):
                steps[kind, traced].append(
                    _timed(run_, active, f"step.{kind}"))
        pairs += 1
        if snapshot is None and len(reuse.losses) >= spec.model_steps:
            snapshot = _snapshot(engine, reuse, spec)
        speed.maybe_probe()
    rss_end_mb = rss_mb()
    if snapshot is None:
        snapshot = _snapshot(engine, reuse, spec)
    result.info["timed_pairs"] = pairs
    result.info["model_steps"] = snapshot["steps"]

    _check(result, spec, point, reuse, exact)

    simulator = MercurySimulator(config)
    simulate_ms = []
    for _ in range(1 if smoke else SIMULATE_REPEATS):
        begin = time.perf_counter()
        report = simulator.simulate(snapshot["stats"], spec.model)
        simulate_ms.append((time.perf_counter() - begin) * 1e3)

    def step_ms(kind, traced, scaled=True):
        records = steps[kind, traced]
        if scaled:
            return speed.scaled(records) * 1e3
        return np.array([seconds_ for _, seconds_ in records]) * 1e3

    reuse_ms, exact_ms = step_ms("reuse", False), step_ms("exact", False)
    raw_reuse_ms, raw_exact_ms = (step_ms("reuse", False, False),
                                  step_ms("exact", False, False))
    result.distributions.update({
        "reuse_step_ms": summary(reuse_ms),
        "exact_step_ms": summary(exact_ms),
        "unscaled_reuse_step_ms": summary(raw_reuse_ms),
        "unscaled_exact_step_ms": summary(raw_exact_ms),
        "host_speed": speed.summary(),
    })
    result.metrics.update({
        "setup_s": setup_seconds(speed, imports, builds),
        "samples_per_s": BATCH_SIZE * 1e3 / median(reuse_ms),
        "exact_samples_per_s": BATCH_SIZE * 1e3 / median(exact_ms),
        "rss_end_mb": rss_end_mb,
    })
    result.info.update({
        "latency_p50_ms": median(reuse_ms),
        "latency_tail_ms": percentile(reuse_ms, 95),
        "latency_tail": "p95 of reuse steps",
        "unscaled_setup_s": median([s for _, s in imports])
        + median([s for _, s in builds]),
        "import_s": summary([s for _, s in imports]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "build_s": summary([s for _, s in builds]),
        "modelled_speedup": report.speedup,
        "final_loss": snapshot["final_loss"],
        "signature_bits": snapshot["bits"],
        "layers_off": snapshot["layers_off"],
        "hit_fraction": float(engine.stats.overall_hit_fraction),
    })
    if not trace:
        return

    traced_reuse_ms = step_ms("reuse", True)
    result.distributions["traced_reuse_step_ms"] = summary(traced_reuse_ms)
    result.distributions["traced_exact_step_ms"] = summary(
        step_ms("exact", True))
    unit = "step.reuse"

    # Per-layer times are means per traced step, on the same host-speed
    # scale as the end-to-end numbers.
    scale = speed.factor()

    def self_ms(layer, field=0):
        return tracer.mean_ms(unit, layer, field) * scale

    def count(name):
        return tracer.mean_count(unit, name)

    def ratio(numerator, denominator):
        total = tracer.total_count(unit, denominator)
        return tracer.total_count(unit, numerator) / total if total else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "data.batch_wait_ms": self_ms("data"),
        "nn.forward_ms": self_ms("nn.forward"),
        "nn.backward_ms": self_ms("nn.backward"),
        "nn.optim_ms": self_ms("nn.optim"),
        "nn.im2col_ms": self_ms("nn.im2col"),
        "nn.im2col_mb": count("im2col_bytes") / 1e6,
        "rpq.signatures_ms": self_ms("rpq.signatures"),
        "rpq.vectors_hashed": count("rpq_rows"),
        "session.classify_ms": self_ms("session.classify"),
        "session.unique_frac": ratio("classified_unique", "classified"),
        "session.ride_ms": self_ms("session.ride"),
        "session.hit_frac": ratio("classified_hits", "classified"),
        "reuse.engine_ms": self_ms("reuse.engine", 1),
        "reuse.bookkeeping_ms": self_ms("reuse.engine"),
        "reuse.detection_on_frac": ratio("classified", "engine_vectors"),
        "reuse.cost_x": median(reuse_ms) / median(exact_ms),
        "training.step_p50_ms": median(reuse_ms),
        "training.step_p95_ms": percentile(reuse_ms, 95),
        "adaptation.update_ms": self_ms("adaptation"),
        "adaptation.signature_bits": snapshot["bits"],
        "adaptation.layers_off": snapshot["layers_off"],
        "adaptation.final_loss": snapshot["final_loss"],
        "accelerator.simulate_ms": median(simulate_ms) * scale,
        "accelerator.signature_cycle_frac": report.signature_fraction,
        "accelerator.mercury_cycles": report.mercury_total_cycles,
        "accelerator.baseline_cycles": report.baseline_total_cycles,
        "accelerator.modelled_speedup": report.speedup,
        "trace.coverage": tracer.coverage(unit),
        "trace.overhead_pct": (median(traced_reuse_ms) / median(reuse_ms)
                               - 1.0) * 100.0,
    })
    result.metrics.update(metrics)
    result.info["exact_step_coverage"] = tracer.coverage("step.exact")

    rows = break_even_rows(tracer, engine)
    result.info["break_even"] = rows
    out = result.out_dir()
    tracer.write_chrome(out / "trace.json")
    (out / "layers.md").write_text(
        f"## {name} seed {seed}\n\n"
        + layer_table(tracer, "step.reuse", "Reuse step")
        + "\n" + layer_table(tracer, "step.exact",
                             "Exact step (ExactCountingEngine)")
        + "\n" + break_even_table(rows))


def _snapshot(engine: ReuseEngine, reuse: Run, spec: TrainWorkload) -> dict:
    return {"stats": copy.deepcopy(engine.stats),
            "bits": engine.signature_bits,
            "layers_off": len(engine.disabled_layers()),
            "final_loss": float(np.mean(reuse.losses[-spec.loss_window:])),
            "steps": len(reuse.losses)}


def _check(result, spec: TrainWorkload, point: FunctionalPoint,
           reuse: Run, exact: Run) -> None:
    """Finite losses on both runs; the exact run repeats bit for bit."""
    for label, losses in (("reuse", reuse.losses), ("exact", exact.losses)):
        bad = np.flatnonzero(~np.isfinite(losses))
        result.tally(len(losses), len(bad),
                     f"{label} loss not finite at steps {bad[:5].tolist()}")
    replay = Run(point, load_point_data(point), None)
    count = min(spec.replay_steps, len(exact.losses))
    for _ in range(count):
        replay.step()
    mismatched = [i for i in range(count)
                  if replay.losses[i] != exact.losses[i]]
    result.tally(count, len(mismatched),
                 f"exact losses differ on a repeat of the seed at steps "
                 f"{mismatched[:5]}")
