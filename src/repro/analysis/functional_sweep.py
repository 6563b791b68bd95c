"""Functional sweep runner: end-to-end training-accuracy scenarios.

The cycle-model sweep (:mod:`repro.analysis.sweep`) answers "how fast
is MERCURY in scenario X"; this module answers the other half of the
paper's claim — "what does scenario X do to training accuracy".  Each
:class:`FunctionalPoint` names a model, a dataset scale, a
``MercuryConfig`` variant and an adaptation policy; evaluating a point
trains the model twice end-to-end through :class:`repro.training.Trainer`
with the *same* derived seeds and therefore the same weight
initialisation and minibatch order:

* once with :class:`~repro.core.reuse.ExactCountingEngine` (the exact
  baseline — bit-identical to engine-less training, which the golden
  regression suite asserts), and
* once with a :class:`~repro.core.reuse.ReuseEngine` configured for the
  point.

The baseline half is independent of every MercuryConfig axis, so
:func:`run_functional_sweep` memoizes it per
(model, dataset scale, training config, seed) group
(:func:`baseline_key`) and shares the one run across all config and
adaptation variants in the grid — a grid with ``N`` variants per group
trains ``N + 1`` models instead of ``2 N``.

The row records the accuracy delta between the two runs (validation
accuracy is measured exactly — the trainer detaches its engine while
evaluating, so the delta isolates what reuse did to *training*, the
paper's Figure 13 methodology — and the engine statistics cover only
real training batches), both loss trajectories, per-layer reuse
statistics and the modeled speedup of the recorded workload, in the
same JSON schema family as the cycle sweep
(:class:`FunctionalSweepResults` shares :class:`~repro.analysis.grid.GridResults`).

Typical use (see also ``examples/functional_sweep.py``)::

    from repro.analysis.functional_sweep import (
        build_functional_grid, run_functional_sweep)

    points = build_functional_grid(["squeezenet", "transformer"],
                                   signature_bits=(12, 20))
    results = run_functional_sweep(points, processes=4)
    results.save("functional.json")
    print(results.summary())
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.accelerator.mercury_sim import MercurySimulator
from repro.analysis.grid import (GridResults, expand_grid,
                                point_row, run_grid)
from repro.core.config import MercuryConfig
from repro.core.reuse import ExactCountingEngine, ReuseEngine
from repro.data.loaders import train_test_split
from repro.data.synthetic_images import ClusteredImageDataset, \
    ImageDatasetConfig
from repro.data.synthetic_text import TranslationConfig, TranslationDataset
from repro.models.registry import build_model, get_spec
from repro.training.trainer import Trainer, TrainingConfig, TrainingResult

# Result-row schema for functional rows, mirroring ``sweep.RESULT_KEYS``
# (asserted by tests/test_functional_sweep.py).
FUNCTIONAL_RESULT_KEYS = frozenset({
    "model", "dataset_scale", "adaptation", "signature_bits",
    "mcache_entries", "mcache_ways",
    "epochs", "batch_size", "learning_rate", "optimizer", "seed",
    "baseline_accuracy", "reuse_accuracy", "accuracy_delta",
    "baseline_losses", "reuse_losses",
    "baseline_final_loss", "reuse_final_loss",
    "hit_fraction", "mac_reduction", "layer_stats",
    "final_signature_bits", "disabled_layers",
    "speedup", "signature_fraction", "baseline_cycles", "mercury_cycles",
    "elapsed_s",
})

# Dataset scales: "tiny" keeps a point under a second (smoke tests and
# CI), "small" matches the benchmark harness, "paper" the integration
# scale.  Image sizes are chosen so every model's pooling pyramid stays
# valid at "small" and above; "tiny" suits the shallow models
# (squeezenet, mobilenet_v2, alexnet) and the transformer.
DATASET_SCALES = {
    "tiny": {"image": {"num_classes": 3, "samples_per_class": 8,
                       "image_size": 12},
             "text": {"num_samples": 48, "vocab_size": 32,
                      "sequence_length": 8}},
    "small": {"image": {"num_classes": 4, "samples_per_class": 12,
                        "image_size": 16},
              "text": {"num_samples": 96, "vocab_size": 64,
                       "sequence_length": 12}},
    "paper": {"image": {"num_classes": 4, "samples_per_class": 12,
                        "image_size": 32},
              "text": {"num_samples": 192, "vocab_size": 64,
                       "sequence_length": 12}},
}

# Adaptation policy variants (§III-D): which of the two mechanisms —
# signature-length growth and per-layer stoppage — are active.
ADAPTATION_POLICIES = {
    "full": {"adaptive_signature_length": True, "adaptive_stoppage": True},
    "no_growth": {"adaptive_signature_length": False,
                  "adaptive_stoppage": True},
    "no_stoppage": {"adaptive_signature_length": True,
                    "adaptive_stoppage": False},
    "off": {"adaptive_signature_length": False, "adaptive_stoppage": False},
}

# Sub-streams derived from a point's seed; every consumer of randomness
# gets its own stream so adding one never perturbs the others.
DATA_STREAM, MODEL_STREAM, SHUFFLE_STREAM, SPLIT_STREAM = 0, 1, 2, 3

# Minimum synthetic image size per CNN — deeper pooling pyramids shrink
# feature maps to nothing on smaller inputs (forward-probed per model;
# everything not listed is fine at the "tiny" scale's 12 pixels).
MIN_IMAGE_SIZE = {"alexnet": 32, "vgg13": 16, "vgg16": 16, "vgg19": 16}


@dataclass(frozen=True)
class FunctionalPoint:
    """One accuracy scenario: model x dataset x config x policy x seed."""

    model: str
    dataset_scale: str = "tiny"
    adaptation: str = "full"
    signature_bits: int = 20
    mcache_entries: int = 1024
    mcache_ways: int = 16
    epochs: int = 2
    batch_size: int = 8
    learning_rate: float = 0.01
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.dataset_scale not in DATASET_SCALES:
            raise ValueError(f"unknown dataset_scale {self.dataset_scale!r}; "
                             f"choose from {sorted(DATASET_SCALES)}")
        if self.adaptation not in ADAPTATION_POLICIES:
            raise ValueError(f"unknown adaptation {self.adaptation!r}; "
                             f"choose from {sorted(ADAPTATION_POLICIES)}")
        if self.seed < 0:
            # SeedSequence rejects negative entropy; fail at grid-build
            # time instead of deep inside a pool worker.
            raise ValueError("seed must be non-negative")
        spec = get_spec(self.model)  # also rejects unknown models early
        if spec.kind == "cnn":
            image_size = DATASET_SCALES[self.dataset_scale]["image"][
                "image_size"]
            needed = MIN_IMAGE_SIZE.get(self.model, 12)
            if image_size < needed:
                raise ValueError(
                    f"{self.model} needs images of at least {needed}px "
                    f"but dataset_scale {self.dataset_scale!r} provides "
                    f"{image_size}px; pick a larger scale")


def build_functional_grid(models, dataset_scales=("tiny",),
                          adaptations=("full",), signature_bits=(20,),
                          organizations=((1024, 16),), seeds=(0,),
                          **training) -> list[FunctionalPoint]:
    """Cross product of the functional scenario axes.

    Extra keyword arguments (``epochs``, ``batch_size``, ...) are passed
    through to every point unchanged.
    """
    combos = expand_grid({"model": models, "dataset_scale": dataset_scales,
                          "adaptation": adaptations,
                          "organization": organizations,
                          "signature_bits": signature_bits, "seed": seeds})
    return [FunctionalPoint(model=combo["model"],
                            dataset_scale=combo["dataset_scale"],
                            adaptation=combo["adaptation"],
                            mcache_entries=combo["organization"][0],
                            mcache_ways=combo["organization"][1],
                            signature_bits=combo["signature_bits"],
                            seed=combo["seed"], **training)
            for combo in combos]


# ----------------------------------------------------------------------
# Seed plumbing: a FunctionalPoint fully determines its run.
# ----------------------------------------------------------------------
def derive_seed(seed: int, stream: int) -> int:
    """Deterministic, well-mixed sub-seed for one randomness consumer.

    Routed through :class:`numpy.random.SeedSequence` so neighbouring
    base seeds do not produce correlated data/model/shuffle streams.
    """
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def mercury_config_for(point: FunctionalPoint) -> MercuryConfig:
    """The MercuryConfig variant a point describes.

    Signature lengths beyond the default 64-bit cap raise the cap too,
    so >62-bit (multi-word) scenarios can be swept directly.
    """
    return MercuryConfig(signature_bits=point.signature_bits,
                         max_signature_bits=max(64, point.signature_bits),
                         mcache_entries=point.mcache_entries,
                         mcache_ways=point.mcache_ways,
                         **ADAPTATION_POLICIES[point.adaptation])


def training_config_for(point: FunctionalPoint) -> TrainingConfig:
    """The training hyper-parameters, with the shuffle stream seeded."""
    return TrainingConfig(epochs=point.epochs, batch_size=point.batch_size,
                          learning_rate=point.learning_rate,
                          optimizer=point.optimizer,
                          seed=derive_seed(point.seed, SHUFFLE_STREAM))


def load_point_data(point: FunctionalPoint):
    """Generate and split the point's dataset.

    Returns ``(train_x, train_y, test_x, test_y, num_outputs)`` where
    ``num_outputs`` is the class count (CNN) or vocabulary size
    (transformer).  Deterministic in the point alone.
    """
    scale = DATASET_SCALES[point.dataset_scale]
    data_seed = derive_seed(point.seed, DATA_STREAM)
    kind = get_spec(point.model).kind
    if kind == "cnn":
        config = ImageDatasetConfig(seed=data_seed, **scale["image"])
        dataset = ClusteredImageDataset(config)
        inputs, targets = dataset.images, dataset.labels
        num_outputs = config.num_classes
    else:
        config = TranslationConfig(seed=data_seed, **scale["text"])
        dataset = TranslationDataset(config)
        inputs, targets = dataset.sources, dataset.targets
        num_outputs = config.vocab_size
    split = train_test_split(inputs, targets, test_fraction=0.25,
                             seed=derive_seed(point.seed, SPLIT_STREAM))
    return (*split, num_outputs)


def train_point(point: FunctionalPoint, engine, data=None):
    """One end-to-end training run of a point with the given engine.

    Every source of randomness — dataset generation, the train/test
    split, weight initialisation, minibatch shuffling — is re-derived
    from ``point.seed``, so two calls with equivalent engines are
    bit-identical and a baseline/reuse pair sees the same data order.
    ``data`` accepts a preloaded :func:`load_point_data` tuple so the
    pair can share one dataset.  Validation accuracy is computed
    exactly (the trainer detaches the engine while evaluating).
    """
    xtr, ytr, xte, yte, num_outputs = data or load_point_data(point)
    model = build_model(point.model, num_classes=num_outputs,
                        seed=derive_seed(point.seed, MODEL_STREAM))
    trainer = Trainer(model, training_config_for(point), engine=engine)
    result = trainer.fit(xtr, ytr, validation=(xte, yte))
    return result, model


def _layer_stats_rows(stats) -> list[dict]:
    """JSON-safe per-(layer, phase) reuse statistics."""
    return [{"layer": record.layer, "phase": record.phase,
             "vectors": int(record.total_vectors), "hits": int(record.hits),
             "mau": int(record.mau), "mnu": int(record.mnu),
             "hit_fraction": float(record.hit_fraction),
             "detection_on": bool(record.similarity_detection_on)}
            for record in stats.all_records()]


# ----------------------------------------------------------------------
# Baseline memoization: the exact (ExactCountingEngine) run of a point
# never depends on the MercuryConfig axes (signature bits, MCACHE
# organisation, adaptation policy), so one baseline training is
# shared by every config variant in a grid.  The key is derived as
# *every other* FunctionalPoint field, so a future training-affecting
# field fails closed (extra baseline groups) instead of silently
# sharing a wrong baseline.
# ----------------------------------------------------------------------
MERCURY_AXIS_FIELDS = frozenset({"adaptation", "signature_bits",
                                 "mcache_entries", "mcache_ways"})
BASELINE_KEY_FIELDS = tuple(
    field_.name for field_ in dataclasses.fields(FunctionalPoint)
    if field_.name not in MERCURY_AXIS_FIELDS)


def baseline_key(point: FunctionalPoint) -> tuple:
    """The (model, dataset scale, training config, seed) group of a point."""
    return tuple(getattr(point, name) for name in BASELINE_KEY_FIELDS)


def evaluate_baseline_point(point: FunctionalPoint) -> dict:
    """Train only the exact baseline of a point; returns a JSON-safe
    :meth:`~repro.training.TrainingResult.to_dict` payload.

    This is the single place baseline training happens in a shared
    sweep, which the invocation-counting test relies on.
    """
    data = load_point_data(point)
    baseline_result, _ = train_point(point, ExactCountingEngine(), data)
    return baseline_result.to_dict()


def evaluate_functional_point(point: FunctionalPoint,
                              baseline: dict | None = None) -> dict:
    """Train the baseline/reuse pair for one point; returns a result row.

    ``baseline`` accepts a memoized :func:`evaluate_baseline_point`
    payload; training runs are deterministic in the point's baseline
    key, so reusing the payload is bit-identical to retraining and the
    pair degenerates to a single reuse run.
    """
    start = time.perf_counter()
    config = mercury_config_for(point)

    data = load_point_data(point)
    if baseline is None:
        baseline_result, _ = train_point(point, ExactCountingEngine(), data)
    else:
        baseline_result = TrainingResult.from_dict(baseline)
    engine = ReuseEngine(config)
    reuse_result, _ = train_point(point, engine, data)

    # The recorded workload, costed on the accelerator model: the
    # engine's own adaptation already shaped the statistics, so no
    # analytic stoppage is re-applied — the row reports what this run
    # actually did.
    report = MercurySimulator(config).simulate(engine.stats, point.model)

    row = point_row(point, {
        "baseline_accuracy": float(baseline_result.final_validation_accuracy),
        "reuse_accuracy": float(reuse_result.final_validation_accuracy),
        "accuracy_delta": float(reuse_result.final_validation_accuracy
                                - baseline_result.final_validation_accuracy),
        "baseline_losses": [float(v) for v in baseline_result.epoch_losses],
        "reuse_losses": [float(v) for v in reuse_result.epoch_losses],
        "baseline_final_loss": float(baseline_result.final_loss),
        "reuse_final_loss": float(reuse_result.final_loss),
        "hit_fraction": float(engine.stats.overall_hit_fraction),
        "mac_reduction": float(engine.stats.mac_reduction()),
        "layer_stats": _layer_stats_rows(engine.stats),
        "final_signature_bits": int(engine.signature_bits),
        "disabled_layers": sorted(engine.disabled_layers()),
        "speedup": float(report.speedup),
        "signature_fraction": float(report.signature_fraction),
        "baseline_cycles": float(report.baseline_total_cycles),
        "mercury_cycles": float(report.mercury_total_cycles),
    }, started=start)
    return row


@dataclass
class FunctionalSweepResults(GridResults):
    """Aggregated functional rows; same JSON envelope as the cycle sweep."""

    schema: ClassVar[str] = "functional-sweep"
    result_keys: ClassVar[frozenset] = FUNCTIONAL_RESULT_KEYS

    # -- summaries ------------------------------------------------------
    def accuracy_delta_by_model(self) -> dict[str, float]:
        """Mean reuse-minus-baseline accuracy delta per model."""
        deltas: dict[str, list[float]] = {}
        for row in self.rows:
            deltas.setdefault(row["model"], []).append(row["accuracy_delta"])
        return {model: float(np.mean(values))
                for model, values in deltas.items()}

    def worst_accuracy_delta(self) -> float:
        """The most negative accuracy delta in the sweep."""
        if not self.rows:
            raise ValueError("no rows")
        return float(min(row["accuracy_delta"] for row in self.rows))

    def summary(self) -> dict:
        """Accuracy impact and modeled speedup across the grid."""
        return {
            **self.base_summary(),
            "geomean_speedup": self.geomean("speedup"),
            "mean_accuracy_delta": float(np.mean(
                [row["accuracy_delta"] for row in self.rows])),
            "worst_accuracy_delta": self.worst_accuracy_delta(),
            "accuracy_delta_by_model": self.accuracy_delta_by_model(),
            "mean_hit_fraction": float(np.mean(
                [row["hit_fraction"] for row in self.rows])),
        }


def _evaluate_with_shared_baseline(task) -> dict:
    """Pool-friendly wrapper: ``task`` is ``(point, baseline_payload)``."""
    point, baseline = task
    return evaluate_functional_point(point, baseline=baseline)


def run_functional_sweep(points, processes: int | None = None
                         ) -> FunctionalSweepResults:
    """Evaluate a functional grid, fanning out like the cycle sweep.

    The exact baseline is trained once per :func:`baseline_key` group —
    one run shared by all MercuryConfig/adaptation variants of the same
    (model, dataset scale, training config, seed) — instead of once per
    point.  Every result field is bit-identical to a paired run of
    :func:`evaluate_functional_point` except ``elapsed_s``, a wall-clock
    measurement that excludes the memoized baseline training.
    """
    points = list(points)
    start = time.perf_counter()
    representatives: dict[tuple, FunctionalPoint] = {}
    for point in points:
        representatives.setdefault(baseline_key(point), point)
    baseline_rows, _ = run_grid(list(representatives.values()),
                                evaluate_baseline_point,
                                processes=processes)
    baselines = dict(zip(representatives.keys(), baseline_rows))
    tasks = [(point, baselines[baseline_key(point)]) for point in points]
    rows, _ = run_grid(tasks, _evaluate_with_shared_baseline,
                       processes=processes)
    return FunctionalSweepResults(rows=rows,
                                  elapsed_s=time.perf_counter() - start)
