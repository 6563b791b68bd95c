"""Shared helpers for the per-figure/per-table benchmark harness.

Every benchmark follows the same pattern: run the relevant experiment
(functional training on the scaled models and/or the cycle model on the
paper-scale workloads), print the regenerated rows next to the paper's
reported numbers, and wrap the whole thing in the ``benchmark`` fixture
so ``pytest benchmarks/ --benchmark-only`` times it.
"""

from __future__ import annotations

import numpy as np

from repro import MercuryConfig, ReuseEngine
from repro.accelerator import MercurySimulator, make_dataflow
from repro.accelerator.workloads import build_workload, workload_to_stats
from repro.baselines import CaptureEngine
from repro.data import ClusteredImageDataset, ImageDatasetConfig, \
    TranslationConfig, TranslationDataset, train_test_split
from repro.models import MODEL_NAMES, build_model, get_spec
from repro.nn import CrossEntropyLoss
from repro.training import Trainer, TrainingConfig

# Keep the functional experiments CPU-friendly: a small number of easy
# classes and a couple of epochs is enough to show both convergence and
# the MERCURY-vs-baseline comparison.
IMAGE_CONFIG = ImageDatasetConfig(num_classes=4, samples_per_class=12,
                                  image_size=32)
TEXT_CONFIG = TranslationConfig(num_samples=96, vocab_size=64)
TRAIN_CONFIG = TrainingConfig(epochs=2, batch_size=8, learning_rate=0.01,
                              optimizer="adam")


def image_data():
    dataset = ClusteredImageDataset(IMAGE_CONFIG)
    return train_test_split(dataset.images, dataset.labels,
                            test_fraction=0.25, seed=0)


def text_data():
    dataset = TranslationDataset(TEXT_CONFIG)
    return train_test_split(dataset.sources, dataset.targets,
                            test_fraction=0.25, seed=0)


def train_model(model_name: str, engine=None, train_config=None):
    """Train one scaled model; returns (TrainingResult, validation data)."""
    spec = get_spec(model_name)
    train_config = train_config or TRAIN_CONFIG
    if spec.kind == "cnn":
        xtr, ytr, xte, yte = image_data()
        model = build_model(model_name, num_classes=IMAGE_CONFIG.num_classes,
                            seed=1)
    else:
        xtr, ytr, xte, yte = text_data()
        model = build_model(model_name, seed=1)
    trainer = Trainer(model, train_config, engine=engine)
    result = trainer.fit(xtr, ytr, validation=(xte, yte))
    return result, model, (xte, yte)


def functional_stats(model_name: str, config: MercuryConfig | None = None,
                     iterations: int = 2):
    """Reuse statistics from a few training iterations of a scaled model."""
    config = config or MercuryConfig()
    spec = get_spec(model_name)
    engine = ReuseEngine(config)
    if spec.kind == "cnn":
        xtr, ytr, _, _ = image_data()
        model = build_model(model_name, num_classes=IMAGE_CONFIG.num_classes,
                            seed=1)
    else:
        xtr, ytr, _, _ = text_data()
        model = build_model(model_name, seed=1)
    model.set_engine(engine)
    loss_fn = CrossEntropyLoss()
    batch = TRAIN_CONFIG.batch_size
    for index in range(iterations):
        start = (index * batch) % max(len(xtr) - batch, 1)
        logits = model(xtr[start:start + batch])
        loss = loss_fn(logits, ytr[start:start + batch])
        model.zero_grad()
        model.backward(loss_fn.backward())
        engine.end_iteration(loss)
    return engine


def capture_model(model_name: str):
    """One forward/backward pass with a CaptureEngine attached."""
    spec = get_spec(model_name)
    engine = CaptureEngine()
    if spec.kind == "cnn":
        xtr, ytr, _, _ = image_data()
        model = build_model(model_name, num_classes=IMAGE_CONFIG.num_classes,
                            seed=1)
    else:
        xtr, ytr, _, _ = text_data()
        model = build_model(model_name, seed=1)
    model.set_engine(engine)
    loss_fn = CrossEntropyLoss()
    logits = model(xtr[:TRAIN_CONFIG.batch_size])
    loss_fn(logits, ytr[:TRAIN_CONFIG.batch_size])
    model.zero_grad()
    model.backward(loss_fn.backward())
    return engine


def paper_scale_report(model_name: str, config: MercuryConfig | None = None,
                       dataflow_name: str | None = None,
                       hit_scale: float = 1.0):
    """Cycle report for one model at the paper's layer dimensions."""
    config = config or MercuryConfig()
    workload = build_workload(model_name,
                              signature_bits=config.signature_bits,
                              hit_scale=hit_scale)
    stats = workload_to_stats(workload)
    dataflow = make_dataflow(dataflow_name or config.dataflow)
    simulator = MercurySimulator(config, dataflow=dataflow)
    return simulator.simulate(stats, model_name, apply_analytic_stoppage=True)


def all_model_speedups(config: MercuryConfig | None = None,
                       dataflow_name: str | None = None,
                       models=None) -> dict:
    """Speedup per model at paper scale (the Figure 14c / 18 sweep)."""
    models = models or MODEL_NAMES
    return {name: paper_scale_report(name, config, dataflow_name).speedup
            for name in models}


def scenario_sweep(models=None, dataflows=("row_stationary",),
                   organizations=((1024, 16),), processes: int | None = None):
    """Grid sweep over models x dataflows x MCACHE organisations.

    Thin wrapper over :mod:`repro.analysis.sweep` so benchmarks and
    ad-hoc scripts share one executor; returns a
    :class:`repro.analysis.sweep.SweepResults`.
    """
    from repro.analysis.sweep import build_grid, run_sweep
    points = build_grid(models or MODEL_NAMES, dataflows=dataflows,
                        organizations=organizations)
    return run_sweep(points, processes=processes)


def functional_sweep(models=("squeezenet", "transformer"),
                     dataset_scales=("tiny",), adaptations=("full",),
                     signature_bits=(20,), processes: int | None = None,
                     **training):
    """Training-accuracy sweep companion to :func:`scenario_sweep`.

    Every point trains a baseline/reuse pair end-to-end with shared
    seeds; the exact-baseline half is memoized per (model, scale,
    training config, seed) group.
    Returns a
    :class:`repro.analysis.functional_sweep.FunctionalSweepResults`.
    """
    from repro.analysis.functional_sweep import (build_functional_grid,
                                                 run_functional_sweep)
    points = build_functional_grid(models, dataset_scales=dataset_scales,
                                   adaptations=adaptations,
                                   signature_bits=signature_bits, **training)
    return run_functional_sweep(points, processes=processes)


def serving_sweep(models=("squeezenet",), traffics=("uniform", "bursty",
                                                    "zipfian"),
                  cache_policies=("none", "request_exact", "vector_trust"),
                  batch_sizes=(8,), shard_counts=(1,),
                  admissions=("always",), num_requests: int = 200,
                  processes: int | None = None):
    """Inference-serving sweep companion to the other two grids.

    Each point replays a deterministic load-generator trace through a
    (possibly sharded) :class:`repro.serving.InferenceServer` and
    records throughput, latency percentiles, hit rates, per-shard
    balance and exactness against the engine-less forward oracle.
    Returns a :class:`repro.analysis.serving_sweep.ServingSweepResults`.
    """
    from repro.analysis.serving_sweep import (build_serving_grid,
                                              run_serving_sweep)
    points = build_serving_grid(models=models, traffics=traffics,
                                cache_policies=cache_policies,
                                batch_sizes=batch_sizes,
                                shard_counts=shard_counts,
                                admissions=admissions,
                                num_requests=num_requests)
    return run_serving_sweep(points, processes=processes)


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
