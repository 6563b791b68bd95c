"""Tests for the comparison baselines, training harness and analysis."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (format_table, geomean, measure_layer_similarity,
                            measure_unique_vectors, rpq_unique_vector_experiment)
from repro.baselines import (BloomFilter, BloomFilterSimilarity, CaptureEngine,
                             UCNNBound, UnlimitedSimilarityBound,
                             ZeroPruningBound)
from repro.data import ClusteredImageDataset, ImageDatasetConfig
from repro.models import build_model
from repro.nn import CrossEntropyLoss, Linear, ReLU, Sequential
from repro.training import Trainer, TrainingConfig, bleu_score, top1_accuracy
from tests.oracles.baselines import LoopUnlimitedSimilarityBound

RNG = np.random.default_rng(17)


# ----------------------------------------------------------------------
# Capture engine
# ----------------------------------------------------------------------
def test_capture_engine_records_operands():
    engine = CaptureEngine()
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3, 2))
    out = engine.matmul(a, b, layer="fc", phase="forward")
    np.testing.assert_allclose(out, a @ b)
    assert engine.layers() == ["fc"]
    assert engine.total_macs() == 4 * 3 * 2
    engine.clear()
    assert engine.total_macs() == 0


def test_capture_engine_backward_toggle():
    engine = CaptureEngine(capture_backward=False)
    engine.matmul(RNG.normal(size=(2, 2)), RNG.normal(size=(2, 2)),
                  layer="fc", phase="backward")
    assert engine.total_macs(phase="backward") == 0


# ----------------------------------------------------------------------
# Bloom filter
# ----------------------------------------------------------------------
def test_bloom_filter_membership():
    bloom = BloomFilter(num_bits=256, num_hashes=3)
    assert not bloom.contains(b"hello")
    bloom.add(b"hello")
    assert bloom.contains(b"hello")
    assert 0 < bloom.bits.mean() < 1


def test_bloom_filter_saturation_causes_false_positives():
    bloom = BloomFilter(num_bits=8, num_hashes=2)
    for index in range(100):
        bloom.add(str(index).encode())
    assert bloom.contains(b"never-added")


def test_bloom_similarity_counts_exact_duplicates():
    detector = BloomFilterSimilarity(num_bits=1024)
    vectors = np.vstack([np.ones(8)] * 5 + [np.zeros(8)])
    assert detector.unique_vector_count(vectors) == 2
    assert detector.similarity_fraction(vectors) == pytest.approx(4 / 6)


def test_bloom_vs_rpq_figure3_shape():
    """RPQ converges to the true unique count; Bloom over-counts copies."""
    true_unique = 10
    rng = np.random.default_rng(0)
    originals = rng.normal(size=(true_unique, 10))
    population = [originals] + [originals + rng.normal(0, 0.05, originals.shape)
                                for _ in range(10)]
    vectors = np.concatenate(population)

    rpq_estimate = measure_unique_vectors(vectors, signature_bits=40)
    bloom_estimate = BloomFilterSimilarity(num_bits=4096).unique_vector_count(vectors)
    assert abs(rpq_estimate - true_unique) < abs(bloom_estimate - true_unique)


def test_bloom_validation():
    with pytest.raises(ValueError):
        BloomFilter(num_bits=0)
    with pytest.raises(ValueError):
        BloomFilterSimilarity(num_bits=16, quantization_step=0)


# ----------------------------------------------------------------------
# UCNN / zero pruning / unlimited similarity
# ----------------------------------------------------------------------
def _captured_toy_model():
    engine = CaptureEngine()
    model = Sequential(Linear(16, 8, seed=0), ReLU(), Linear(8, 4, seed=1))
    model.set_engine(engine)
    x = RNG.normal(size=(10, 16))
    x[x < 0] = 0.0  # introduce sparsity, as post-ReLU activations have
    logits = model(x)
    loss = CrossEntropyLoss()
    loss(logits, RNG.integers(0, 4, size=10))
    model.zero_grad()
    model.backward(loss.backward())
    return engine


def test_ucnn_bound_increases_with_coarser_quantization():
    engine = _captured_toy_model()
    speedups = [UCNNBound(bits).model_speedup(engine) for bits in (6, 7, 8)]
    assert all(s >= 1.0 for s in speedups)
    assert speedups[0] >= speedups[1] >= speedups[2]


def test_ucnn_layer_report_ops_accounting():
    report = UCNNBound(6).layer_report("l", RNG.normal(size=(5, 9)),
                                       RNG.normal(size=(9, 4)))
    assert report.baseline_ops == 5 * 4 * 17
    assert 0 < report.reduced_ops <= report.baseline_ops
    assert report.speedup >= 1.0


def test_ucnn_validation():
    with pytest.raises(ValueError):
        UCNNBound(0)


def test_zero_pruning_bound_reflects_sparsity():
    bound = ZeroPruningBound()
    dense = bound.layer_report("l", np.ones((4, 8)), np.ones((8, 2)))
    assert dense.speedup == pytest.approx(1.0)
    sparse_inputs = np.ones((4, 8))
    sparse_inputs[:, ::2] = 0.0
    sparse = bound.layer_report("l", sparse_inputs, np.ones((8, 2)))
    assert sparse.speedup == pytest.approx(2.0)


def test_zero_pruning_model_speedup_above_one_for_relu_nets():
    engine = _captured_toy_model()
    assert ZeroPruningBound().model_speedup(engine) > 1.0


def test_unlimited_similarity_bound():
    bound = UnlimitedSimilarityBound(value_resolution=0.5)
    repeated = np.tile(np.array([[1.0, 1.0, 2.0, 2.0]]), (3, 1))
    report = bound.layer_report("l", repeated, np.ones((4, 5)))
    # Only two distinct values per vector -> half the multiplies needed.
    assert report.speedup == pytest.approx(2.0)
    assert UnlimitedSimilarityBound().model_speedup(_captured_toy_model()) >= 1.0


@given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 4),
       st.sampled_from((1e-3, 1e-2, 0.5, 3.0)),
       st.sampled_from(("normal", "repeated", "signed-zeros")),
       st.integers(0, 2 ** 31))
def test_unlimited_similarity_matches_the_per_row_unique_loop(
        rows, length, filters, resolution, values, seed):
    rng = np.random.default_rng(seed)
    if values == "normal":
        vectors = rng.normal(size=(rows, length))
    elif values == "repeated":
        vectors = rng.choice([-1.5, 0.0, 0.25, 2.0], size=(rows, length))
    else:
        vectors = rng.choice([-0.0, 0.0, 1.0], size=(rows, length))
    weights = np.ones((length, filters))
    report = UnlimitedSimilarityBound(resolution).layer_report(
        "l", vectors, weights)
    reference = LoopUnlimitedSimilarityBound(resolution).layer_report(
        "l", vectors, weights)
    assert report == reference
    assert report.speedup == reference.speedup


def test_unlimited_similarity_model_speedup_matches_the_loop():
    capture = _captured_toy_model()
    for resolution in (1e-3, 1e-2, 0.5):
        assert UnlimitedSimilarityBound(resolution).model_speedup(capture) \
            == LoopUnlimitedSimilarityBound(resolution).model_speedup(capture)


def test_bounds_validation():
    with pytest.raises(ValueError):
        ZeroPruningBound(zero_threshold=-1)
    with pytest.raises(ValueError):
        UnlimitedSimilarityBound(value_resolution=0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_top1_accuracy():
    logits = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
    labels = np.array([1, 0, 0])
    assert top1_accuracy(logits, labels) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        top1_accuracy(logits, np.array([1, 0]))


def test_bleu_perfect_and_degraded():
    references = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    assert bleu_score(references, references) == pytest.approx(100.0)
    noisy = [[1, 2, 3, 4, 0], [6, 7, 8, 9, 10]]
    score = bleu_score(references, noisy)
    assert 0 < score < 100
    assert bleu_score(references, [[11, 12, 13, 14, 15]] * 2) < 10


def test_bleu_validation():
    with pytest.raises(ValueError):
        bleu_score([[1, 2]], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        bleu_score([], [])


# ----------------------------------------------------------------------
# Trainer
# ----------------------------------------------------------------------
def _tiny_classification_problem():
    dataset = ClusteredImageDataset(ImageDatasetConfig(num_classes=3,
                                                       samples_per_class=8,
                                                       image_size=12))
    return dataset.images, dataset.labels


def test_trainer_reduces_loss():
    from repro.nn import Conv2D, Flatten, GlobalAvgPool2D
    inputs, labels = _tiny_classification_problem()
    model = Sequential(Conv2D(3, 6, 3, padding=1, seed=0), ReLU(),
                       GlobalAvgPool2D(), Linear(6, 3, seed=1))
    trainer = Trainer(model, TrainingConfig(epochs=4, batch_size=6,
                                            learning_rate=0.02,
                                            optimizer="adam"))
    result = trainer.fit(inputs, labels)
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    assert result.iterations == 4 * 4
    accuracy = trainer.evaluate(inputs, labels)
    assert accuracy > 0.4


def test_trainer_with_reuse_engine_records_stats():
    from repro import MercuryConfig, ReuseEngine
    from repro.nn import Conv2D, GlobalAvgPool2D
    inputs, labels = _tiny_classification_problem()
    model = Sequential(Conv2D(3, 6, 3, padding=1, seed=0), ReLU(),
                       GlobalAvgPool2D(), Linear(6, 3, seed=1))
    engine = ReuseEngine(MercuryConfig(signature_bits=16))
    trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=6,
                                            learning_rate=0.02,
                                            optimizer="adam"), engine=engine)
    trainer.fit(inputs, labels)
    assert engine.stats.total_vectors > 0
    assert engine.iterations == 4


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(optimizer="rmsprop")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def test_measure_layer_similarity_reports_conv_layers():
    dataset = ClusteredImageDataset(ImageDatasetConfig(num_classes=3,
                                                       samples_per_class=4,
                                                       image_size=16))
    model = build_model("squeezenet", num_classes=3, seed=0)
    results = measure_layer_similarity(model, dataset.images[:4],
                                       dataset.labels[:4], signature_bits=16)
    assert results
    for item in results:
        assert 0.0 <= item.input_similarity <= 1.0
        assert 0.0 <= item.gradient_similarity <= 1.0
        assert item.unique_input_vectors <= item.total_input_vectors
    # The engine attachment is restored afterwards.
    assert all(m.engine is None for m in model.modules())


def test_rpq_unique_vector_experiment_converges():
    short = rpq_unique_vector_experiment(signature_bits=2)
    long = rpq_unique_vector_experiment(signature_bits=40)
    assert short <= long
    assert 8 <= long <= 35


def test_geomean_and_format_table():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, -1.0])
    table = format_table(["model", "speedup"], [["vgg13", 1.92]])
    assert "vgg13" in table and "1.920" in table
