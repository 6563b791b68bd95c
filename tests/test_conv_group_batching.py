"""Bit-identity of the batched per-channel convolution path.

The reuse engine services a convolution's per-channel signature phases
as one hash and one classification, and rides them with one GEMM of
the engine-less shape over the substituted patches
(`ReuseEngine.matmul_groups`).  These tests assert it is bit-identical
to one signature phase per channel followed by one product over the
patches substituted element by element (the oracle in
``tests/oracles/engine.py``): outputs, per-layer statistics,
signature-table state, clears and every channel's Hitmap; and that
every patch row none of whose channels hits equals the engine-less
conv's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.functional_sweep import (MODEL_STREAM, FunctionalPoint,
                                             derive_seed, load_point_data,
                                             mercury_config_for,
                                             training_config_for)
from repro.core.config import MercuryConfig
from repro.core.hitmap import HIT_CODE, MAU_CODE
from repro.core.hitmap_sim import (simulate_hitmap,
                                   simulate_hitmap_interleaved)
from repro.core.reuse import ReuseEngine
from repro.models.registry import build_model
from repro.nn.im2col import im2col
from repro.nn.layers.conv import Conv2D
from repro.training.trainer import Trainer
from tests.helpers import capture_classified
from tests.oracles.engine import per_call_engine, substitute_segments
from tests.oracles.hitmap import group_views
from tests.oracles.signatures import ints_to_words


def _assert_groups_match(grouped, wants):
    """Each group's view of the interleaved frame ``grouped`` equals
    the plain simulation of that group's rows, and the frame's counts
    are the groups' totals."""
    for (states, representative), want in zip(
            group_views(grouped, len(wants)), wants, strict=True):
        np.testing.assert_array_equal(states, want.states)
        np.testing.assert_array_equal(representative, want.representative)
    for field in ("hits", "mau", "mnu", "unique_signatures"):
        assert getattr(grouped, field) == \
            sum(getattr(want, field) for want in wants)


def _per_group_hitmaps(captured):
    """Every group's ``(states, representative)`` over a run's captured
    signature phases, in call order: a plain call is one group."""
    return [view for groups, simulation in captured
            for view in group_views(simulation, groups)]


def _assert_same_hitmaps(left, right):
    assert len(left) == len(right)
    for (left_states, left_rep), (right_states, right_rep) in zip(left,
                                                                    right):
        np.testing.assert_array_equal(left_states, right_states)
        np.testing.assert_array_equal(left_rep, right_rep)


def _interleave(groups):
    """Equal-length batches as one interleaved frame: row
    ``n * len(groups) + g`` is the ``n``-th row of batch ``g``."""
    stacked = np.stack(groups, axis=1)
    return stacked.reshape(-1, *stacked.shape[2:])


class TestSimulateHitmapGrouped:
    def test_matches_per_group_simulation(self, make_trace):
        groups = [make_trace(300, 40, seed=s) for s in range(5)]
        grouped = simulate_hitmap_interleaved(_interleave(groups),
                                              len(groups), num_sets=8,
                                              ways=4)
        _assert_groups_match(grouped, [simulate_hitmap(trace, num_sets=8,
                                                       ways=4)
                                       for trace in groups])

    def test_groups_do_not_share_cache_state(self):
        # The same signature in two groups must MAU twice (fresh cache
        # per group), and a full set in one group must not reject the
        # other group's inserts.
        sigs = np.array([5, 5, 5, 5], dtype=np.int64)
        grouped = simulate_hitmap_interleaved(sigs, 2, num_sets=2, ways=1)
        for states, representative in group_views(grouped, 2):
            assert list(states) == [MAU_CODE, HIT_CODE]
            assert representative[1] == 0

    def test_groups_of_uneven_traffic(self, make_trace):
        # One group of a single signature, one with more uniques than
        # the cache holds, one in between.
        groups = [make_trace(120, 1, seed=1), make_trace(120, 200, seed=2),
                  make_trace(120, 6, seed=3)]
        grouped = simulate_hitmap_interleaved(_interleave(groups), 3,
                                              num_sets=4, ways=2)
        wants = [simulate_hitmap(trace, num_sets=4, ways=2)
                 for trace in groups]
        _assert_groups_match(grouped, wants)
        assert wants[0].hits == 119 and wants[1].mnu > 0

    def test_multiword_groups(self):
        rng = np.random.default_rng(0)
        pool = [(1 << 70) + int(v) for v in rng.integers(0, 30, size=30)]
        groups = [np.array([pool[i] for i in
                            rng.integers(0, len(pool), size=80)],
                           dtype=object) for _ in range(3)]
        words = [ints_to_words(g, num_words=2) for g in groups]
        grouped = simulate_hitmap_interleaved(_interleave(words), 3,
                                              num_sets=4, ways=2)
        _assert_groups_match(grouped, [simulate_hitmap(trace, num_sets=4,
                                                       ways=2)
                                       for trace in words])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_hitmap_interleaved(np.arange(5), 2, num_sets=2, ways=1)
        with pytest.raises(ValueError):
            simulate_hitmap_interleaved(np.arange(4), 0, num_sets=2, ways=1)

    def test_empty(self):
        grouped = simulate_hitmap_interleaved(np.empty(0, dtype=np.int64), 3,
                                              num_sets=2, ways=1)
        assert (grouped.hits, grouped.mau, grouped.mnu,
                grouped.unique_signatures) == (0, 0, 0, 0)
        for states, representative in group_views(grouped, 3):
            assert len(states) == len(representative) == 0


def _stats_snapshot(engine):
    rows = []
    for record in engine.stats.all_records():
        rows.append((record.layer, record.phase, record.calls,
                     record.total_vectors, record.hits, record.mau,
                     record.mnu, record.unique_signatures,
                     record.vector_length, record.num_filters,
                     record.signature_computed_vectors,
                     record.signature_reloaded_vectors))
    return rows


def _paired_engines(**config_overrides):
    base = dict(adaptive_signature_length=False, adaptive_stoppage=False,
                mcache_entries=64, mcache_ways=4)
    base.update(config_overrides)
    config = MercuryConfig(**base)
    return per_call_engine(config), ReuseEngine(config)


# (in_channels, kernel, stride, padding, input size, input channels
# held constant).  The large first-layer kernels are the only per-channel
# shapes with vector lengths of 16 or more: 5x5 is the scaled alexnet's
# conv1, 7x7 the resnet/googlenet conv1 and 11x11 the full-size alexnet
# conv1.  Every vector of an unpadded constant channel is the same, so
# its group's only miss is its first row.
CONV_SHAPES = {
    "6ch-3x3": (6, 3, 1, 1, 10, ()),
    "7ch-3x3": (7, 3, 1, 1, 10, ()),
    "3ch-5x5": (3, 5, 2, 2, 16, ()),
    "3ch-7x7": (3, 7, 2, 3, 16, ()),
    "3ch-11x11": (3, 11, 4, 2, 24, ()),
    "6ch-1x1": (6, 1, 1, 0, 10, ()),
    "1ch-3x3": (1, 3, 1, 1, 10, ()),
    "6ch-3x3-3-constant": (6, 3, 1, 0, 10, (0, 2, 5)),
}


@pytest.mark.parametrize("shape", CONV_SHAPES.values(),
                         ids=CONV_SHAPES.keys())
def test_conv_forward_bit_identity(rng, shape):
    """The grouped engine equals the per-group oracle bit for bit, and
    every row none of whose channels hits equals the engine-less
    conv's."""
    in_channels, kernel, stride, padding, size, constant = shape
    oracle, batched = _paired_engines()
    oracle_hitmaps = capture_classified(oracle)
    captured = capture_classified(batched)
    x = rng.normal(size=(3, in_channels, size, size))
    for channel in constant:
        x[:, channel] = rng.normal()
    outputs = {}
    for engine in (oracle, batched, None):
        conv = Conv2D(in_channels, 5, kernel, stride=stride,
                      padding=padding, seed=11)
        conv.engine = engine
        outputs[engine] = conv.forward(x)
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)
    assert oracle.stats == batched.stats
    assert oracle.session.clears == batched.session.clears
    # Every channel's Hitmap, the batched frame's strided views against
    # the oracle's one signature phase per channel.
    _assert_same_hitmaps(_per_group_hitmaps(oracle_hitmaps),
                         _per_group_hitmaps(captured))
    # The signature table holds the last channel's record either way.
    for engine in (oracle, batched):
        record = engine.signature_table.get(conv.layer_name)
        assert record is not None
    left = oracle.signature_table.get(conv.layer_name)
    right = batched.signature_table.get(conv.layer_name)
    np.testing.assert_array_equal(left.signatures, right.signatures)
    # Every channel is hashed on its own: k x k vectors.
    assert left.vector_length == right.vector_length == kernel * kernel

    # One signature phase, one group per input channel.
    ((groups, simulation),) = captured
    assert groups == in_channels
    views = group_views(simulation, groups)
    for channel in constant:
        # A constant channel's group misses only on its first row.
        channel_states = views[channel][0]
        assert np.count_nonzero(channel_states == HIT_CODE) == \
            len(channel_states) - 1
    states = np.stack([states for states, _ in views])
    missed = (states != HIT_CODE).all(axis=0)
    assert missed.any()

    def rows(out):
        return out.transpose(0, 2, 3, 1).reshape(-1, 5)

    np.testing.assert_array_equal(rows(outputs[batched])[missed],
                                  rows(outputs[None])[missed])


def test_conv_forward_matches_the_substituted_exact_product(rng):
    """The grouped forward is the engine-less GEMM over ``cols`` with
    each HIT channel patch replaced by its representative's, built
    here one (row, channel) at a time."""
    config = MercuryConfig(adaptive_signature_length=False,
                           adaptive_stoppage=False, signature_bits=8)
    engine = ReuseEngine(config)
    captured = capture_classified(engine)
    conv = Conv2D(12, 7, 3, padding=1, seed=3)
    conv.engine = engine
    x = rng.normal(size=(2, 12, 6, 6))
    out = conv.forward(x)

    ((groups, simulation),) = captured
    assert groups == 12 and simulation.hits
    substituted = substitute_segments(
        im2col(x, 3, 3, 1, 1),
        [representative for _, representative in group_views(simulation,
                                                              groups)], 9)
    expected = substituted @ conv.weight.value.reshape(7, -1).T
    expected += conv.bias.value
    expected = expected.reshape(2, 6, 6, 7).transpose(0, 3, 1, 2)
    np.testing.assert_array_equal(out, expected)


VGG13_POINT = FunctionalPoint(model="vgg13", dataset_scale="small",
                              adaptation="off", batch_size=8, seed=11)


def _grouped_run_state(engine, steps: int = 3):
    """Train vgg13 (``small`` scale) for a few steps through ``engine``."""
    captured = capture_classified(engine)
    train_x, train_y, _, _, outputs = load_point_data(VGG13_POINT)
    model = build_model("vgg13", num_classes=outputs,
                        seed=derive_seed(VGG13_POINT.seed, MODEL_STREAM))
    trainer = Trainer(model, training_config_for(VGG13_POINT),
                      engine=engine)
    losses = [float(trainer.train_step(train_x[8 * step:8 * step + 8],
                                       train_y[8 * step:8 * step + 8]))
              for step in range(steps)]
    table = {layer: engine.signature_table.get(layer)
             for layer in engine.signature_table.layers()}
    return {
        "losses": losses,
        "grads": [p.grad.copy() for p in model.parameters()],
        "values": [p.value.copy() for p in model.parameters()],
        "stats": _stats_snapshot(engine),
        "ledger": engine.stats,
        "clears": engine.session.clears,
        "table": table,
        "hitmaps": _per_group_hitmaps(captured),
    }


def test_vgg13_training_steps_match_the_per_call_engine():
    """Three vgg13 steps: the stacked path changes nothing observable."""
    config = mercury_config_for(VGG13_POINT)
    oracle = _grouped_run_state(per_call_engine(config))
    batched = _grouped_run_state(ReuseEngine(config))

    assert oracle["losses"] == batched["losses"]
    for key in ("grads", "values"):
        for left, right in zip(oracle[key], batched[key]):
            np.testing.assert_array_equal(left, right)
    assert oracle["stats"] == batched["stats"]
    assert oracle["ledger"] == batched["ledger"]
    # One flash clear per Hitmap, however the Hitmaps were batched.
    assert oracle["clears"] == batched["clears"] > 0
    assert len(oracle["hitmaps"]) == oracle["clears"]
    _assert_same_hitmaps(oracle["hitmaps"], batched["hitmaps"])
    assert oracle["table"].keys() == batched["table"].keys()
    for layer, left in oracle["table"].items():
        right = batched["table"][layer]
        assert (left.vector_length, left.signature_bits) == \
            (right.vector_length, right.signature_bits)
        np.testing.assert_array_equal(left.signatures, right.signatures)


def test_multiword_signature_bits_bit_identity(rng):
    oracle, batched = _paired_engines(signature_bits=70,
                                      max_signature_bits=80)
    x = rng.normal(size=(2, 4, 8, 8))
    outputs = {}
    for engine in (oracle, batched):
        conv = Conv2D(4, 3, 3, seed=7)
        conv.engine = engine
        outputs[engine] = conv.forward(x)
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)


def test_detection_disabled_bit_identity(rng):
    oracle, batched = _paired_engines(adaptive_stoppage=True)
    x = rng.normal(size=(2, 6, 8, 8))
    outputs = {}
    for engine in (oracle, batched):
        conv = Conv2D(6, 4, 3, seed=5)
        conv.engine = engine
        engine.stoppage.force_disable(conv.layer_name, "forward")
        outputs[engine] = conv.forward(x)
        record = engine.stats.get(conv.layer_name, "forward")
        assert not record.similarity_detection_on
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)


def test_full_model_training_step_bit_identity(rng):
    """A whole squeezenet forward/backward is unchanged by batching."""
    from repro.nn.losses import CrossEntropyLoss

    x = rng.normal(size=(4, 3, 12, 12))
    y = rng.integers(0, 3, size=4)
    results = {}
    config = MercuryConfig(adaptive_signature_length=False,
                           adaptive_stoppage=False,
                           mcache_entries=256, mcache_ways=8)
    for flag, build in ((False, per_call_engine), (True, ReuseEngine)):
        engine = build(config)
        model = build_model("squeezenet", num_classes=3, seed=2)
        model.set_engine(engine)
        loss_fn = CrossEntropyLoss()
        logits = model(x)
        loss = loss_fn(logits, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
        results[flag] = (logits, float(loss), grads,
                         _stats_snapshot(engine))
    np.testing.assert_array_equal(results[False][0], results[True][0])
    assert results[False][1] == results[True][1]
    np.testing.assert_array_equal(results[False][2], results[True][2])
    assert results[False][3] == results[True][3]
