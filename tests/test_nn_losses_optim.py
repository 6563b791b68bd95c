"""Tests for losses, optimizers and the Sequential/Module plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (Adam, Conv2D, CrossEntropyLoss, Flatten, Linear, ReLU,
                      SGD, Sequential)
from repro.nn.module import Module, Parameter, assign_unique_layer_names
from tests.helpers import numerical_gradient, relative_error
from tests.oracles.optim import ReferenceAdam, ReferenceSGD

RNG = np.random.default_rng(3)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def test_cross_entropy_uniform_logits():
    loss = CrossEntropyLoss()
    value = loss(np.zeros((4, 10)), np.arange(4))
    assert np.isclose(value, np.log(10))


def test_cross_entropy_gradient_matches_numeric():
    loss = CrossEntropyLoss()
    logits = RNG.normal(size=(3, 5))
    targets = np.array([0, 2, 4])
    loss(logits, targets)
    analytic = loss.backward()

    def value():
        return loss.forward(logits, targets)

    numeric = numerical_gradient(value, logits)
    assert relative_error(analytic, numeric) < 1e-4


def test_cross_entropy_ignore_index():
    loss = CrossEntropyLoss(ignore_index=0)
    logits = RNG.normal(size=(2, 2, 4))
    targets = np.array([[1, 0], [2, 0]])
    loss(logits, targets)
    grad = loss.backward()
    # Ignored positions receive zero gradient.
    np.testing.assert_array_equal(grad[0, 1], np.zeros(4))
    assert np.any(grad[0, 0] != 0)


def test_cross_entropy_all_ignored_raises():
    loss = CrossEntropyLoss(ignore_index=0)
    with pytest.raises(ValueError):
        loss(np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=int))


# ----------------------------------------------------------------------
# Optimizers
# ----------------------------------------------------------------------
def _quadratic_parameter():
    return Parameter(np.array([5.0, -3.0]))


def test_sgd_descends_quadratic():
    param = _quadratic_parameter()
    optimizer = SGD([param], lr=0.1)
    for _ in range(100):
        param.zero_grad()
        param.grad += 2 * param.value
        optimizer.step()
    assert np.all(np.abs(param.value) < 1e-3)


def test_sgd_momentum_faster_than_plain():
    def run(momentum):
        param = _quadratic_parameter()
        optimizer = SGD([param], lr=0.02, momentum=momentum)
        for _ in range(50):
            param.zero_grad()
            param.grad += 2 * param.value
            optimizer.step()
        return np.abs(param.value).max()

    assert run(0.9) < run(0.0)


def test_sgd_weight_decay_shrinks_weights():
    param = Parameter(np.ones(3))
    optimizer = SGD([param], lr=0.1, weight_decay=1.0)
    optimizer.step()  # gradient is zero; only decay applies
    assert np.all(param.value < 1.0)


def test_adam_descends_quadratic():
    param = _quadratic_parameter()
    optimizer = Adam([param], lr=0.2)
    for _ in range(200):
        param.zero_grad()
        param.grad += 2 * param.value
        optimizer.step()
    assert np.all(np.abs(param.value) < 1e-2)


def test_optimizer_requires_parameters():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)


def test_zero_grad_clears_gradients():
    param = Parameter(np.ones(4))
    param.grad += 3.0
    optimizer = SGD([param], lr=0.1)
    optimizer.zero_grad()
    np.testing.assert_array_equal(param.grad, np.zeros(4))


_SHAPES = st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                   min_size=1, max_size=5)


@settings(deadline=None, max_examples=30)
@given(shapes=_SHAPES, kind=st.sampled_from(["sgd", "adam"]),
       lr=st.floats(1e-4, 0.5),
       momentum=st.just(0.0) | st.floats(0.0, 0.99),
       weight_decay=st.just(0.0) | st.floats(0.0, 0.1),
       beta1=st.floats(0.5, 0.99), beta2=st.floats(0.9, 0.9999),
       steps=st.integers(5, 8), seed=st.integers(0, 2 ** 16))
def test_flat_optimizers_match_the_per_parameter_loop(
        shapes, kind, lr, momentum, weight_decay, beta1, beta2, steps,
        seed):
    """One flat update is bit-identical to the per-parameter loop, and
    both zero_grad paths reach the parameters' views of the buffer."""
    rng = np.random.default_rng(seed)
    initial = [rng.normal(size=shape) for shape in shapes]
    stale = [rng.normal(size=shape) for shape in shapes]
    reference_params, flat_params = (
        [Parameter(value.copy()) for value in initial] for _ in range(2))
    for params in (reference_params, flat_params):
        for p, grad in zip(params, stale):
            p.grad += grad
    if kind == "sgd":
        options = dict(lr=lr, momentum=momentum, weight_decay=weight_decay)
        reference = ReferenceSGD(reference_params, **options)
        optimizer = SGD(flat_params, **options)
    else:
        options = dict(lr=lr, betas=(beta1, beta2),
                       weight_decay=weight_decay)
        reference = ReferenceAdam(reference_params, **options)
        optimizer = Adam(flat_params, **options)
    holder = Module()
    holder.params = flat_params
    for p, value, grad in zip(flat_params, initial, stale):
        assert p.value.tobytes() == value.tobytes()
        assert p.grad.tobytes() == grad.tobytes()
    for step in range(steps):
        (holder if step % 2 else optimizer).zero_grad()
        reference.zero_grad()
        for p in flat_params:
            assert p.grad.shape == p.value.shape and not p.grad.any()
        for p, q in zip(reference_params, flat_params):
            grad = rng.normal(size=p.value.shape)
            p.grad += grad
            q.grad += grad
        reference.step()
        optimizer.step()
        for p, q in zip(reference_params, flat_params):
            assert p.value.shape == q.value.shape
            assert p.value.tobytes() == q.value.tobytes()


@pytest.mark.parametrize("optimizer_class", [SGD, Adam])
def test_optimizer_rejects_a_repeated_parameter(optimizer_class):
    param = _quadratic_parameter()
    with pytest.raises(ValueError, match="same parameter twice"):
        optimizer_class([param, _quadratic_parameter(), param])


@pytest.mark.parametrize("attr", ["value", "grad"])
@pytest.mark.parametrize("optimizer_class", [SGD, Adam])
def test_step_refuses_a_parameter_rebound_off_the_buffer(optimizer_class,
                                                          attr):
    kept = Parameter(np.ones(2), name="kept")
    rebound = Parameter(np.ones((2, 3)), name="rebound")
    optimizer = optimizer_class([kept, rebound], lr=0.1)
    optimizer.step()
    setattr(rebound, attr, np.zeros((2, 3)))
    with pytest.raises(RuntimeError, match=f"'rebound'.*{attr}"):
        optimizer.step()


# ----------------------------------------------------------------------
# Module / Sequential
# ----------------------------------------------------------------------
def test_sequential_forward_backward_consistency():
    model = Sequential(Linear(6, 4, seed=0), ReLU(), Linear(4, 2, seed=1))
    x = RNG.normal(size=(3, 6))
    out = model(x)
    assert out.shape == (3, 2)
    grad = model.backward(np.ones_like(out))
    assert grad.shape == x.shape


def test_sequential_parameter_discovery():
    model = Sequential(Conv2D(1, 2, 3, seed=0), Flatten(), Linear(2 * 4, 3, seed=1))
    names = [name for name, _ in model.named_parameters()]
    assert any("conv" in n or "weight" in n for n in names)
    # conv weight+bias, linear weight+bias
    assert len(model.parameters()) == 4


def test_sequential_layer_names_unique():
    model = Sequential(ReLU(), ReLU(), ReLU())
    names = [layer.layer_name for layer in model.layers]
    assert len(set(names)) == 3


def test_assign_unique_layer_names():
    model = Sequential(ReLU(), Sequential(ReLU(), ReLU()))
    assign_unique_layer_names(model, prefix="m")
    names = [m.layer_name for m in model.modules()]
    assert len(names) == len(set(names))


def test_train_eval_propagates():
    model = Sequential(ReLU(), Sequential(ReLU()))
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_set_engine_propagates():
    model = Sequential(Linear(2, 2), Sequential(Linear(2, 2)))
    sentinel = object()
    model.set_engine(sentinel)
    assert all(m.engine is sentinel for m in model.modules())


def test_num_parameters_counts_all():
    model = Sequential(Linear(3, 4, bias=False), Linear(4, 2, bias=True))
    assert sum(p.size for p in model.parameters()) == 3 * 4 + 4 * 2 + 2


def test_module_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        Module().forward(np.zeros(1))
