"""The model's plain-numpy inference against the graph of ``ops`` layers.

Infer mode folds every batch norm into the layer before it and runs each
inception filter spatial first.  The oracle in ``oracles.py`` applies the
same layers one by one, as the training graph does.  Running statistics,
batch-norm scales and shifts and the biases are randomised first, so that
every folded term is exercised.
"""
import numpy as np
import pytest

from eegitnet.model import ArchConfig, build
from eegitnet.tensor import Tensor

from oracles import graph_infer_logits, graph_infer_tc

LOGIT_ATOL = 1e-4

SHAPES = {
    "paper": (dict(n_channels=22, n_samples=1125, n_classes=4), 16),
    "desk": (dict(n_channels=8, n_samples=375, n_classes=2), 16),
    "odd-and-even-kernels": (dict(n_channels=5, n_samples=200, n_classes=3,
                                  inception_branches=((3, 5), (2, 8), (1, 1)),
                                  tc_blocks=2, dilation_base=3, tc_kernel=5,
                                  pool1=3, pool2=2), 8),
}


def randomised_model(config, seed=0):
    """A built model whose biases, batch-norm parameters and running
    statistics are drawn away from their initial values."""
    model = build(config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, p in model.params.items():
        if name.endswith(".gamma"):
            p.data = rng.uniform(0.5, 1.5, p.shape).astype(p.dtype)
        elif not name.endswith(".w"):
            p.data = rng.normal(0.0, 0.3, p.shape).astype(p.dtype)
    for running in model.buffers.values():
        running.mean = rng.normal(0.0, 0.3, running.mean.shape).astype(running.mean.dtype)
        running.var = rng.uniform(0.3, 2.0, running.var.shape).astype(running.var.dtype)
    return model


def trials(config, n, seed=2, dtype=np.float32):
    shape = (n, 1, config.n_channels, config.n_samples)
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def assert_same_logits(got, want):
    assert got.shape == want.shape
    assert float(np.abs(got - want).max()) <= LOGIT_ATOL
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("shape", list(SHAPES))
def test_folded_logits_match_the_graph(shape):
    fields, batch = SHAPES[shape]
    config = ArchConfig(**fields)
    model = randomised_model(config)
    x = trials(config, batch)
    want = graph_infer_logits(model, x).data
    logits = model.forward_logits(x, mode="infer")
    assert logits.dtype == np.float32
    assert_same_logits(logits.data, want)
    np.testing.assert_array_equal(model.predict(x), np.argmax(want, axis=1))
    if shape == "paper":
        single = np.concatenate([model.forward_logits(x[i:i + 1]).data
                                 for i in range(batch)])
        assert_same_logits(single, want)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_folded_causal_stack_matches_the_graph(shape):
    fields, batch = SHAPES[shape]
    config = ArchConfig(**fields)
    model = randomised_model(config, seed=3)
    y = np.random.default_rng(4).standard_normal(
        (batch, config.branch_filters, 1, config.pooled1_samples)).astype(np.float32)
    want = graph_infer_tc(model, Tensor(y)).data
    got = model.tc_features(Tensor(y), mode="infer").data
    assert got.shape == want.shape and got.dtype == np.float32
    assert float(np.abs(got - want).max()) <= LOGIT_ATOL


def test_float64_input_gives_float64_logits():
    config = ArchConfig(**SHAPES["desk"][0])
    model = randomised_model(config)
    x = trials(config, 4, dtype=np.float64)
    logits = model.forward_logits(x)
    assert logits.dtype == np.float64
    np.testing.assert_allclose(logits.data, graph_infer_logits(model, x).data,
                               rtol=0, atol=1e-9)


def test_infer_mode_records_nothing_and_changes_no_state():
    config = ArchConfig(**SHAPES["odd-and-even-kernels"][0])
    model = randomised_model(config)
    before = model.state_arrays()
    x = Tensor(trials(config, 3), requires_grad=True)
    logits = model.forward_logits(x, mode="infer")
    y = Tensor(np.ones((2, config.branch_filters, 1, config.pooled1_samples),
                       dtype=np.float32), requires_grad=True)
    features = model.tc_features(y, mode="infer")
    for out in (logits, features):
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad
    assert all(p.grad is None for p in model.parameters())
    assert x.grad is None and y.grad is None
    after = model.state_arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)
