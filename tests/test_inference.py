"""The model's plain-numpy inference against the graph of ``ops`` layers.

Infer mode folds every batch norm into the layer before it and runs each
inception filter spatial first.  The oracle in ``oracles.py`` applies the
same layers one by one, as the training graph does.  Running statistics,
batch-norm scales and shifts and the biases are randomised first, so that
every folded term is exercised.  The folded network is cached between calls;
every change to the arrays it is folded from must reach the next call.  The
buffers a pass runs its layers in belong to that call alone, and its
features are the bits of the previous implementation in ``oracles.py``.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eegitnet import model as model_module
from eegitnet.model import ArchConfig, build
from eegitnet.optim import Adam
from eegitnet.tensor import Tensor
from eegitnet.training import evaluate

from oracles import (folded_infer_tc, graph_infer_logits, graph_infer_tc,
                     previous_infer_features, previous_infer_tc)

LOGIT_ATOL = 1e-4

SHAPES = {
    "paper": (dict(n_channels=22, n_samples=1125, n_classes=4), 16),
    "desk": (dict(n_channels=8, n_samples=375, n_classes=2), 16),
    "odd-and-even-kernels": (dict(n_channels=5, n_samples=200, n_classes=3,
                                  inception_branches=((3, 5), (2, 8), (1, 1)),
                                  tc_blocks=2, dilation_base=3, tc_kernel=5,
                                  pool1=3, pool2=2), 8),
    "empty-causal-stack": (dict(n_channels=6, n_samples=160, n_classes=3, tc_blocks=0), 8),
    "pool-one": (dict(n_channels=5, n_samples=96, n_classes=2, tc_layers_per_block=1,
                      pool1=1, pool2=1), 8),
}


def randomised_model(config, seed=0, dtype=np.float32):
    """A built model whose biases, batch-norm parameters and running
    statistics are drawn away from their initial values."""
    model = build(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    for name, p in model.params.items():
        if name.endswith(".gamma"):
            p.data = rng.uniform(0.5, 1.5, p.shape).astype(p.dtype)
        elif not name.endswith(".w"):
            p.data = rng.normal(0.0, 0.3, p.shape).astype(p.dtype)
    for name, a in model.buffers.items():
        if name.endswith(".running_mean"):
            model.buffers[name] = rng.normal(0.0, 0.3, a.shape).astype(a.dtype)
        else:
            model.buffers[name] = rng.uniform(0.3, 2.0, a.shape).astype(a.dtype)
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
    got = folded_infer_tc(model, y)
    assert got.shape == want.shape and got.dtype == np.float32
    assert float(np.abs(got - want).max()) <= LOGIT_ATOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("shape", ["paper", "desk"])
def test_blocks_of_trials_give_the_bits_of_one_whole_batch_pass(monkeypatch, shape, dtype):
    # a block holds as many trials as their widest layer, the branch filters
    # over every sample, fits in the block budget: 16 paper or 49 desk
    # trials in float32, half as many in float64
    config = ArchConfig(**SHAPES[shape][0])
    model = randomised_model(config, dtype=dtype)
    block = model_module._CHUNK_BYTES // (config.branch_filters * config.n_samples
                                          * np.dtype(dtype).itemsize)
    blocks = []
    features = model_module.ITNetModel._infer_features

    def spy(self, x, plan):
        blocks.append(len(x))
        return features(self, x, plan)

    monkeypatch.setattr(model_module.ITNetModel, "_infer_features", spy)
    for n in (0, 1, block, block + 1, 2 * block + 3):
        x = trials(config, n, dtype=dtype)
        y = np.arange(n) % config.n_classes

        def passes():
            out = [model.forward_logits(x, mode="infer").data, model.predict(x)]
            return out + ([np.array(evaluate(model, x, y))] if n else [])

        blocks.clear()
        blocked = passes()   # three passes of the same blocks
        assert blocks == 3 * ([block] * (n // block) + ([n % block] if n % block else []))
        with monkeypatch.context() as unbounded:
            unbounded.setattr(model_module, "_CHUNK_BYTES", 1 << 62)
            blocks.clear()
            whole = passes()
            assert blocks == 3 * ([n] if n else [])
        assert blocked[0].shape == (n, config.n_classes) and blocked[0].dtype == dtype
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_features_are_the_bits_of_the_previous_implementation(shape, dtype):
    # one trial, three, and one full block of trials, then the causal stack
    # alone on none and three; and each trial alone gives its row of the block
    config = ArchConfig(**SHAPES[shape][0])
    model = randomised_model(config, dtype=dtype)
    plan = model._plan(np.dtype(dtype))
    block = model_module._CHUNK_BYTES // (config.branch_filters * config.n_samples
                                          * np.dtype(dtype).itemsize)
    x = trials(config, block, dtype=dtype)[:, 0]
    for n in (1, 3, block):
        features = model._infer_features(x[:n], plan)
        np.testing.assert_array_equal(features, previous_infer_features(model, x[:n], plan),
                                      strict=True)
    singles = np.concatenate([model._infer_features(x[i:i + 1], plan) for i in range(block)])
    np.testing.assert_array_equal(singles, features, strict=True)
    y = np.random.default_rng(5).standard_normal(
        (3, config.branch_filters, 1, config.pooled1_samples)).astype(dtype)
    for n in (0, 3):
        np.testing.assert_array_equal(
            folded_infer_tc(model, y[:n])[:, :, 0],
            previous_infer_tc(model, y[:n, :, 0], plan.causal), strict=True)


def test_two_threads_predicting_at_once_get_the_bits_of_one_thread():
    # each call makes its own buffers, so two models labelling different
    # trials in two threads, switching often, get what each gets alone
    config = ArchConfig(**SHAPES["paper"][0])
    models = [randomised_model(config, seed=seed) for seed in (0, 5)]
    xs = [trials(config, 4, seed=seed) for seed in (2, 3)]
    calls = [(i % 2, i // 2 % 4) for i in range(24)]

    def label(call):
        m, t = call
        x = xs[m][t:t + 1]
        return models[m].forward_logits(x).data, models[m].predict(x)

    alone = [label(call) for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(label, call) for call in calls]
            together = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (logits, labels), (want_logits, want_labels) in zip(together, alone):
        np.testing.assert_array_equal(logits, want_logits, strict=True)
        np.testing.assert_array_equal(labels, want_labels, strict=True)


def test_float64_input_gives_float64_logits():
    config = ArchConfig(**SHAPES["desk"][0])
    model = randomised_model(config)
    x = trials(config, 4, dtype=np.float64)
    model.forward_logits(x.astype(np.float32))   # folds the network in float32
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
    assert logits._parents == () and logits._backward_fn is None
    assert not logits.requires_grad
    assert all(p.grad is None for p in model.parameters())
    assert x.grad is None
    after = model.state_arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_a_cached_plan_gives_the_logits_of_a_cold_build(monkeypatch):
    config = ArchConfig(**SHAPES["paper"][0])
    model = randomised_model(config)
    x = trials(config, 4)
    monkeypatch.setattr(model_module, "_last_plan", None)
    cold = model.forward_logits(x).data
    cached = model_module._last_plan
    np.testing.assert_array_equal(model.forward_logits(x).data, cold)
    twin = build(config, seed=7)
    twin.load_state_arrays(model.state_arrays())
    np.testing.assert_array_equal(twin.forward_logits(x).data, cold)
    assert model_module._last_plan is cached


def adam_step(model, x):
    for p in model.parameters():
        p.grad = np.full_like(p.data, 0.5)
    Adam(model.parameters(), lr=1e-2).step()


def nudge_one_spatial_weight(model, x):
    model.params["branch1.spatial.w"].data[2, 0, 5, 0] += 0.5


def double_one_causal_variance(model, x):
    model.buffers["tc1.bn0.running_var"] *= 2


def load_another_models_state(model, x):
    model.load_state_arrays(randomised_model(model.config, seed=9).state_arrays())


def train_mode_forward(model, x):
    model.forward_logits(x, mode="train", rng=np.random.default_rng(0))


@pytest.mark.parametrize("change", [adam_step, nudge_one_spatial_weight,
                                    double_one_causal_variance, load_another_models_state,
                                    train_mode_forward], ids=lambda f: f.__name__)
def test_a_change_between_calls_reaches_the_next_call(change):
    config = ArchConfig(**SHAPES["desk"][0])
    model = randomised_model(config)
    x = trials(config, 8)
    before = model.forward_logits(x).data
    change(model, x)
    want = graph_infer_logits(model, x).data
    assert float(np.abs(want - before).max()) > LOGIT_ATOL
    assert_same_logits(model.forward_logits(x).data, want)


def test_models_with_equal_arrays_and_different_configs_each_fold_their_own():
    fields = SHAPES["desk"][0]
    models = [randomised_model(ArchConfig(**fields, dilation_base=b)) for b in (2, 3)]
    first, second = (m.state_arrays() for m in models)
    assert all(np.array_equal(first[name], second[name]) for name in first)
    x = trials(models[0].config, 4)
    want = [graph_infer_logits(m, x).data for m in models]
    assert float(np.abs(want[0] - want[1]).max()) > LOGIT_ATOL
    for i in (0, 1, 0, 1):
        assert_same_logits(models[i].forward_logits(x).data, want[i])
