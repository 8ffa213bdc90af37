"""One whole training step against the previous kernels and op chain.

The step runs twice on copies of one model: on the package's ops, and with
the ops swapped for whole-batch references from ``oracles``: convolution
(``window_conv_temporal``), pooling (``mean_pool_time``), batch norm with
the conv bias as its own add op in front (``bias_add_batch_norm``; for BN1
the norm then feeds the spatial convolution, ``window_conv2d``, the chain
the package now applies through the electrode sum) and dropout with a
scaled float mask (``float_mask_dropout``).  Loss, every parameter gradient
and every running statistic must agree, at the paper shape and at the desk
shape.

BN1's batch statistics cancel the temporal biases, and BN2 renormalises each
filter, so the gradients of those biases and of BN1's beta are rounding noise
in the reference run (the package's bias gradients are exactly zero).  The
gradient bound therefore scales with the step's largest gradient, not with
each array's own magnitude.
"""
import copy
import tracemalloc

import numpy as np
import pytest

import eegitnet.model as model_module
from eegitnet import ops, tensor
from eegitnet.model import ArchConfig, build
from eegitnet.ops import softmax_cross_entropy
from eegitnet.tensor import concat_channels

from oracles import (bias_add_batch_norm, float_mask_dropout, mean_pool_time,
                     window_conv_temporal)

PAPER = ArchConfig(n_channels=22, n_samples=1125, n_classes=4)
DESK = ArchConfig(n_channels=8, n_samples=375, n_classes=2)
DTYPE_TOLERANCES = [(np.float64, 1e-9), (np.float32, 1e-5)]


def _perturbed_model(config, dtype):
    model = build(config, seed=3, dtype=dtype)
    rng = np.random.default_rng(4)
    for p in model.params.values():
        p.data += (0.2 * rng.standard_normal(p.shape)).astype(dtype)
    return model


def _loss(model):
    """The recorded training loss of one fixed batch."""
    cfg = model.config
    rng = np.random.default_rng(5)
    x = (0.5 + 3.0 * rng.standard_normal((16, 1, cfg.n_channels, cfg.n_samples))).astype(
        model.params["head.w"].dtype)
    y = np.arange(16) % cfg.n_classes
    logits = model.forward_logits(x, mode="train", rng=np.random.default_rng(6))
    return softmax_cross_entropy(logits, y)


def _step(model):
    loss = _loss(model)
    loss.backward()
    return loss.item(), {n: p.grad for n, p in model.params.items()}, model.buffers


def _assert_step_matches_the_references(monkeypatch, config, dtype, tol):
    model = _perturbed_model(config, dtype)
    reference = copy.deepcopy(model)
    loss, grads, stats = _step(model)
    with monkeypatch.context() as patch:
        patch.setattr(model_module, "conv_temporal", window_conv_temporal)
        patch.setattr(model_module, "avg_pool_time", mean_pool_time)
        patch.setattr(model_module, "batch_norm", bias_add_batch_norm)
        patch.setattr(model_module, "dropout", float_mask_dropout)
        ref_loss, ref_grads, ref_stats = _step(reference)

    assert loss == pytest.approx(ref_loss, rel=tol)
    largest = max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        assert grads[name].dtype == dtype
        err = np.abs(grads[name] - ref).max() / largest
        assert err <= tol, f"{name}: error {err:.2e} of the largest gradient"
    for name, ref in ref_stats.items():
        err = np.abs(stats[name] - ref).max() / np.abs(ref).max()
        assert err <= tol, f"{name}: error {err:.2e} of its largest value"


@pytest.mark.parametrize("dtype,tol", DTYPE_TOLERANCES)
def test_training_step_matches_the_window_kernels(monkeypatch, dtype, tol):
    _assert_step_matches_the_references(monkeypatch, PAPER, dtype, tol)


@pytest.mark.parametrize("dtype,tol", DTYPE_TOLERANCES)
def test_desk_training_step_matches_the_window_kernels(monkeypatch, dtype, tol):
    _assert_step_matches_the_references(monkeypatch, DESK, dtype, tol)


def _pass_through(from_op):
    """``from_op`` that wraps every backward closure in another function,
    as a tracer that times each op's backward does."""
    def wrapped(data, parents, backward_fn):
        def traced(g):
            backward_fn(g)
        return from_op(data, parents, traced)
    return wrapped


def _reading_shapes(conv_temporal):
    """``conv_temporal`` behind a pass-through that reads the input's and the
    output's shapes and the input's item size, as a tracer that counts each
    convolution's work does."""
    def wrapped(x, spec, weights):
        out = conv_temporal(x, spec, weights)
        _ = (x.shape, out.shape, x.data.itemsize)
        return out
    return wrapped


def test_the_inception_front_end_holds_no_full_size_array(monkeypatch):
    # the inception convs' outputs are deferred: from the input to the join
    # of the branches the forward never holds the widest branch's
    # (16, 8, 22, 1125) array, and reading each conv's shapes and item size
    # does not build it either.  The peak is taken at the join, because the
    # causal stack's recorded layers alone hold more than that bound by the
    # end of the forward
    full_size = 16 * 8 * 22 * 1125 * np.dtype(np.float32).itemsize
    model = _perturbed_model(PAPER, np.float32)
    x = (0.5 + 3.0 * np.random.default_rng(5).standard_normal((16, 1, 22, 1125))).astype(
        np.float32)
    for wrap in (False, True):
        peaks = []

        def join(branches):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return concat_channels(branches)

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "concat_channels", join)
            if wrap:
                patch.setattr(model_module, "conv_temporal",
                              _reading_shapes(model_module.conv_temporal))
            tracemalloc.start()
            try:
                model.forward_logits(x, mode="train", rng=np.random.default_rng(6))
            finally:
                tracemalloc.stop()
        assert peaks[0] < full_size, f"front-end peak {peaks[0]} bytes (shapes read: {wrap})"


def test_wrapped_backward_closures_give_the_same_step(monkeypatch):
    # the spatial conv hands the inception conv a factored gradient, marked
    # on the tensor and not on the closure: a step with every closure
    # wrapped gives bit-identical gradients, and neither backward allocates
    # a (16, 8, 22, 1125) gradient for the temporal conv's output
    full_size = 16 * 8 * 22 * 1125 * np.dtype(np.float32).itemsize
    model = _perturbed_model(PAPER, np.float32)
    runs = []
    for wrap in (False, True):
        step_model = copy.deepcopy(model)
        with monkeypatch.context() as patch:
            if wrap:
                for owner in (ops, tensor):
                    patch.setattr(owner, "from_op", _pass_through(owner.from_op))
            loss = _loss(step_model)
            tracemalloc.start()
            try:
                loss.backward()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < full_size, f"backward peak {peak} bytes (wrapped: {wrap})"
        runs.append({n: p.grad for n, p in step_model.params.items()})
    plain, wrapped = runs
    for name, grad in plain.items():
        np.testing.assert_array_equal(wrapped[name], grad, err_msg=name)


@pytest.mark.parametrize("config", [PAPER, DESK], ids=["paper", "desk"])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_factored_spatial_gradient_matches_the_dense_one(monkeypatch, config, dtype, tol):
    # the same step with every factored gradient made dense where it is
    # sent, so the inception convs take their dense backward: gradients
    # within tol of the step's largest
    model = _perturbed_model(config, dtype)
    dense_model = copy.deepcopy(model)
    _, grads, _ = _step(model)

    def accumulate_dense(t, g, fresh=False):
        if isinstance(g, ops.FactoredGrad):
            g, fresh = g.dense(), True
        tensor.accumulate(t, g, fresh)

    with monkeypatch.context() as patch:
        patch.setattr(ops, "accumulate", accumulate_dense)
        _, ref_grads, _ = _step(dense_model)
    largest = max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        err = np.abs(grads[name] - ref).max() / largest
        assert err <= tol, f"{name}: error {err:.2e} of the largest gradient"
