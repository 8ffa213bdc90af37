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

import numpy as np
import pytest

import eegitnet.model as model_module
from eegitnet.model import ArchConfig, build
from eegitnet.ops import softmax_cross_entropy

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


def _step(model):
    cfg = model.config
    rng = np.random.default_rng(5)
    x = (0.5 + 3.0 * rng.standard_normal((16, 1, cfg.n_channels, cfg.n_samples))).astype(
        model.params["head.w"].dtype)
    y = np.arange(16) % cfg.n_classes
    logits = model.forward_logits(x, mode="train", rng=np.random.default_rng(6))
    loss = softmax_cross_entropy(logits, y)
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
