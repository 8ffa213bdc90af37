"""Layer primitives against independent oracles.

Every convolution variant is checked against the loop-based reference in
oracles, every primitive gets a finite-difference gradient check, and the
statistics of batch norm / dropout are verified against their definitions.
"""
import numpy as np
import pytest

from eegitnet import ops
from eegitnet.ops import ConvSpec, RunningStats, conv_temporal
from eegitnet.tensor import Tensor

from oracles import (batch_norm_train_reference, check_gradients, conv_oracle,
                     elu_reference, to_scalar, window_conv_reference)


# ----------------------------------------------------------------------
# convolution forward vs the loop oracle

def test_temporal_same_conv_matches_oracle(rng):
    x = rng.standard_normal((2, 1, 3, 12))
    w = rng.standard_normal((4, 1, 1, 5))
    out = conv_temporal(Tensor(x, dtype=np.float64), ConvSpec(5, padding="same", filter_count=4),
                        Tensor(w, dtype=np.float64))
    # same padding splits k-1 as (left floor, right ceil) along time
    ref = conv_oracle(x, w, pad_elec=(0, 0), pad_time=(2, 2))
    assert out.shape == (2, 4, 3, 12)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_same_conv_even_kernel_pads_left_light(rng):
    x = rng.standard_normal((1, 1, 1, 10))
    w = rng.standard_normal((2, 1, 1, 4))
    out = conv_temporal(Tensor(x, dtype=np.float64), ConvSpec(4, padding="same", filter_count=2),
                        Tensor(w, dtype=np.float64))
    ref = conv_oracle(x, w, pad_time=(1, 2))  # (k-1)//2 = 1 on the left
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_depthwise_spatial_valid_conv_matches_oracle(rng):
    x = rng.standard_normal((2, 5, 4, 9))
    w = rng.standard_normal((5, 1, 4, 1))
    out = conv_temporal(Tensor(x, dtype=np.float64), ConvSpec(4, padding="valid",
                        depthwise=True, filter_count=5), Tensor(w, dtype=np.float64))
    ref = conv_oracle(x, w, depthwise=True)
    assert out.shape == (2, 5, 1, 9)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_causal_conv_is_lag_ordered(rng, dilation):
    """out[t] = sum_j w[j] * x[t - j*dilation]: kernel index j reaches back."""
    x = rng.standard_normal((2, 3, 1, 16))
    w = rng.standard_normal((3, 1, 1, 4))
    out = conv_temporal(Tensor(x, dtype=np.float64),
                        ConvSpec(4, dilation=dilation, padding="causal",
                                 depthwise=True, filter_count=3),
                        Tensor(w, dtype=np.float64))
    assert out.shape == x.shape
    ref = np.zeros_like(x)
    for t in range(16):
        for j in range(4):
            src = t - j * dilation
            if src >= 0:
                ref[:, :, 0, t] += w[:, 0, 0, j] * x[:, :, 0, src]
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_causal_conv_matches_flipped_oracle(rng):
    # equivalently: left-pad and correlate with the time-reversed kernel
    x = rng.standard_normal((1, 2, 1, 10))
    w = rng.standard_normal((2, 1, 1, 3))
    d = 2
    out = conv_temporal(Tensor(x, dtype=np.float64),
                        ConvSpec(3, dilation=d, padding="causal", depthwise=True,
                                 filter_count=2),
                        Tensor(w, dtype=np.float64))
    ref = conv_oracle(x, w[..., ::-1], pad_time=((3 - 1) * d, 0),
                      dilation=d, depthwise=True)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_pointwise_mixing_conv(rng):
    x = rng.standard_normal((3, 6, 1, 7))
    w = rng.standard_normal((2, 6, 1, 1))
    out = conv_temporal(Tensor(x, dtype=np.float64), ConvSpec(1, padding="valid", filter_count=2),
                        Tensor(w, dtype=np.float64))
    ref = np.einsum("ncij,fc->nfij", x, w[:, :, 0, 0])
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# convolution gradients

def test_temporal_conv_gradients(rng):
    x = rng.standard_normal((2, 1, 2, 8))
    w = rng.standard_normal((3, 1, 1, 4))
    spec = ConvSpec(4, padding="same", filter_count=3)
    check_gradients(lambda ts: to_scalar(conv_temporal(ts[0], spec, ts[1])), [x, w])


def test_depthwise_valid_conv_gradients(rng):
    x = rng.standard_normal((2, 3, 4, 6))
    w = rng.standard_normal((3, 1, 4, 1))
    spec = ConvSpec(4, padding="valid", depthwise=True, filter_count=3)
    check_gradients(lambda ts: to_scalar(conv_temporal(ts[0], spec, ts[1])), [x, w])


def test_causal_dilated_conv_gradients(rng):
    x = rng.standard_normal((2, 3, 1, 10))
    w = rng.standard_normal((3, 1, 1, 4))
    spec = ConvSpec(4, dilation=2, padding="causal", depthwise=True, filter_count=3)
    check_gradients(lambda ts: to_scalar(conv_temporal(ts[0], spec, ts[1])), [x, w])


def test_dense_conv_gradients_across_filters_electrodes_and_dilation(rng):
    # C_in > 1, kh > 1 and dilation > 1 together pin the im2col column order
    # against w.reshape(C_out, -1); conv_temporal forbids 2-D kernels, so
    # this goes through conv2d directly
    x = rng.standard_normal((2, 3, 4, 9))
    w = rng.standard_normal((2, 3, 2, 3))

    def conv(ts):
        return ops.conv2d(ts[0], ts[1], pad_h=(0, 1), pad_t=(2, 2), dilation=2)

    out = conv([Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64)])
    ref = conv_oracle(x, w, pad_elec=(0, 1), pad_time=(2, 2), dilation=2)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    check_gradients(lambda ts: to_scalar(conv(ts)), [x, w])


# ----------------------------------------------------------------------
# equivalence with the whole-batch kernels at the paper-scale shape
# (22 electrodes x 1125 samples, batch 16, float32): every convolution
# geometry the model uses, train-mode batch norm and ELU

PAPER_TOL = 1e-5  # times the largest reference magnitude


def assert_close_to_reference(got, want):
    assert got.shape == want.shape
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= PAPER_TOL, f"max error {err:.2e} of the largest reference magnitude"


def _tensors(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def _backward_with(out, g):
    """Run the reverse pass with ``g`` as the gradient of ``out``."""
    to_scalar(out, g).backward()


PAPER_INPUT = (16, 1, 22, 1125)   # a batch entering the inception branches
PAPER_STACK = (16, 14, 1, 281)    # the same batch in the causal stack

# name -> (spec, input shape, weight shape, reference time padding)
PAPER_GEOMETRIES = {
    "inception_k16": (ConvSpec(16, 1, "same", False, 2), PAPER_INPUT, (2, 1, 1, 16), (7, 8)),
    "inception_k32": (ConvSpec(32, 1, "same", False, 4), PAPER_INPUT, (4, 1, 1, 32), (15, 16)),
    "inception_k64": (ConvSpec(64, 1, "same", False, 8), PAPER_INPUT, (8, 1, 1, 64), (31, 32)),
    "spatial": (ConvSpec(22, 1, "valid", True, 8), (16, 8, 22, 1125), (8, 1, 22, 1), (0, 0)),
    **{f"causal_d{d}": (ConvSpec(4, d, "causal", True, 14), PAPER_STACK, (14, 1, 1, 4),
                        (3 * d, 0)) for d in (1, 2, 4, 8)},
    "dr_1x1": (ConvSpec(1, 1, "same", False, 14), PAPER_STACK, (14, 14, 1, 1), (0, 0)),
}


@pytest.mark.parametrize("geometry", sorted(PAPER_GEOMETRIES))
def test_conv_matches_window_reference_at_paper_shape(geometry):
    spec, x_shape, w_shape, pad_t = PAPER_GEOMETRIES[geometry]
    rng = np.random.default_rng(7)
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    xt, wt = _tensors(x, w)
    out = conv_temporal(xt, spec, wt)
    g = rng.standard_normal(out.shape).astype(np.float32)
    _backward_with(out, g)
    causal = spec.padding == "causal"
    ref, gx, gw = window_conv_reference(x, w[..., ::-1] if causal else w, g, pad_t=pad_t,
                                        dilation=spec.dilation, depthwise=spec.depthwise)
    assert_close_to_reference(out.data, ref)
    assert_close_to_reference(xt.grad, gx)
    assert_close_to_reference(wt.grad, gw[..., ::-1] if causal else gw)


def test_batch_norm_train_matches_reference_at_paper_shape():
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((16, 8, 22, 1125)) * 3.0 + 1.5).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 8).astype(np.float32)
    beta = rng.standard_normal(8).astype(np.float32)
    xt, gt, bt = _tensors(x, gamma, beta)
    running = RunningStats(8)
    out = ops.batch_norm(xt, gt, bt, mode="train", running=running)
    g = rng.standard_normal(out.shape).astype(np.float32)
    _backward_with(out, g)
    ref, gx, ggamma, gbeta, mu, var = batch_norm_train_reference(x, gamma, beta, g)
    ref_running = RunningStats(8)
    ref_running.update(mu, var, 0.99)
    assert_close_to_reference(out.data, ref)
    assert_close_to_reference(xt.grad, gx)
    assert_close_to_reference(gt.grad, ggamma)
    assert_close_to_reference(bt.grad, gbeta)
    assert_close_to_reference(running.mean, ref_running.mean)
    assert_close_to_reference(running.var, ref_running.var)


def test_elu_is_bit_identical_to_reference_at_paper_shape():
    rng = np.random.default_rng(9)
    x = (rng.standard_normal((16, 14, 22, 1125)) * 4.0).astype(np.float32)
    x.reshape(-1)[:8] = [0.0, -0.0, 1e-30, -1e-30, 1e-45, -1e-45, -100.0, 3e38]
    (xt,) = _tensors(x)
    out = ops.elu(xt)
    g = rng.standard_normal(out.shape).astype(np.float32)
    _backward_with(out, g)
    ref, gx = elu_reference(x, g)
    # compare bit patterns, so -0.0 and 0.0 count as different; a gradient
    # reaches .grad by being added to zeros, which turns -0.0 into 0.0
    np.testing.assert_array_equal(out.data.view(np.uint32), ref.view(np.uint32))
    np.testing.assert_array_equal(xt.grad.view(np.uint32), (0.0 + gx).view(np.uint32))


# ----------------------------------------------------------------------
# ConvSpec / conv_temporal validation

def test_convspec_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ConvSpec(0)
    with pytest.raises(ValueError):
        ConvSpec(3, dilation=0)
    with pytest.raises(ValueError):
        ConvSpec(3, padding="reflect")


def test_causal_requires_pure_time_kernel(rng):
    x = Tensor(rng.standard_normal((1, 2, 2, 8)))
    w = Tensor(rng.standard_normal((2, 1, 2, 3)))
    with pytest.raises(ValueError):
        conv_temporal(x, ConvSpec(3, padding="causal", depthwise=True, filter_count=2), w)


def test_valid_conv_rejects_kernel_wider_than_input(rng):
    x = Tensor(rng.standard_normal((1, 1, 1, 4)))
    w = Tensor(rng.standard_normal((1, 1, 1, 5)))
    with pytest.raises(ValueError):
        conv_temporal(x, ConvSpec(5, padding="valid"), w)


def test_depthwise_weight_shape_checked(rng):
    x = Tensor(rng.standard_normal((1, 3, 1, 8)))
    w = Tensor(rng.standard_normal((2, 3, 1, 3)))
    with pytest.raises(ValueError):
        conv_temporal(x, ConvSpec(3, padding="same", depthwise=True, filter_count=3), w)


# ----------------------------------------------------------------------
# batch norm

def test_batch_norm_train_normalizes_per_channel(rng):
    x = rng.standard_normal((8, 3, 2, 5)) * 4.0 + 1.5
    out = ops.batch_norm(Tensor(x, dtype=np.float64),
                         Tensor(np.ones(3), dtype=np.float64),
                         Tensor(np.zeros(3), dtype=np.float64), mode="train")
    got_mean = out.data.mean(axis=(0, 2, 3))
    got_var = out.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(got_mean, 0.0, atol=1e-12)
    # biased variance with eps=1e-3 shrinks slightly below 1
    np.testing.assert_allclose(got_var, np.var(x, axis=(0, 2, 3))
                               / (np.var(x, axis=(0, 2, 3)) + 1e-3), rtol=1e-10)


def test_batch_norm_affine_params_apply(rng):
    x = rng.standard_normal((6, 2, 1, 4))
    gamma, beta = np.array([2.0, 0.5]), np.array([1.0, -1.0])
    out = ops.batch_norm(Tensor(x, dtype=np.float64), Tensor(gamma, dtype=np.float64),
                         Tensor(beta, dtype=np.float64), mode="train")
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), beta, atol=1e-12)


def test_batch_norm_updates_running_stats(rng):
    x = rng.standard_normal((16, 3, 1, 4)).astype(np.float64) + 2.0
    running = RunningStats(3, dtype=np.float64)
    ops.batch_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(3), dtype=np.float64),
                   Tensor(np.zeros(3), dtype=np.float64), mode="train", running=running)
    expected_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 2, 3))
    np.testing.assert_allclose(running.mean, expected_mean, rtol=1e-10)
    expected_var = 0.99 * 1.0 + 0.01 * x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(running.var, expected_var, rtol=1e-10)


def test_batch_norm_infer_uses_running_stats(rng):
    x = rng.standard_normal((4, 2, 1, 3))
    running = RunningStats(2, dtype=np.float64)
    running.mean[:] = [1.0, -1.0]
    running.var[:] = [4.0, 0.25]
    out = ops.batch_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(2), dtype=np.float64),
                         Tensor(np.zeros(2), dtype=np.float64), mode="infer",
                         running=running)
    ref = (x - running.mean.reshape(1, 2, 1, 1)) / np.sqrt(
        running.var.reshape(1, 2, 1, 1) + 1e-3)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)


def test_batch_norm_rejects_singleton_batch(rng):
    x = Tensor(rng.standard_normal((1, 2, 1, 3)))
    with pytest.raises(ValueError):
        ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), mode="train")


def test_batch_norm_train_gradients(rng):
    x = rng.standard_normal((5, 3, 1, 4))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)
    check_gradients(
        lambda ts: to_scalar(ops.batch_norm(ts[0], ts[1], ts[2], mode="train")),
        [x, gamma, beta])


def test_batch_norm_infer_gradients(rng):
    running = RunningStats(3, dtype=np.float64)
    running.mean[:] = rng.standard_normal(3)
    running.var[:] = rng.uniform(0.5, 2.0, 3)
    x = rng.standard_normal((4, 3, 1, 4))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)
    check_gradients(
        lambda ts: to_scalar(ops.batch_norm(ts[0], ts[1], ts[2], mode="infer",
                                            running=running)),
        [x, gamma, beta])


# ----------------------------------------------------------------------
# elu / pooling / dropout / dense / softmax

def test_elu_definition(rng):
    x = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
    out = ops.elu(Tensor(x, dtype=np.float64))
    ref = np.where(x < 0, np.expm1(x), x)
    np.testing.assert_allclose(out.data, ref, rtol=1e-15)


def test_elu_gradients(rng):
    # keep points away from the kink at 0 so finite differences are clean
    x = rng.standard_normal((3, 4))
    x[np.abs(x) < 0.05] += 0.1
    check_gradients(lambda ts: to_scalar(ops.elu(ts[0])), [x])


def test_avg_pool_floor_semantics(rng):
    x = rng.standard_normal((2, 3, 1, 11))
    out = ops.avg_pool_time(Tensor(x, dtype=np.float64), 4)
    assert out.shape == (2, 3, 1, 2)
    np.testing.assert_allclose(out.data[..., 0], x[..., :4].mean(axis=-1), rtol=1e-12)
    np.testing.assert_allclose(out.data[..., 1], x[..., 4:8].mean(axis=-1), rtol=1e-12)


def test_avg_pool_gradient_ignores_truncated_tail(rng):
    x = Tensor(np.arange(10.0), requires_grad=True, dtype=np.float64)
    xr = x.reshape(1, 1, 1, 10)
    to_scalar(ops.avg_pool_time(xr, 4), 1.0).backward()
    np.testing.assert_allclose(x.grad[:8], 0.25)
    np.testing.assert_allclose(x.grad[8:], 0.0)


def test_avg_pool_gradients(rng):
    x = rng.standard_normal((2, 2, 1, 9))
    check_gradients(lambda ts: to_scalar(ops.avg_pool_time(ts[0], 3)), [x])


def test_dropout_infer_is_identity(rng):
    x = rng.standard_normal((3, 4))
    out = ops.dropout(Tensor(x, dtype=np.float64), 0.5, "infer")
    np.testing.assert_array_equal(out.data, x)


def test_dropout_zero_rate_is_identity_in_train(rng):
    x = rng.standard_normal((3, 4))
    out = ops.dropout(Tensor(x, dtype=np.float64), 0.0, "train",
                      rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x)


def test_dropout_preserves_expectation(rng):
    # inverted scaling: E[dropout(x)] == x; 10^4 draws pin the mean within 5 sigma
    x = np.ones((100, 100))
    rate = 0.4
    out = ops.dropout(Tensor(x, dtype=np.float64), rate, "train",
                      rng=np.random.default_rng(99))
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1.0 / (1.0 - rate), rtol=1e-12)
    p_hat = kept.size / x.size
    sigma = np.sqrt(rate * (1 - rate) / x.size)
    assert abs(p_hat - (1 - rate)) < 5 * sigma
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_train_requires_rng():
    with pytest.raises(ValueError):
        ops.dropout(Tensor(np.ones(3)), 0.4, "train")


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        ops.dropout(Tensor(np.ones(3)), 1.0, "infer")


def test_dropout_gradient_routes_through_mask(rng):
    x = rng.standard_normal((4, 5))
    check_gradients(
        lambda ts: to_scalar(ops.dropout(ts[0], 0.4, "train",
                                         rng=np.random.default_rng(7))), [x])


def test_dense_and_flatten(rng):
    x = rng.standard_normal((3, 2, 2, 2))
    flat = ops.flatten(Tensor(x, dtype=np.float64))
    assert flat.shape == (3, 8)
    np.testing.assert_array_equal(flat.data, x.reshape(3, 8))
    w = rng.standard_normal((8, 4))
    b = rng.standard_normal(4)
    check_gradients(
        lambda ts: to_scalar(ops.dense(ops.flatten(ts[0]), ts[1], ts[2])),
        [x, w, b])


def test_softmax_rows_is_a_distribution(rng):
    x = rng.standard_normal((5, 7)) * 3
    out = ops.softmax_rows(Tensor(x, dtype=np.float64))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=1e-12)
    assert (out.data > 0).all()


def test_softmax_is_shift_invariant(rng):
    x = rng.standard_normal((2, 4))
    a = ops.softmax_rows(Tensor(x, dtype=np.float64)).data
    b = ops.softmax_rows(Tensor(x + 1000.0, dtype=np.float64)).data
    np.testing.assert_allclose(a, b, rtol=1e-9)


def test_softmax_gradients(rng):
    x = rng.standard_normal((3, 4))
    check_gradients(lambda ts: to_scalar(ops.softmax_rows(ts[0])), [x])


def test_cross_entropy_matches_log_softmax(rng):
    x = rng.standard_normal((6, 4)) * 2
    labels = rng.integers(0, 4, 6)
    loss = ops.softmax_cross_entropy(Tensor(x, dtype=np.float64), labels)
    # reference via explicit log-sum-exp
    lse = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) \
        + x.max(axis=1)
    ref = (lse - x[np.arange(6), labels]).mean()
    assert loss.item() == pytest.approx(ref, rel=1e-12)


def test_cross_entropy_gradient_is_probs_minus_onehot(rng):
    x = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, 5)
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    ops.softmax_cross_entropy(t, labels).backward()
    e = np.exp(x - x.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    onehot = np.eye(3)[labels]
    np.testing.assert_allclose(t.grad, (probs - onehot) / 5, rtol=1e-10, atol=1e-12)


def test_cross_entropy_fd_gradients(rng):
    x = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 1])
    check_gradients(lambda ts: ops.softmax_cross_entropy(ts[0], labels), [x])


def test_cross_entropy_is_finite_for_extreme_logits():
    x = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss = ops.softmax_cross_entropy(Tensor(x, dtype=np.float64), np.array([0, 1]))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
