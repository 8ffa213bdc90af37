"""Layer primitives against independent oracles.

Every convolution variant is checked against the loop-based reference in
oracles, every primitive gets a finite-difference gradient check, and the
statistics of batch norm / dropout are verified against their definitions.
"""
import ast
import copy
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from eegitnet import ops
from eegitnet.ops import ConvSpec, DeferredConv, FactoredGrad, conv_temporal
from eegitnet.tensor import Tensor

import oracles
from oracles import (batch_norm_train_reference, bias_add, check_gradients, conv_oracle,
                     elu_reference, lag_statistics_fft_reference, lag_statistics_reference,
                     to_scalar, window_conv_reference)


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


def test_a_causal_conv_records_one_node_on_its_input_and_weights(rng):
    # the lag-ordered taps are reversed inside the op, not by a node of their own
    x = Tensor(rng.standard_normal((2, 3, 1, 10)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 1, 1, 4)), requires_grad=True)
    out = conv_temporal(x, ConvSpec(4, dilation=2, padding="causal", depthwise=True,
                                    filter_count=3), w)
    assert len(out._parents) == 2
    assert out._parents[0] is x and out._parents[1] is w


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
    # C_in > 1, several electrode rows and dilation > 1 together pin the
    # dense banded kernel's input-filter order, its rows and its dilated band
    x = rng.standard_normal((2, 3, 4, 9))
    w = rng.standard_normal((2, 3, 1, 3))
    spec = ConvSpec(3, dilation=2, padding="same", filter_count=2)

    out = conv_temporal(Tensor(x, dtype=np.float64), spec, Tensor(w, dtype=np.float64))
    ref = conv_oracle(x, w, pad_time=(2, 2), dilation=2)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    check_gradients(lambda ts: to_scalar(conv_temporal(ts[0], spec, ts[1])), [x, w])


@pytest.mark.parametrize("spec", [
    ConvSpec(4, padding="same", filter_count=3),
    ConvSpec(3, dilation=2, padding="causal", filter_count=3),
    ConvSpec(3, padding="valid", filter_count=3),
], ids=["same", "causal-dilated", "valid"])
def test_temporal_then_spatial_conv_gradients(rng, spec):
    # the spatial conv sends the temporal conv's output a factored gradient,
    # and the temporal conv's backward sums it over the electrodes first
    x = rng.standard_normal((2, 1, 4, 10))
    w = rng.standard_normal((3, 1, 1, spec.kernel_extent))
    s = rng.standard_normal((3, 1, 4, 1))
    spatial = ConvSpec(4, padding="valid", depthwise=True, filter_count=3)
    check_gradients(lambda ts: to_scalar(conv_temporal(conv_temporal(ts[0], spec, ts[1]),
                                                       spatial, ts[2])), [x, w, s])


TEMPORAL_SPECS = {
    "same": ConvSpec(4, padding="same", filter_count=3),
    "causal-dilated": ConvSpec(3, dilation=2, padding="causal", filter_count=3),
    "valid": ConvSpec(3, padding="valid", filter_count=3),
}


def _refuse_to_build(monkeypatch):
    """Make every build of a deferred convolution output fail the test."""
    def build(self):
        raise AssertionError("the deferred output was built")

    monkeypatch.setattr(DeferredConv, "dense", build)


@pytest.mark.parametrize("name", sorted(TEMPORAL_SPECS))
def test_a_deferred_output_answers_its_shape_without_building(rng, monkeypatch, name):
    # a dense time kernel on one input filter defers its output, and the
    # tensor's and the value's shape attributes are read from the factors
    spec = TEMPORAL_SPECS[name]
    u = conv_temporal(Tensor(rng.standard_normal((2, 1, 4, 10)), dtype=np.float32), spec,
                      Tensor(rng.standard_normal((3, 1, 1, spec.kernel_extent)),
                             dtype=np.float32))
    _refuse_to_build(monkeypatch)
    shape = (2, 3, 4, 8 if spec.padding == "valid" else 10)
    assert isinstance(u.data, DeferredConv)
    assert u.shape == u.data.shape == shape and u.ndim == u.data.ndim == 4
    assert u.size == u.data.size == np.prod(shape)
    assert u.dtype == u.data.dtype == np.float32 and u.data.itemsize == 4
    assert u.data.nbytes == 4 * np.prod(shape)
    assert repr(u) == f"Tensor(shape={shape}, dtype=float32)"


@pytest.mark.parametrize("name", sorted(TEMPORAL_SPECS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_deferred_output_is_built_once_and_bit_equal_to_the_band_conv(rng, name, dtype):
    # dense() runs the band_conv the op ran before it deferred its output,
    # on one copy of the taps; numpy reads that same array
    spec = TEMPORAL_SPECS[name]
    x = rng.standard_normal((2, 1, 4, 10)).astype(dtype)
    w = rng.standard_normal((3, 1, 1, spec.kernel_extent)).astype(dtype)
    d = conv_temporal(Tensor(x), spec, Tensor(w)).data
    reach = spec.dilation * (spec.kernel_extent - 1)
    left = {"same": reach // 2, "causal": reach, "valid": 0}[spec.padding]
    taps = w[:, :, 0, ::-1] if spec.padding == "causal" else w[:, :, 0]
    want = ops.band_conv(x, ops.band_matrix(taps, spec.dilation), left, d.shape[-1])
    got = d.dense()
    assert d.dense() is got and np.asarray(d) is got
    assert got.dtype == dtype and got.shape == d.shape
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{got.itemsize}"))


@pytest.mark.parametrize("name", sorted(TEMPORAL_SPECS))
def test_a_deferred_output_answers_every_array_attribute(rng, monkeypatch, name):
    # len comes from the shape and any other public attribute from the built
    # array; numpy's __array_*__ probes, copy and pickle build nothing
    spec = TEMPORAL_SPECS[name]
    x = rng.standard_normal((2, 1, 4, 10))
    w = rng.standard_normal((3, 1, 1, spec.kernel_extent))
    d = conv_temporal(Tensor(x, dtype=np.float32), spec, Tensor(w, dtype=np.float32)).data
    with monkeypatch.context() as patch:
        _refuse_to_build(patch)
        assert len(d) == 2
        assert not hasattr(d, "__array_interface__")
        copies = [copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))]
    built = d.dense()
    assert d.sum() == built.sum() and d.max() == built.max()
    assert d.tobytes() == built.tobytes()
    for got, want in [(d.astype(np.float64), built.astype(np.float64)), (d.T, built.T),
                      (d.copy(), built), (d.swapaxes(0, 1), built.swapaxes(0, 1)),
                      *((c.dense(), built) for c in copies)]:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(TEMPORAL_SPECS))
def test_the_spatial_conv_of_a_deferred_output_builds_nothing(rng, monkeypatch, name):
    # the spatial conv runs the taps on the mixed rows s.x, forward and
    # backward, and sends the deferred input a factored gradient; its output
    # and weight gradient match the spatial conv of the built array, which
    # takes the built form of that gradient
    spec = TEMPORAL_SPECS[name]
    x = rng.standard_normal((2, 1, 4, 10))
    w = rng.standard_normal((3, 1, 1, spec.kernel_extent))
    s = rng.standard_normal((3, 1, 4, 1))
    g = rng.standard_normal((2, 3, 1, 8 if spec.padding == "valid" else 10))
    spatial = ConvSpec(4, padding="valid", depthwise=True, filter_count=3)
    built = Tensor(conv_temporal(Tensor(x, dtype=np.float64), spec,
                                 Tensor(w, dtype=np.float64)).data.dense(), requires_grad=True)
    ref_s = Tensor(s, requires_grad=True, dtype=np.float64)
    ref = conv_temporal(built, spatial, ref_s)
    _backward_with(ref, g)
    with monkeypatch.context() as patch:
        _refuse_to_build(patch)
        u = conv_temporal(Tensor(x, dtype=np.float64), spec,
                          Tensor(w, requires_grad=True, dtype=np.float64))
        st = Tensor(s, requires_grad=True, dtype=np.float64)
        z = conv_temporal(u, spatial, st)
        _backward_with(z, g)
    assert isinstance(u.grad, FactoredGrad)
    assert isinstance(built.grad, np.ndarray)
    np.testing.assert_array_equal(built.grad, u.grad.dense())
    np.testing.assert_allclose(z.data, ref.data, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(st.grad, ref_s.grad, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(TEMPORAL_SPECS))
def test_other_ops_read_a_deferred_output_as_its_built_array(rng, name):
    # every op but the spatial conv reads the built array: on the deferred u
    # it gives what it gives on Tensor(u.data.dense()), and a time conv after
    # the deferred one passes the gradient check
    spec = TEMPORAL_SPECS[name]
    x = rng.standard_normal((2, 1, 4, 10))
    w = rng.standard_normal((3, 1, 1, spec.kernel_extent))
    causal = ConvSpec(2, dilation=2, padding="causal", depthwise=True, filter_count=3)
    w_causal = rng.standard_normal((3, 1, 1, 2))
    same = ConvSpec(3, padding="same", filter_count=2)
    w_same = rng.standard_normal((2, 3, 1, 3))
    u = conv_temporal(Tensor(x, dtype=np.float64), spec, Tensor(w, dtype=np.float64))
    built = Tensor(u.data.dense())
    readers = [lambda t: conv_temporal(t, causal, Tensor(w_causal, dtype=np.float64)),
               lambda t: conv_temporal(t, same, Tensor(w_same, dtype=np.float64)),
               lambda t: ops.avg_pool_time(t, 2),
               ops.flatten]
    for read in readers:
        np.testing.assert_array_equal(read(u).data, read(built).data)
    check_gradients(lambda ts: to_scalar(conv_temporal(conv_temporal(ts[0], spec, ts[1]),
                                                       causal, ts[2])), [x, w, w_causal])


@pytest.mark.parametrize("spec,w_shape", [
    (ConvSpec(4, padding="valid", filter_count=2), (2, 2, 4, 1)),
    (ConvSpec(4, padding="same", depthwise=True, filter_count=2), (2, 1, 4, 1)),
    (ConvSpec(3, padding="valid", depthwise=True, filter_count=2), (2, 1, 3, 1)),
], ids=["dense", "padded", "shorter-than-the-electrode-axis"])
def test_electrode_kernels_other_than_the_spatial_filter_are_refused(rng, monkeypatch, spec,
                                                                      w_shape):
    # an electrode kernel is depthwise, "valid" and spans every electrode;
    # any other is refused before the convolution runs
    def record(*args, **kwargs):
        raise AssertionError("the convolution ran")

    monkeypatch.setattr(ops, "from_op", record)
    x = Tensor(rng.standard_normal((2, 2, 4, 9)))
    with pytest.raises(ValueError, match="electrode kernels are depthwise"):
        conv_temporal(x, spec, Tensor(rng.standard_normal(w_shape)))


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


def _running(channels, dtype=np.float32):
    """Fresh running statistics for ``batch_norm``: a zero mean, a unit variance."""
    return np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype)


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


# name -> ((filters, rows, samples) of the input, taps, dilation, left zeros,
# output length).  The calls of a paper training step: each inception band on
# its mixed rows at its forward's left and its input gradient's, each causal
# band and its transposed convolution, the 1x1 reduction; then the shapes
# only tests reach: a dense band over two rows, DeferredConv.dense()'s
# input, and a "valid" output shorter than its input
TRAINING_BANDS = {
    **{f"inception_k{k}": ((f, 1, 1125), (f, k), 1, ((k - 1) // 2, k // 2), None)
       for f, k in ((2, 16), (4, 32), (8, 64))},
    **{f"causal_d{d}": ((14, 1, 281), (14, 4), d, (3 * d, 0), None) for d in (1, 2, 4, 8)},
    "dr_1x1": ((14, 1, 281), (14, 14, 1), 1, (0,), None),
    "dense_two_rows": ((3, 2, 50), (2, 3, 3), 1, (1,), None),
    "deferred_dense": ((1, 22, 1125), (4, 1, 32), 1, (15,), None),
    "valid_shorter": ((2, 1, 100), (3, 2, 5), 2, (0,), 92),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(TRAINING_BANDS))
def test_training_convolutions_are_the_bits_of_the_previous_implementation(name, dtype):
    # 16 and 40 trials: the k=64 taps gradient sums several chunks of trials
    rows, taps_shape, dilation, lefts, length = TRAINING_BANDS[name]
    rng = np.random.default_rng(11)
    taps = rng.standard_normal(taps_shape).astype(dtype)
    band = ops.band_matrix(taps, dilation)
    bits = np.uint32 if dtype == np.float32 else np.uint64
    for n in (16, 40):
        z = rng.standard_normal((n,) + rows).astype(dtype)
        for left in lefts:
            out = ops.band_conv(z, band, left, length)
            np.testing.assert_array_equal(
                out.view(bits), oracles.previous_band_conv(z, band, left, length).view(bits),
                strict=True)
            g = rng.standard_normal(out.shape).astype(dtype)
            np.testing.assert_array_equal(
                ops.band_conv_taps_grad(z, taps, g, left, dilation).view(bits),
                oracles.previous_band_conv_taps_grad(z, taps, g, left, dilation).view(bits),
                strict=True)


def test_batch_norm_train_matches_reference_at_paper_shape():
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((16, 8, 22, 1125)) * 3.0 + 1.5).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 8).astype(np.float32)
    beta = rng.standard_normal(8).astype(np.float32)
    xt, gt, bt = _tensors(x, gamma, beta)
    running = _running(8)
    out = ops.batch_norm(xt, gt, bt, running=running)
    g = rng.standard_normal(out.shape).astype(np.float32)
    _backward_with(out, g)
    ref, gx, ggamma, gbeta, mu, var = batch_norm_train_reference(x, gamma, beta, g)
    ref_mean, ref_var = _running(8)
    ref_mean[...] = 0.99 * ref_mean + 0.01 * mu   # exponential moving averages
    ref_var[...] = 0.99 * ref_var + 0.01 * var
    assert_close_to_reference(out.data, ref)
    assert_close_to_reference(xt.grad, gx)
    assert_close_to_reference(gt.grad, ggamma)
    assert_close_to_reference(bt.grad, gbeta)
    assert_close_to_reference(running[0], ref_mean)
    assert_close_to_reference(running[1], ref_var)


@pytest.mark.parametrize("mode", ["train"])   # the one mode the op has
def test_batch_norm_keeps_no_full_size_copy_for_its_backward(mode):
    # once the forward returns, the memory it still holds is its output plus
    # per-channel arrays; the input it centres again in the backward is
    # already held by the tape
    rng = np.random.default_rng(11)
    xt, gt, bt, bias = _tensors(rng.standard_normal((16, 8, 22, 1125)).astype(np.float32),
                                *rng.standard_normal((3, 8)).astype(np.float32))
    running = _running(8)
    tracemalloc.start()
    try:
        out = ops.batch_norm(xt, gt, bt, running=running, bias=bias)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= held < out.data.nbytes + 64 * 1024, \
        f"{held} bytes held for a {out.data.nbytes}-byte output"


SPATIAL = ConvSpec(22, 1, "valid", True, 8)   # BN1's electrode sum at the paper shape
TEMPORAL = ConvSpec(64, 1, "same", False, 8)   # the paper's longest inception kernel


def _bn1_inputs(dtype):
    """Paper-shape BN1 arrays: a (16, 1, 22, 1125) input and the (8, 1, 1,
    64) temporal taps whose convolution of it BN1 normalises, gamma, beta,
    the conv bias, the spatial weights and an output gradient."""
    rng = np.random.default_rng(12)
    x = 0.5 + 3.0 * rng.standard_normal((16, 1, 22, 1125))
    w = 0.2 * rng.standard_normal((8, 1, 1, 64))
    gamma, beta, bias = rng.uniform(0.5, 1.5, 8), rng.standard_normal(8), rng.standard_normal(8)
    s = 0.3 * rng.standard_normal((8, 1, 22, 1))
    g = rng.standard_normal((16, 8, 1, 1125))
    return [a.astype(dtype) for a in (x, w, gamma, beta, bias, s, g)]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
def test_batch_norm_through_the_sum_matches_the_norm_then_the_sum(dtype, tol):
    # BN1 applied through the spatial sum, with its moments from the input's
    # lag statistics, against the chain it replaces: the norm of the
    # temporal conv's output, then the spatial conv of that.  Outputs and
    # running statistics within tol of their largest value, gradients (the
    # input's too) within tol of the largest gradient; the bias gradient is
    # exactly zero
    *arrays, g = _bn1_inputs(dtype)
    results = []
    for through in (True, False):
        x, w, gamma, beta, bias, s = _tensors(*arrays)
        running = _running(8, dtype)
        u = conv_temporal(x, TEMPORAL, w)
        if through:
            out = ops.batch_norm(u, gamma, beta, running=running, bias=bias,
                                 through=(conv_temporal(u, SPATIAL, s), s, w,
                                          ops.lag_statistics(x, [64])))
        else:
            out = conv_temporal(ops.batch_norm(u, gamma, beta, running=running, bias=bias),
                                SPATIAL, s)
        _backward_with(out, g)
        results.append((out.data, [t.grad for t in (x, w, gamma, beta, bias, s)],
                        list(running)))
    (out, grads, stats), (ref_out, ref_grads, ref_stats) = results
    assert not grads[4].any()
    largest = max(np.abs(a).max() for a in ref_grads)
    for got, want in zip(grads, ref_grads):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= tol * largest
    for got, want in zip([out] + stats, [ref_out] + ref_stats):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_batch_norm_through_the_sum_writes_no_full_size_array():
    # the norm never reads the (16, 8, 22, 1125) temporal output u: once the
    # forward returns it holds its (16, 8, 1, 1125) output plus per-channel
    # and per-tap arrays, and on the way it never holds more; its backward
    # puts nothing into u's gradient and allocates no array of u's size
    x, *arrays, g = _bn1_inputs(np.float32)
    w, gamma, beta, bias, s = _tensors(*arrays)
    x = Tensor(x)
    u = conv_temporal(x, TEMPORAL, w)
    z = conv_temporal(u, SPATIAL, s)
    lags = ops.lag_statistics(x, [64])
    tracemalloc.start()
    try:
        out = ops.batch_norm(u, gamma, beta, running=_running(8), bias=bias,
                             through=(z, s, w, lags))
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out._backward_fn(g)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= held < out.data.nbytes + 64 * 1024, \
        f"{held} bytes held for a {out.data.nbytes}-byte output"
    assert peak < 2 * 1024 * 1024, f"peak {peak} bytes"
    assert u.grad is None
    assert z.grad is not None and w.grad is not None
    assert backward_peak - held < 2 * 1024 * 1024 < u.data.nbytes, \
        f"backward peak {backward_peak - held} bytes above the forward's"


def test_batch_norm_through_rejects_a_z_that_is_not_the_electrode_sum(rng):
    x, w, gamma, beta, s = _tensors(rng.standard_normal((4, 1, 3, 5)),
                                    rng.standard_normal((2, 1, 1, 3)), np.ones(2), np.zeros(2),
                                    rng.standard_normal((2, 1, 3, 1)))
    u = conv_temporal(x, ConvSpec(3, 1, "same", False, 2), w)
    z = conv_temporal(u, ConvSpec(3, 1, "valid", True, 2), s)
    lags = ops.lag_statistics(x, [3])
    with pytest.raises(ValueError, match="electrode sum"):
        ops.batch_norm(u, gamma, beta, through=(u, s, w, lags))
    with pytest.raises(ValueError, match="temporal convolution"):
        ops.batch_norm(u, gamma, beta, through=(z, s, s, lags))
    other = ops.lag_statistics(Tensor(rng.standard_normal((4, 1, 3, 6))), [3])
    with pytest.raises(ValueError, match="temporal convolution"):
        ops.batch_norm(u, gamma, beta, through=(z, s, w, other))
    with pytest.raises(ValueError, match="offsets"):
        ops.batch_norm(u, gamma, beta, through=(z, s, w, ops.lag_statistics(x, [1])))
    with pytest.raises(ValueError, match="one input filter"):
        ops.lag_statistics(u, [3])


@pytest.mark.parametrize("shape,extents", [
    ((3, 1, 4, 200), (16, 32, 64)),   # the paper's branches, sliced from one matrix
    ((2, 1, 3, 40), (16, 32, 64)),    # T shorter than the longest kernel
    ((4, 1, 2, 30), (5,)),            # odd extent
    ((4, 1, 2, 30), (6,)),            # even extent: one more offset after than before
    ((4, 1, 2, 30), (1, 4)),
])
def test_lag_statistics_match_the_sliding_windows(shape, extents):
    # from the batch's own products, and assembled from the products of a
    # larger set at a shuffled index batch, as training does
    rng = np.random.default_rng(13)
    n = shape[0]
    larger = 0.5 + 3.0 * rng.standard_normal((3 * n,) + shape[1:])
    idx = rng.permutation(3 * n)[:n]
    x = larger[idx]
    products = ops.lag_products(larger, extents)
    for lags in (ops.lag_statistics(Tensor(x), extents),
                 ops.lag_statistics(Tensor(x), extents, products[idx])):
        for k in extents:
            gram, sums = lags.window(k)
            ref_gram, ref_sums = lag_statistics_reference(x, k)
            assert np.abs(gram - ref_gram).max() <= 1e-12 * np.abs(ref_gram).max(), k
            assert np.abs(sums - ref_sums).max() <= 1e-12 * np.abs(ref_sums).max(), k


PAPER_EXTENTS = (16, 32, 64)


def _paper_trials(n, seed=17):
    return np.random.default_rng(seed).standard_normal((n, 1, 22, 1125), dtype=np.float32)


def test_lag_statistics_at_the_paper_shape_match_the_whole_batch_fft():
    # 16 of 48 paper-shape trials, assembled from the 48 trials' products,
    # against the previous formula: one FFT over the batch's padded rows
    larger = _paper_trials(48)
    idx = np.random.default_rng(3).permutation(48)[:16]
    lags = ops.lag_statistics(Tensor(larger[idx]), PAPER_EXTENTS,
                              ops.lag_products(larger, PAPER_EXTENTS)[idx])
    gram, sums, left = lag_statistics_fft_reference(larger[idx], PAPER_EXTENTS)
    assert lags.left == left
    assert np.abs(lags.gram - gram).max() <= 1e-12 * np.abs(gram).max()
    assert np.abs(lags.sums - sums).max() <= 1e-12 * np.abs(sums).max()


def test_lag_statistics_from_products_allocate_no_batch_size_array():
    # the previous form built a float64 copy of the padded batch, 3.3 MB at
    # this shape; the assembly reads only each row's first and last samples
    larger = _paper_trials(48)
    idx = np.random.default_rng(3).permutation(48)[:16]
    products = ops.lag_products(larger, PAPER_EXTENTS)[idx]
    x = Tensor(larger[idx])
    tracemalloc.start()
    try:
        ops.lag_statistics(x, PAPER_EXTENTS, products)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.data.nbytes, f"peak {peak} bytes for a {x.data.nbytes}-byte batch"


def test_lag_products_are_built_in_chunks():
    # 512 paper-shape trials: a float64 spectrum of all of them would be
    # about 100 MB, and an unchunked build peaks near 200 MB
    x = _paper_trials(512)
    tracemalloc.start()
    try:
        products = ops.lag_products(x, PAPER_EXTENTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert products.shape == (512, 65)
    assert peak < 25 * 1024 * 1024, f"peak {peak} bytes"
    np.testing.assert_allclose(products[:, -1], x.sum(axis=(1, 2, 3), dtype=np.float64),
                               rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("n, electrodes, samples", [(30, 22, 1125), (100, 8, 375)])
def test_lag_products_do_not_depend_on_the_block_size(monkeypatch, n, electrodes, samples):
    # the paper and desk shapes, over 4 and 36 trials per block: each trial's
    # row is the same bits whether its block holds the others or not
    x = np.random.default_rng(23).standard_normal((n, electrodes, samples), dtype=np.float32)
    _, width = ops._lag_extent(PAPER_EXTENTS)
    block = ops._CHUNK_BYTES // (8 * electrodes * ops._fft_length(samples + width - 1))
    assert 1 < block < n and n % block
    blocked = ops.lag_products(x, PAPER_EXTENTS)
    monkeypatch.setattr(ops, "_CHUNK_BYTES", 1 << 62)
    assert blocked.tobytes() == ops.lag_products(x, PAPER_EXTENTS).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lag_products_name_a_non_finite_sample_by_its_trial(bad):
    x = np.zeros((40, 3, 50), dtype=np.float32)
    x[37, 2, 10] = bad
    with pytest.raises(ValueError, match="non-finite sample at trial 37, electrode 2, sample 10"):
        ops.lag_products(x, [5])


def test_lag_statistics_reject_products_of_another_shape():
    x = Tensor(np.zeros((4, 1, 3, 50)))
    with pytest.raises(ValueError, match="lag products of shape"):
        ops.lag_statistics(x, [5], np.zeros((4, 5)))
    with pytest.raises(ValueError, match="lag products of shape"):
        ops.lag_statistics(x, [5], ops.lag_products(np.zeros((5, 3, 50)), [5]))


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


def _elu_inputs(dtype, shape=(3, 5, 40)):
    """Normal samples scaled by 4 in ``dtype``, led by the values where ELU
    bits can differ: signed zeros, NaN, infinities, subnormals, a saturating
    negative and the float32 extremes."""
    rng = np.random.default_rng(31)
    x = (rng.standard_normal(shape) * 4.0).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1e-40, -1e-40,
               -100.0, 3e38, -3e38]
    x.reshape(-1)[:len(special)] = special
    return x


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "out"])
def test_elu_values_are_the_bits_of_the_previous_implementation(dtype, layout):
    x = _elu_inputs(dtype)
    if layout == "strided":   # the samples of a wider row, as the causal stack passes them
        wide = np.full(x.shape[:-1] + (x.shape[-1] + 7,), 5.0, dtype)
        wide[..., :x.shape[-1]] = x
        x = wide[..., :x.shape[-1]]
    want = oracles._previous_elu(x)
    if layout == "out":
        out = np.full(x.shape, np.nan, dtype)
        got = ops.elu_values(x, out=out)
        assert got is out
    else:
        got = ops.elu_values(x)
    assert got.dtype == dtype and got.shape == x.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_elu_train_mode_is_bit_identical_to_reference_in_float64():
    x = _elu_inputs(np.float64, (4, 3, 2, 50))
    (xt,) = _tensors(x)
    out = ops.elu(xt)
    g = np.random.default_rng(32).standard_normal(out.shape)
    _backward_with(out, g)
    ref, gx = elu_reference(x, g)
    np.testing.assert_array_equal(_bits(out.data), _bits(ref))
    # the reference passes g through at a NaN input; the op's slope there is NaN
    nan = np.isnan(x)
    np.testing.assert_array_equal(_bits(xt.grad[~nan]), _bits(0.0 + gx[~nan]))
    assert np.isnan(xt.grad[nan]).all()


def test_no_clamp_in_the_hot_path_takes_a_numeric_literal():
    """numpy's minimum, maximum, fmin and fmax run 5-7x slower with a Python
    scalar operand than with an array one (18-19 us against 3.6 us for 64,512
    float32 values, one causal layer of 16 trials), so the ops and the model
    clamp against arrays.  explain.py is left out: its one clamp runs once per
    atlas on a small array."""
    clamps = {"minimum", "maximum", "fmin", "fmax", "clip"}
    src = os.path.dirname(ops.__file__)
    found = []
    for name in ("ops.py", "model.py"):
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy") and node.func.attr in clamps):
                continue
            for arg in node.args + [k.value for k in node.keywords]:
                if isinstance(arg, ast.UnaryOp):
                    arg = arg.operand
                if isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float)):
                    found.append(f"{name}:{node.lineno} np.{node.func.attr}")
    assert not found, (f"a numeric literal operand runs 5-7x slower than an array of its "
                       f"value: {', '.join(found)}")


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
                         Tensor(np.zeros(3), dtype=np.float64))
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
                         Tensor(beta, dtype=np.float64))
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), beta, atol=1e-12)


def test_batch_norm_updates_running_stats(rng):
    x = rng.standard_normal((16, 3, 1, 4)).astype(np.float64) + 2.0
    mean, var = _running(3, np.float64)
    ops.batch_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(3), dtype=np.float64),
                   Tensor(np.zeros(3), dtype=np.float64), running=(mean, var))
    expected_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, expected_mean, rtol=1e-10)
    expected_var = 0.99 * 1.0 + 0.01 * x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(var, expected_var, rtol=1e-10)


def test_batch_norm_rejects_singleton_batch(rng):
    x = Tensor(rng.standard_normal((1, 2, 1, 3)))
    with pytest.raises(ValueError):
        ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))


def test_batch_norm_train_gradients(rng):
    x = rng.standard_normal((5, 3, 1, 4))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)
    check_gradients(
        lambda ts: to_scalar(ops.batch_norm(ts[0], ts[1], ts[2])),
        [x, gamma, beta])


@pytest.mark.parametrize("mode", ["train"])   # the one mode the op has
def test_batch_norm_bias_matches_an_explicit_add(rng, mode):
    # the absorbed bias against the chain it replaces: a bias-add op, then the
    # norm; outputs, every gradient and the running statistics agree
    x = rng.standard_normal((5, 3, 2, 4)) + 1.0
    gamma, beta, bias = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3), rng.standard_normal(3)
    g = rng.standard_normal(x.shape)
    results = []
    for absorbed in (True, False):
        mean, var = _running(3, np.float64)
        mean[:] = [0.5, -0.5, 1.0]
        xt, gt, bt, ct = (Tensor(a, requires_grad=True, dtype=np.float64)
                          for a in (x, gamma, beta, bias))
        if absorbed:
            out = ops.batch_norm(xt, gt, bt, running=(mean, var), bias=ct)
        else:
            out = ops.batch_norm(bias_add(xt, ct), gt, bt, running=(mean, var))
        _backward_with(out, g)
        results.append([out.data, xt.grad, gt.grad, bt.grad, ct.grad, mean, var])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mode", ["train"])   # the one mode the op has
def test_batch_norm_bias_gradients(rng, mode):
    mean, var = _running(3, np.float64)
    mean[:] = rng.standard_normal(3)
    var[:] = rng.uniform(0.5, 2.0, 3)
    check_gradients(
        lambda ts: to_scalar(ops.batch_norm(ts[0], ts[1], ts[2], running=(mean, var),
                                            bias=ts[3]),
                             np.arange(60.0).reshape(5, 3, 1, 4)),
        [rng.standard_normal((5, 3, 1, 4)), rng.uniform(0.5, 1.5, 3),
         rng.standard_normal(3), rng.standard_normal(3)])


# float32 errors of the previous train-mode norm on the inputs of the test
# below (seed 10), as (output, x gradient, gamma gradient) by input mean
PREVIOUS_FLOAT32_BN_ERRORS = {
    0.5: (2.750e-7, 3.466e-7, 2.334e-6),
    10.0: (3.715e-7, 3.468e-7, 2.272e-6),
    100.0: (1.093e-6, 2.996e-7, 2.063e-6),
}


@pytest.mark.parametrize("mean", [0.5, 10.0, 100.0])
def test_batch_norm_float32_accuracy_on_offset_inputs(mean):
    # float32 output, x gradient and gamma gradient against a float64 run on
    # the same float32 values, each error relative to the largest value, within
    # twice the previous norm's (the one that kept xhat for its backward)
    rng = np.random.default_rng(10)
    x = (mean + 3.0 * rng.standard_normal((16, 8, 22, 1125))).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 8).astype(np.float32)
    beta = rng.standard_normal(8).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)

    def run(dtype):
        xt, gt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta))
        out = ops.batch_norm(xt, gt, bt)
        _backward_with(out, g.astype(dtype))
        return out.data, xt.grad, gt.grad

    got, want = run(np.float32), run(np.float64)
    for name, a, b, previous in zip(("output", "x gradient", "gamma gradient"), got, want,
                                    PREVIOUS_FLOAT32_BN_ERRORS[mean]):
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err <= 2.0 * previous, f"{name}: error {err:.2e}, previously {previous:.2e}"


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
    x = Tensor(np.arange(10.0).reshape(1, 1, 1, 10), requires_grad=True, dtype=np.float64)
    to_scalar(ops.avg_pool_time(x, 4), 1.0).backward()
    np.testing.assert_allclose(x.grad[..., :8], 0.25)
    np.testing.assert_allclose(x.grad[..., 8:], 0.0)


def test_avg_pool_gradients(rng):
    x = rng.standard_normal((2, 2, 1, 9))
    check_gradients(lambda ts: to_scalar(ops.avg_pool_time(ts[0], 3)), [x])


def test_dropout_zero_rate_is_identity_in_train(rng):
    x = rng.standard_normal((3, 4))
    out = ops.dropout(Tensor(x, dtype=np.float64), 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x)


def test_dropout_preserves_expectation(rng):
    # inverted scaling: E[dropout(x)] == x; 10^4 draws pin the mean within 5 sigma
    x = np.ones((100, 100))
    rate = 0.4
    out = ops.dropout(Tensor(x, dtype=np.float64), rate, np.random.default_rng(99))
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1.0 / (1.0 - rate), rtol=1e-12)
    p_hat = kept.size / x.size
    sigma = np.sqrt(rate * (1 - rate) / x.size)
    assert abs(p_hat - (1 - rate)) < 5 * sigma
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_train_requires_rng():
    with pytest.raises(ValueError):
        ops.dropout(Tensor(np.ones(3)), 0.4, None)


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        ops.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))


def test_dropout_gradient_routes_through_mask(rng):
    x = rng.standard_normal((4, 5))
    check_gradients(
        lambda ts: to_scalar(ops.dropout(ts[0], 0.4, np.random.default_rng(7))), [x])


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
    out = ops.softmax_rows(x)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-12)
    assert (out > 0).all()


def test_softmax_is_shift_invariant(rng):
    x = rng.standard_normal((2, 4))
    a = ops.softmax_rows(x)
    b = ops.softmax_rows(x + 1000.0)
    np.testing.assert_allclose(a, b, rtol=1e-9)


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
