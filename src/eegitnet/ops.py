"""Layer primitives: convolutions, batch norm, activations, pooling, losses.

All operate on :class:`~eegitnet.tensor.Tensor` and record gradients through
:func:`~eegitnet.tensor.from_op`.  Inputs to the convolution ops are 4-D
``(batch, filters, electrodes, time)``; time is always the last axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, accumulate, flip_time, from_op

PAD_MODES = ("same", "valid", "causal")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution: kernel extent, dilation, padding mode.

    ``kernel_extent`` is the length of the kernel along whichever axis it
    spans (time for temporal/causal kernels, electrodes for spatial ones);
    the axis itself is inferred from the weight shape.  Causal padding puts
    exactly ``(kernel_extent - 1) * dilation`` zeros on the past side.
    """

    kernel_extent: int
    dilation: int = 1
    padding: str = "same"
    depthwise: bool = False
    filter_count: int = 1

    def __post_init__(self):
        if self.kernel_extent < 1:
            raise ValueError("kernel_extent must be >= 1")
        if self.dilation < 1:
            raise ValueError("dilation must be >= 1")
        if self.padding not in PAD_MODES:
            raise ValueError(f"padding must be one of {PAD_MODES}, got {self.padding!r}")
        if self.filter_count < 1:
            raise ValueError("filter_count must be >= 1")


# ----------------------------------------------------------------------
# core 2-D convolution (correlation orientation, dilation on the time axis)

def conv2d(x, w, pad_h=(0, 0), pad_t=(0, 0), dilation=1, depthwise=False):
    """Full or depthwise 2-D convolution over (electrode, time) axes with
    dilation along time.

    ``x``: (N, C_in, H, W); ``w``: (C_out, C_in, KH, KW), or (C_in, 1, KH, KW)
    in depthwise mode.

    A full convolution is one GEMM per trial against that trial's im2col
    matrix, so at most one trial's window copy exists at a time.  A depthwise
    convolution is ``KH * KW`` shifted multiply-adds with no window copy.
    """
    c_in = x.shape[1]
    if depthwise:
        if w.shape[0] != c_in or w.shape[1] != 1:
            raise ValueError(
                f"depthwise weights must be ({c_in}, 1, kh, kw), got {tuple(w.shape)}")
    elif w.shape[1] != c_in:
        raise ValueError(
            f"filter axis mismatch: weights expect {w.shape[1]} input filters, input has {c_in}")

    xp = np.pad(x.data, ((0, 0), (0, 0), pad_h, pad_t))
    kh, kw = w.shape[2], w.shape[3]
    span_h, span_w = kh, dilation * (kw - 1) + 1
    if span_h > xp.shape[2]:
        raise ValueError(
            f"electrode axis too short: kernel spans {span_h}, padded input has {xp.shape[2]}")
    if span_w > xp.shape[3]:
        raise ValueError(
            f"time axis too short: dilated kernel spans {span_w}, padded input has {xp.shape[3]}")

    n = xp.shape[0]
    ho, wo = xp.shape[2] - span_h + 1, xp.shape[3] - span_w + 1
    w_data = w.data
    taps = [(a, b) for a in range(kh) for b in range(kw)]

    def shifted(a, b):
        """The padded input under kernel tap (a, b): (N, C_in, Ho, Wo)."""
        return xp[:, :, a:a + ho, b * dilation:b * dilation + wo]

    if depthwise:
        out = None
        for a, b in taps:
            term = shifted(a, b) * w_data[:, 0, a, b].reshape(1, -1, 1, 1)
            out = term if out is None else np.add(out, term, out=out)
    else:
        c_out = w.shape[0]
        w_mat = w_data.reshape(c_out, -1)
        # a view, not a copy: windows[i] is trial i's (C_in, kh, kw, Ho, Wo)
        # im2col matrix, its rows in the column order of w.reshape(C_out, -1)
        windows = sliding_window_view(xp, (kh, span_w), axis=(2, 3))[..., ::dilation]
        windows = windows.transpose(0, 1, 4, 5, 2, 3)
        cols = np.empty(windows.shape[1:], dtype=xp.dtype)
        out = np.empty((n, c_out, ho, wo), dtype=np.result_type(xp, w_data))
        for i in range(n):
            np.copyto(cols, windows[i])
            np.matmul(w_mat, cols.reshape(-1, ho * wo), out=out[i].reshape(c_out, -1))

    def backward(g):
        if w.requires_grad:
            if depthwise:
                gw = np.empty_like(w_data)
                for a, b in taps:
                    gw[:, 0, a, b] = np.einsum("ncij,ncij->c", g, shifted(a, b))
            else:
                gw_t = np.zeros((w_mat.shape[1], c_out), dtype=g.dtype)
                cols = np.empty(windows.shape[1:], dtype=xp.dtype)
                for i in range(n):
                    np.copyto(cols, windows[i])
                    gw_t += cols.reshape(-1, ho * wo) @ g[i].reshape(c_out, -1).T
                gw = gw_t.T.reshape(w.shape)
            accumulate(w, gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for a, b in taps:
                if depthwise:
                    contrib = g * w_data[:, 0, a, b].reshape(1, -1, 1, 1)
                else:
                    contrib = np.einsum("noij,oc->ncij", g, w_data[:, :, a, b], optimize=True)
                gxp[:, :, a:a + ho, b * dilation:b * dilation + wo] += contrib
            gx = gxp[:, :, pad_h[0]:pad_h[0] + x.shape[2], pad_t[0]:pad_t[0] + x.shape[3]]
            accumulate(x, np.ascontiguousarray(gx))

    return from_op(out, (x, w), backward)


def conv_temporal(x, spec: ConvSpec, weights):
    """Convolution per a :class:`ConvSpec`.

    Weight layout is ``(filters_out, filters_in_per_group, k_elec, k_time)``.
    For ``same``/``valid`` padding the kernel is applied in correlation
    orientation; for ``causal`` padding the kernel is lag-ordered
    (``weights[..., j]`` multiplies the input ``j * dilation`` steps in the
    past) and only leading zeros are inserted, so output[t] never sees
    input[t' > t].
    """
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D (batch, filters, electrodes, time), got {x.ndim}-D")
    if weights.ndim != 4:
        raise ValueError(f"weights must be 4-D, got {weights.ndim}-D")
    kh, kw = weights.shape[2], weights.shape[3]
    if kh > 1 and kw > 1:
        raise ValueError("kernels span either the electrode axis or the time axis, not both")
    if spec.kernel_extent != max(kh, kw):
        raise ValueError(
            f"kernel axis mismatch: spec.kernel_extent={spec.kernel_extent} but weights span {max(kh, kw)}")
    if spec.depthwise:
        if spec.filter_count != x.shape[1]:
            raise ValueError(
                f"filter axis mismatch: depthwise over {x.shape[1]} filters, "
                f"spec declares {spec.filter_count}")
    elif weights.shape[0] != spec.filter_count:
        raise ValueError(
            f"filter axis mismatch: weights produce {weights.shape[0]} filters, "
            f"spec declares {spec.filter_count}")

    if spec.padding == "same":
        need_h, need_w = kh - 1, spec.dilation * (kw - 1)
        pad_h = (need_h // 2, need_h - need_h // 2)
        pad_t = (need_w // 2, need_w - need_w // 2)
    elif spec.padding == "causal":
        if kh != 1:
            raise ValueError("causal padding applies to time kernels only (electrode extent must be 1)")
        pad_h = (0, 0)
        pad_t = (spec.dilation * (kw - 1), 0)
        weights = flip_time(weights)  # lag order -> correlation order
    else:  # valid
        pad_h = pad_t = (0, 0)
        if kw > 1 and spec.dilation * (kw - 1) >= x.shape[3]:
            raise ValueError(
                f"time axis too short for valid padding: dilation*(T-1)="
                f"{spec.dilation * (kw - 1)} >= {x.shape[3]} samples")
    return conv2d(x, weights, pad_h=pad_h, pad_t=pad_t, dilation=spec.dilation,
                  depthwise=spec.depthwise)


# ----------------------------------------------------------------------
# batch normalization

class RunningStats:
    """Exponential-moving-average mean/variance buffers for one norm layer."""

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)

    def update(self, mean, var, momentum):
        self.mean[...] = momentum * self.mean + (1.0 - momentum) * mean
        self.var[...] = momentum * self.var + (1.0 - momentum) * var


def _per_channel(v, ndim):
    return v.reshape((1, -1) + (1,) * (ndim - 2))


def _channel_sum(a, b=None):
    """Per-channel (axis 1) sum of ``a``, or of ``a * b``, over all other axes,
    without an elementwise temporary."""
    a3 = a.reshape(a.shape[0], a.shape[1], -1)
    if b is None:
        return np.einsum("ncs->c", a3)
    return np.einsum("ncs,ncs->c", a3, b.reshape(a3.shape))


def batch_norm(x, gamma, beta, eps=1e-3, mode="train", running=None, momentum=0.99):
    """Normalize per channel (axis 1) over all other axes.

    Train mode uses biased batch moments and, when ``running`` is given,
    folds them into the running buffers.  Infer mode is a per-channel affine
    map using the running statistics.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "infer":
        if running is None:
            raise ValueError("running statistics are required in infer mode")
        axes = tuple(i for i in range(x.ndim) if i != 1)
        inv = 1.0 / np.sqrt(running.var.astype(x.dtype) + eps)
        centered = x.data - _per_channel(running.mean.astype(x.dtype), x.ndim)
        scale = gamma.data * inv
        out = _per_channel(scale, x.ndim) * centered + _per_channel(beta.data, x.ndim)

        def backward(g):
            accumulate(x, g * _per_channel(scale, x.ndim))
            if gamma.requires_grad:
                accumulate(gamma, (g * centered).sum(axis=axes) * inv)
            if beta.requires_grad:
                accumulate(beta, g.sum(axis=axes))

        return from_op(out, (x, gamma, beta), backward)

    if x.shape[0] == 1:
        raise ValueError("batch of size 1 in train mode: batch variance is undefined up to eps")
    m = x.size // x.shape[1]
    mu = _channel_sum(x.data) / m
    centered = x.data - _per_channel(mu, x.ndim)
    var = _channel_sum(centered, centered) / m
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= _per_channel(inv, x.ndim)
    out = _per_channel(gamma.data, x.ndim) * xhat
    out += _per_channel(beta.data, x.ndim)
    if running is not None:
        running.update(mu, var, momentum)

    def backward(g):
        g_sum = _channel_sum(g)              # the beta gradient
        g_xhat_sum = _channel_sum(g, xhat)   # the gamma gradient
        if gamma.requires_grad:
            accumulate(gamma, g_xhat_sum)
        if beta.requires_grad:
            accumulate(beta, g_sum)
        if x.requires_grad:
            # gx = gamma * inv * (g - mean(g) - xhat * mean(g * xhat)): both
            # means come from the gamma and beta gradient sums above
            gx = xhat * _per_channel(g_xhat_sum / m, x.ndim)
            gx += _per_channel(g_sum / m, x.ndim)
            np.subtract(g, gx, out=gx)
            gx *= _per_channel(gamma.data * inv, x.ndim)
            accumulate(x, gx.astype(x.dtype, copy=False))

    return from_op(out, (x, gamma, beta), backward)


# ----------------------------------------------------------------------
# activations, pooling, dropout, dense head

def elu(x):
    """Exponential linear unit with alpha = 1."""
    out = np.minimum(x.data, 0)
    np.expm1(out, out=out)
    np.maximum(out, x.data, out=out)

    def backward(g):
        gx = np.minimum(out, 0)
        gx += 1.0
        gx *= g
        accumulate(x, gx)

    return from_op(out, (x,), backward)


def avg_pool_time(x, pool):
    """Non-overlapping mean pooling along the last axis, floor semantics."""
    if pool < 1:
        raise ValueError("pool must be >= 1")
    s = x.shape[-1]
    s_out = s // pool
    if s_out < 1:
        raise ValueError(f"pool {pool} exceeds time extent {s}")
    lead = x.shape[:-1]
    trimmed = x.data[..., :s_out * pool]
    out = trimmed.reshape(lead + (s_out, pool)).mean(axis=-1)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., :s_out * pool] = np.repeat(g / pool, pool, axis=-1)
        accumulate(x, gx)

    return from_op(out, (x,), backward)


def dropout(x, rate, mode, rng=None):
    """Inverted dropout: train mode zeroes elements w.p. ``rate`` and scales
    survivors by 1/(1-rate); infer mode is the identity."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "infer" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) * scale
    out = x.data * mask

    def backward(g):
        accumulate(x, g * mask)

    return from_op(out, (x,), backward)


def dense(x, w, b):
    """Affine map on (N, D) rows: x @ w + b."""
    if x.ndim != 2:
        raise ValueError(f"dense expects a flattened (N, D) input, got {x.ndim}-D")
    out = x.data @ w.data + b.data

    def backward(g):
        accumulate(x, g @ w.data.T)
        accumulate(w, x.data.T @ g)
        accumulate(b, g.sum(axis=0))

    return from_op(out, (x, w, b), backward)


def flatten(x):
    """Collapse all axes after the batch axis, channel-major then time."""
    n = x.shape[0]
    out = x.data.reshape(n, -1)

    def backward(g):
        accumulate(x, g.reshape(x.shape))

    return from_op(out, (x,), backward)


def softmax_rows(x):
    """Row-wise softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        accumulate(x, out * (g - dot))

    return from_op(out, (x,), backward)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy of softmax(logits) against integer labels.

    Fused for numerical stability; gradient is (softmax - onehot) / N.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must be shape ({n},), got {labels.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    picked = shifted[np.arange(n), labels] - np.log(e.sum(axis=-1))
    out = np.asarray(-picked.mean(), dtype=logits.dtype)

    def backward(g):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        accumulate(logits, (float(g) / n) * gl)

    return from_op(out, (logits,), backward)
