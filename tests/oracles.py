"""Shared test oracles.

``check_gradients`` compares every reverse-mode gradient against central
finite differences on a float64 graph; ``to_scalar`` is the reduction those
graphs end in.  ``conv_oracle`` is a direct summation reference for the
convolution layer, deliberately written as plain loops so it shares no code
with the implementation under test.
``window_conv_reference``, ``batch_norm_train_reference`` and
``elu_reference`` are straightforward whole-batch versions of those layers,
forward and backward, kept as references for the kernels in ``ops``.
``graph_infer_logits`` and ``graph_infer_tc`` run the model in infer mode
as a graph of ``ops`` layers, unfolded, as the reference for the model's
own plain-numpy inference.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from eegitnet.ops import (ConvSpec, avg_pool_time, batch_norm, conv_temporal, dense,
                          elu, flatten)
from eegitnet.tensor import Tensor, accumulate, concat_channels, from_op, no_grad

FD_STEP = 1e-5
FD_TOL = 1e-3


def to_scalar(t, weights=None):
    """``sum(t * t)``, or ``sum(t * weights)`` for fixed ``weights``, as a
    recorded scalar.  The engine has no reduction op of its own, so the
    gradient checks end their graphs here."""
    w = t.data if weights is None else np.asarray(weights, dtype=t.dtype)

    def backward(g):
        scale = 2.0 * t.data if weights is None else w
        accumulate(t, np.broadcast_to(g * scale, t.shape))

    return from_op(np.asarray(np.sum(t.data * w), dtype=t.dtype), (t,), backward)


def _scalar_value(graph_fn, arrays):
    with no_grad():
        out = graph_fn([Tensor(a, dtype=np.float64) for a in arrays])
    return float(out.data.reshape(()))


def numeric_grad(graph_fn, arrays, index, h=FD_STEP):
    """Central-difference gradient of the scalar graph w.r.t. arrays[index]."""
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(work[index])
    flat_in = work[index].reshape(-1)
    flat_out = grad.reshape(-1)
    for i in range(flat_in.size):
        orig = flat_in[i]
        flat_in[i] = orig + h
        hi = _scalar_value(graph_fn, work)
        flat_in[i] = orig - h
        lo = _scalar_value(graph_fn, work)
        flat_in[i] = orig
        flat_out[i] = (hi - lo) / (2.0 * h)
    return grad


def check_gradients(graph_fn, arrays, tol=FD_TOL, h=FD_STEP):
    """Assert autodiff and finite-difference gradients agree elementwise.

    ``graph_fn`` maps a list of Tensors to a scalar Tensor and must be
    deterministic (re-seed any randomness inside).  Relative error uses
    max(|a|, |b|, 1e-4) as the scale so zero gradients compare absolutely.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    leaves = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    out = graph_fn(leaves)
    assert out.data.size == 1, "gradient check target must be scalar"
    out.backward()
    worst = 0.0
    for k, leaf in enumerate(leaves):
        fd = numeric_grad(graph_fn, arrays, k, h)
        ad = leaf.grad if leaf.grad is not None else np.zeros_like(fd)
        scale = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-4)
        rel = np.abs(ad - fd) / scale
        worst = max(worst, float(rel.max()))
        assert rel.max() < tol, (
            f"input {k}: max rel err {rel.max():.3e} at {np.unravel_index(rel.argmax(), rel.shape)}")
    return worst


def conv_oracle(x, w, pad_elec=(0, 0), pad_time=(0, 0), dilation=1, depthwise=False):
    """Reference convolution: explicit loops, correlation order, zero padding."""
    xp = np.pad(np.asarray(x, dtype=np.float64),
                ((0, 0), (0, 0), pad_elec, pad_time))
    n, c, h, t = xp.shape
    _, _, kh, kw = w.shape
    ho = h - (kh - 1)
    to = t - (kw - 1) * dilation
    if depthwise:
        out = np.zeros((n, c, ho, to))
        for ni in range(n):
            for ci in range(c):
                for i in range(ho):
                    for j in range(to):
                        s = 0.0
                        for a in range(kh):
                            for b in range(kw):
                                s += w[ci, 0, a, b] * xp[ni, ci, i + a, j + b * dilation]
                        out[ni, ci, i, j] = s
        return out
    f = w.shape[0]
    out = np.zeros((n, f, ho, to))
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(to):
                    s = 0.0
                    for ci in range(c):
                        for a in range(kh):
                            for b in range(kw):
                                s += w[fi, ci, a, b] * xp[ni, ci, i + a, j + b * dilation]
                    out[ni, fi, i, j] = s
    return out


def _windows(xp, kh, kw, dilation):
    span = dilation * (kw - 1) + 1
    win = sliding_window_view(xp, (kh, span), axis=(2, 3))
    if dilation > 1:
        win = win[..., ::dilation]
    return win  # (N, C, Ho, Wo, kh, kw)


def window_conv_reference(x, w, g, pad_h=(0, 0), pad_t=(0, 0), dilation=1, depthwise=False):
    """Whole-batch sliding-window convolution: ``(out, grad_x, grad_w)`` for
    output gradient ``g``, with the same arguments as ``ops.conv2d``."""
    xp = np.pad(x, ((0, 0), (0, 0), pad_h, pad_t))
    kh, kw = w.shape[2], w.shape[3]
    win = _windows(xp, kh, kw, dilation)
    if depthwise:
        out = np.einsum("ncijab,cab->ncij", win, w[:, 0], optimize=True)
        gw = np.einsum("ncij,ncijab->cab", g, win, optimize=True)[:, None]
    else:
        out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))
        out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
        gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
    ho, wo = out.shape[2], out.shape[3]
    gxp = np.zeros_like(xp)
    if depthwise and kw == 1 and ho == 1:
        gxp[:, :, :kh, :wo] += np.einsum("ncj,ca->ncaj", g[:, :, 0, :], w[:, 0, :, 0],
                                         optimize=True)
    else:
        for a in range(kh):
            for b in range(kw):
                if depthwise:
                    contrib = g * w[:, 0, a, b].reshape(1, -1, 1, 1)
                else:
                    contrib = np.einsum("noij,oc->ncij", g, w[:, :, a, b], optimize=True)
                off = b * dilation
                gxp[:, :, a:a + ho, off:off + wo] += contrib
    gx = gxp[:, :, pad_h[0]:pad_h[0] + x.shape[2], pad_t[0]:pad_t[0] + x.shape[3]]
    return out, np.ascontiguousarray(gx), gw


def batch_norm_train_reference(x, gamma, beta, g, eps=1e-3):
    """Train-mode batch norm over every axis but 1: ``(out, grad_x,
    grad_gamma, grad_beta, batch_mean, batch_var)`` for output gradient ``g``."""
    axes = tuple(i for i in range(x.ndim) if i != 1)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    m = x.size // x.shape[1]
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu.reshape(shape)) * inv.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    ggamma = (g * xhat).sum(axis=axes)
    gbeta = g.sum(axis=axes)
    gxhat = g * gamma.reshape(shape)
    s1 = gxhat.sum(axis=axes)
    s2 = (gxhat * xhat).sum(axis=axes)
    gx = (gxhat - (s1 / m).reshape(shape) - xhat * (s2 / m).reshape(shape)) * inv.reshape(shape)
    return out, gx.astype(x.dtype, copy=False), ggamma, gbeta, mu, var


def elu_reference(x, g):
    """ELU (alpha = 1) with masked ``expm1``: ``(out, grad_x)``."""
    neg = x < 0
    out = x.copy()
    np.expm1(x, out=out, where=neg)
    gx = g.copy()
    np.multiply(g, out + 1.0, out=gx, where=neg)
    return out, gx


def graph_infer_logits(model, x):
    """Infer-mode logits of (N, 1, electrodes, time) trials through the
    ``ops`` layers, every batch norm applied on its own, as a tensor."""
    cfg, p = model.config, model.params
    x = Tensor(x)
    branch_outs = []
    for i, (f, k) in enumerate(cfg.inception_branches):
        t = conv_temporal(x, ConvSpec(k, 1, "same", False, f), p[f"branch{i}.temporal.w"])
        t = t + p[f"branch{i}.temporal.b"].reshape((1, f, 1, 1))
        t = batch_norm(t, p[f"branch{i}.bn1.gamma"], p[f"branch{i}.bn1.beta"],
                       mode="infer", running=model.buffers[f"branch{i}.bn1"])
        t = conv_temporal(t, ConvSpec(cfg.n_channels, 1, "valid", True, f),
                          p[f"branch{i}.spatial.w"])
        t = batch_norm(t, p[f"branch{i}.bn2.gamma"], p[f"branch{i}.bn2.beta"],
                       mode="infer", running=model.buffers[f"branch{i}.bn2"])
        branch_outs.append(t)
    y = avg_pool_time(elu(concat_channels(branch_outs)), cfg.pool1)
    y = graph_infer_tc(model, y)
    y = conv_temporal(y, ConvSpec(1, 1, "same", False, cfg.dr_filters), p["dr.w"])
    y = y + p["dr.b"].reshape((1, cfg.dr_filters, 1, 1))
    y = batch_norm(y, p["dr.bn.gamma"], p["dr.bn.beta"], mode="infer",
                   running=model.buffers["dr.bn"])
    y = flatten(avg_pool_time(elu(y), cfg.pool2))
    return dense(y, p["head.w"], p["head.b"])


def graph_infer_tc(model, y):
    """Infer-mode causal stack on a (N, width, 1, time) tensor through the
    ``ops`` layers."""
    cfg, p = model.config, model.params
    for j in range(cfg.tc_blocks):
        skip = y
        spec = ConvSpec(cfg.tc_kernel, cfg.dilation_base ** j, "causal", True,
                        cfg.branch_filters)
        for l in range(cfg.tc_layers_per_block):
            y = conv_temporal(y, spec, p[f"tc{j}.conv{l}.w"])
            y = elu(batch_norm(y, p[f"tc{j}.bn{l}.gamma"], p[f"tc{j}.bn{l}.beta"],
                               mode="infer", running=model.buffers[f"tc{j}.bn{l}"]))
        y = elu(y + skip)
    return y

