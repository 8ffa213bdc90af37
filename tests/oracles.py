"""Shared test oracles.

``check_gradients`` compares every reverse-mode gradient against central
finite differences on a float64 graph; ``to_scalar`` is the reduction those
graphs end in.  ``conv_oracle`` is a direct summation reference for the
convolution layer, deliberately written as plain loops so it shares no code
with the implementation under test.
``window_conv_reference``, ``batch_norm_train_reference`` and
``elu_reference`` are straightforward whole-batch versions of those layers,
forward and backward, kept as references for the kernels in ``ops``;
``window_conv2d``, ``window_conv_temporal``, ``mean_pool_time``,
``bias_add_batch_norm`` and ``float_mask_dropout`` wrap those references,
and the previous pooling and dropout, as recorded ops, so a whole training
step can run on them; ``bias_add_batch_norm`` also runs the previous BN1
chain (norm, then the spatial convolution) in place of
``batch_norm(..., through=(z, s, w, lags))``.  ``bias_add`` is the
broadcast per-channel add that the engine does not have.
``lag_statistics_reference`` sums the lag Gram matrix and window sums of
``ops.lag_statistics`` directly over sliding windows, and
``lag_statistics_fft_reference`` is the previous whole-batch form of that
op: one float64 FFT over a zero-padded copy of every row.
``graph_infer_logits`` and ``graph_infer_tc`` run the model in infer mode
as a graph of ``ops`` layers, unfolded, each batch norm applied on its own
by ``infer_norm``, as the reference for the model's own plain-numpy
inference.  ``previous_infer_features`` and ``previous_infer_tc`` are the
previous form of that inference on a folded plan: a ``band_conv`` per layer,
each padding a fresh copy of its input, and a new array for every shift,
ELU and pooling.
``synth_generate_reference`` and ``standardize_reference`` are the data
path's previous whole-set forms: the generator's trials summed into one
float64 array and cast to float32 once, and the standardisation
statistics and transform taken on a float64 copy of every set.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from eegitnet.data import _band_noise, window_samples
from eegitnet.ops import ConvSpec, avg_pool_time, band_conv, conv_temporal, dense, elu, flatten
from eegitnet.tensor import Tensor, accumulate, add, concat_channels, from_op, no_grad

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


def _window_conv(x, w, pad_t, dilation, depthwise):
    """Padded input, its sliding windows and the convolution output."""
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), pad_t))
    kh, kw = w.shape[2], w.shape[3]
    win = _windows(xp, kh, kw, dilation)
    if depthwise:
        out = np.einsum("ncijab,cab->ncij", win, w[:, 0], optimize=True)
    else:
        out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))
        out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    return xp, win, out


def window_conv_reference(x, w, g, pad_t=(0, 0), dilation=1, depthwise=False):
    """Whole-batch sliding-window convolution: ``(out, grad_x, grad_w)`` for
    output gradient ``g``: the kernel ``w`` in correlation order, applied
    after ``pad_t`` zeros on either side of time."""
    xp, win, out = _window_conv(x, w, pad_t, dilation, depthwise)
    kh, kw = w.shape[2], w.shape[3]
    if depthwise:
        gw = np.einsum("ncij,ncijab->cab", g, win, optimize=True)[:, None]
    else:
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
    gx = gxp[..., pad_t[0]:pad_t[0] + x.shape[3]]
    return out, np.ascontiguousarray(gx), gw


def window_conv2d(x, w, pad_t=(0, 0), dilation=1, depthwise=False):
    """:func:`window_conv_reference` recorded through ``from_op``: the
    convolution of tensors ``x`` and ``w`` as one op."""
    out = _window_conv(x.data, w.data, pad_t, dilation, depthwise)[2]

    def backward(g):
        _, gx, gw = window_conv_reference(x.data, w.data, g, pad_t, dilation, depthwise)
        accumulate(x, gx)
        accumulate(w, gw)

    return from_op(out, (x, w), backward)


def window_conv_temporal(x, spec, w):
    """``ops.conv_temporal`` computed by :func:`window_conv_reference` and
    recorded through ``from_op``: a drop-in reference for the convolution
    op.  The padding comes from ``spec``; a causal kernel is lag-ordered, so
    it runs reversed, and its gradient is reversed back."""
    reach = spec.dilation * (w.shape[3] - 1)
    pad_t = {"same": (reach // 2, reach - reach // 2), "valid": (0, 0),
             "causal": (reach, 0)}[spec.padding]
    causal = spec.padding == "causal"
    taps = w.data[..., ::-1] if causal else w.data
    out = _window_conv(x.data, taps, pad_t, spec.dilation, spec.depthwise)[2]

    def backward(g):
        _, gx, gw = window_conv_reference(x.data, taps, g, pad_t, spec.dilation,
                                          spec.depthwise)
        accumulate(x, gx)
        accumulate(w, gw[..., ::-1] if causal else gw)

    return from_op(out, (x, w), backward)


def bias_add(x, b):
    """``x`` plus the per-channel (axis 1) vector ``b``, broadcast over every
    other axis, as a recorded op."""
    out = x.data + b.data.reshape((1, -1) + (1,) * (x.ndim - 2))

    def backward(g):
        accumulate(x, g)
        accumulate(b, g.sum(axis=tuple(i for i in range(g.ndim) if i != 1)))

    return from_op(out, (x, b), backward)


def mean_pool_time(x, pool):
    """``ops.avg_pool_time`` as a ``mean`` over a (time, pool) reshape, with
    an ``np.repeat`` backward."""
    s_out = x.shape[-1] // pool
    trimmed = x.data[..., :s_out * pool]
    out = trimmed.reshape(x.shape[:-1] + (s_out, pool)).mean(axis=-1)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., :s_out * pool] = np.repeat(g / pool, pool, axis=-1)
        accumulate(x, gx)

    return from_op(out, (x,), backward)


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


def bias_add_batch_norm(x, gamma, beta, eps=1e-3, running=None, momentum=0.99, bias=None,
                        through=None):
    """Train-mode ``ops.batch_norm`` as a chain of recorded ops: the bias
    added by its own op, then :func:`batch_norm_train_reference`, then, with
    ``through=(z, s, w, lags)``, the depthwise electrode sum of the
    normalised input with weights ``s`` by :func:`window_conv2d` (``z``,
    ``w`` and ``lags`` are left unused)."""
    if through is not None:
        out = bias_add_batch_norm(x, gamma, beta, eps, running, momentum, bias)
        return window_conv2d(out, through[1], depthwise=True)
    if bias is not None:
        x = bias_add(x, bias)
    out, _, _, _, mu, var = batch_norm_train_reference(x.data, gamma.data, beta.data,
                                                       np.zeros_like(x.data), eps)
    if running is not None:
        for buf, value in zip(running, (mu, var)):   # exponential moving averages
            buf[...] = momentum * buf + (1.0 - momentum) * value

    def backward(g):
        _, gx, ggamma, gbeta, _, _ = batch_norm_train_reference(x.data, gamma.data,
                                                                beta.data, g, eps)
        accumulate(x, gx)
        accumulate(gamma, ggamma)
        accumulate(beta, gbeta)

    return from_op(out, (x, gamma, beta), backward)


def lag_statistics_reference(x, k):
    """``(gram, sums)`` of the k row windows that a "same" k-tap kernel
    reads from the (N, 1, H, T) array ``x``, summed directly over sliding
    windows in float64: window i is a row after ``(k - 1) // 2`` zeros,
    from sample i on."""
    n, _, h, t = x.shape
    left = (k - 1) // 2
    rows = np.pad(np.asarray(x, dtype=np.float64).reshape(n * h, t),
                  ((0, 0), (left, k - 1 - left)))
    win = sliding_window_view(rows, t, axis=1)   # (rows, k, T)
    return np.einsum("rit,rjt->ij", win, win), win.sum(axis=(0, 2))


def lag_statistics_fft_reference(x, extents):
    """``(gram, sums, left)`` of the (N, 1, H, T) array ``x`` for "same"
    kernels of the given extents, as the previous ``ops.lag_statistics``
    built them: the lag products of the whole batch from one power spectrum
    of a zero-padded float64 copy ``xp`` of its rows, less the edge terms of
    each window, and window sums from a cumulative sum along ``xp``."""
    n, _, h, t = x.shape
    left = max((k - 1) // 2 for k in extents)
    width = left + max(k - 1 - (k - 1) // 2 for k in extents) + 1
    xp = np.zeros((n * h, t + width))
    xp[:, left:left + t] = x.reshape(n * h, t)
    nfft = t + width - 1   # no lag below width wraps around
    spectrum = np.fft.rfft(xp[:, left:left + t], nfft)
    power = np.einsum("rf,rf->f", spectrum.real, spectrum.real)
    power += np.einsum("rf,rf->f", spectrum.imag, spectrum.imag)
    lags = np.fft.irfft(power, nfft)[:width]
    offsets = np.arange(width)
    gram = lags[np.abs(offsets[:, None] - offsets)]
    head, tail = xp[:, :width], xp[:, t:]
    head_gram, tail_gram = head.T @ head, tail.T @ tail
    before, after = np.zeros((width, width)), np.zeros((width + 1, width + 1))
    for i in range(width - 1):
        before[i + 1, 1:] = before[i, :-1] + head_gram[i, :-1]
    for i in range(width - 1, -1, -1):
        after[i, :width] = tail_gram[i] + after[i + 1, 1:]
    gram -= before
    gram -= after[:width, :width]
    prefix = np.concatenate(([0.0], np.cumsum(xp.sum(axis=0))))
    return gram, prefix[t:t + width] - prefix[:width], left


def float_mask_dropout(x, rate, rng):
    """``ops.dropout`` with the mask cast to floats and scaled before the
    product, from the same uniform draw."""
    if rate == 0.0:
        return x
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) * scale
    out = x.data * mask

    def backward(g):
        accumulate(x, g * mask)

    return from_op(out, (x,), backward)


def elu_reference(x, g):
    """ELU (alpha = 1) with masked ``expm1``: ``(out, grad_x)``."""
    neg = x < 0
    out = x.copy()
    np.expm1(x, out=out, where=neg)
    gx = g.copy()
    np.multiply(g, out + 1.0, out=gx, where=neg)
    return out, gx


def infer_norm(x, model, name, eps=1e-3):
    """Infer-mode batch norm ``name`` of ``model`` applied to a tensor by its
    running statistics, in the input's dtype: ``(x - running_mean) * gamma /
    sqrt(running_var + eps) + beta``, as a tensor with no parents."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    mean, var = model.buffers[name + ".running_mean"], model.buffers[name + ".running_var"]
    gamma, beta = model.params[name + ".gamma"], model.params[name + ".beta"]
    out = x.data - mean.astype(x.dtype).reshape(shape)
    out *= (gamma.data * (1.0 / np.sqrt(var.astype(x.dtype) + eps))).reshape(shape)
    out += beta.data.reshape(shape)
    return Tensor(out)


def graph_infer_logits(model, x):
    """Infer-mode logits of (N, 1, electrodes, time) trials through the
    ``ops`` layers, every batch norm applied on its own, as a tensor."""
    cfg, p = model.config, model.params
    x = Tensor(x)
    branch_outs = []
    for i, (f, k) in enumerate(cfg.inception_branches):
        t = conv_temporal(x, ConvSpec(k, 1, "same", False, f), p[f"branch{i}.temporal.w"])
        t = bias_add(t, p[f"branch{i}.temporal.b"])
        t = infer_norm(t, model, f"branch{i}.bn1")
        t = conv_temporal(t, ConvSpec(cfg.n_channels, 1, "valid", True, f),
                          p[f"branch{i}.spatial.w"])
        t = infer_norm(t, model, f"branch{i}.bn2")
        branch_outs.append(t)
    y = avg_pool_time(elu(concat_channels(branch_outs)), cfg.pool1)
    y = graph_infer_tc(model, y)
    y = conv_temporal(y, ConvSpec(1, 1, "same", False, cfg.dr_filters), p["dr.w"])
    y = bias_add(y, p["dr.b"])
    y = infer_norm(y, model, "dr.bn")
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
            y = elu(infer_norm(y, model, f"tc{j}.bn{l}"))
        y = elu(add(y, skip))
    return y


def _previous_elu(a):
    out = np.minimum(a, 0)
    np.expm1(out, out=out)
    return np.maximum(out, a, out=out)


def _previous_pool(a, pool):
    end = a.shape[-1] // pool * pool
    out = a[..., 0:end:pool].copy()
    for j in range(1, pool):
        out += a[..., j:end:pool]
    out /= pool
    return out


def previous_infer_features(model, x, plan):
    """The flattened features the head reads, for (n, electrodes, time)
    trials in the compute dtype of the folded ``plan``, by the previous
    ``ITNetModel._infer_features``."""
    cfg = model.config
    z = np.matmul(plan.spatial, x)
    branch_outs = []
    start = 0
    for (f, k), ((_, band), const) in zip(cfg.inception_branches, plan.branches):
        t = band_conv(z[:, start:start + f, None], band, (k - 1) // 2)
        branch_outs.append(t[:, :, 0] + const)
        start += f
    y = _previous_pool(_previous_elu(np.concatenate(branch_outs, axis=1)), cfg.pool1)
    y = previous_infer_tc(model, y, plan.causal)
    w, b = plan.dr
    y = _previous_elu(np.matmul(w, y) + b)
    return _previous_pool(y, cfg.pool2).reshape(len(y), -1)


def previous_infer_tc(model, y, causal):
    """The infer-mode causal stack on (N, width, time) features in the
    compute dtype, with the folded ``causal`` layers of a plan, by the
    previous ``ITNetModel._infer_tc``."""
    cfg = model.config
    for j, (_, layers) in enumerate(causal):
        skip = y
        left = (cfg.tc_kernel - 1) * cfg.dilation_base ** j
        for band, shift in layers:
            y = band_conv(y[:, :, None], band, left)[:, :, 0]
            y = _previous_elu(y + shift)
        y = _previous_elu(y + skip)
    return y



def synth_generate_reference(spec):
    """``(trials, labels)`` of ``data.synth_generate(spec)``, the trials
    summed into one float64 (N, C, T) array and cast to float32 once."""
    rng = np.random.default_rng(spec.seed)
    n_samples = window_samples(spec.fs, spec.duration_s)
    freqs = np.fft.rfftfreq(n_samples, 1.0 / spec.fs)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.uint32),
                       spec.n_trials // spec.n_classes)
    rng.shuffle(labels)
    trials = np.zeros((spec.n_trials, spec.n_channels, n_samples))
    for t, label in enumerate(labels):
        x = trials[t]
        for src in spec.sources[label]:
            lo = max(src.center_freq - src.bandwidth / 2.0, 0.0)
            hi = min(src.center_freq + src.bandwidth / 2.0, spec.fs / 2.0)
            carrier = _band_noise(rng, n_samples, freqs, lo, hi)
            x += src.amplitude * np.outer(src.mixing_array, carrier)
        if spec.noise_sigma > 0:
            x += spec.noise_sigma * rng.standard_normal((spec.n_channels, n_samples))
    return trials.astype(np.float32), labels


def standardize_reference(train, *others):
    """``(arrays, mean, std)`` of ``data.standardize`` on the float32 trial
    arrays given: the per-channel statistics of a float64 copy of
    ``train``, and ``(x - mean) / std`` of a float64 copy of every set,
    cast to float32.  A zero-variance channel shows as a zero in ``std``."""
    x = train.astype(np.float64)
    mean = x.mean(axis=(0, 2))
    std = x.std(axis=(0, 2))
    arrays = [((t.astype(np.float64) - mean[:, None]) / std[:, None]).astype(np.float32)
              for t in (train, *others)]
    return arrays, mean, std
