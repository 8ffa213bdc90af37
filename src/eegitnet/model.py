"""Network assembly and receptive-field planning.

The architecture: three parallel temporal-convolution branches of different
kernel extents, each followed by a depthwise spatial convolution spanning
all electrodes; the concatenated features feed a stack of residual blocks
of depthwise causal dilated convolutions; a 1x1 convolution reduces
dimensionality before the dense softmax head.

Also here: the closed-form receptive-field arithmetic used to size the
causal stack, and the ``ITNETMDL`` binary model format with its key=value
config sidecar.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .fileio import (atomic_write, config_items, decode_utf8, key_value_text, pack_string,
                     parse_config_items, read_exact, read_key_values)
from .ops import (_CHUNK_BYTES, BN_EPS, BandProducts, ConvSpec, PaddedLayout, PaddedRows,
                  avg_pool_time, avg_pool_values, band_matrix, batch_norm, check_finite_trials,
                  conv_temporal, dense, dropout, elu, elu_values, flatten, lag_products,
                  lag_statistics, softmax_rows)
from .tensor import Tensor, add, concat_channels

MODEL_MAGIC = b"ITNETMDL"
MODEL_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_RUNNING = (".running_mean", ".running_var")
_MAX_FIELD = 2 ** 63 - 1   # samples; no trial holds more than data._MAX_ELEMENTS = 2**31


# ----------------------------------------------------------------------
# receptive-field arithmetic

def receptive_field_plain(kernel_extent, dilation_base, n_layers):
    """Receptive field of ``n_layers`` stacked causal convolutions.

    Layer i uses dilation ``dilation_base**i``; each adds
    ``(kernel_extent - 1) * dilation`` samples of history.  Exact integer
    arithmetic: r = 1 + (T-1)(b^n - 1)/(b-1), with the b=1 limit
    1 + n(T-1).  A field over ``_MAX_FIELD`` samples raises ``ValueError``;
    no power above b^64 is taken.
    """
    if kernel_extent < 1:
        raise ValueError("kernel_extent must be >= 1")
    if dilation_base < 1:
        raise ValueError("dilation_base must be >= 1")
    if n_layers < 0:
        raise ValueError("n_layers must be >= 0")
    if dilation_base == 1:
        return _bounded(1 + n_layers * (kernel_extent - 1))
    # r grows with n, and with T and b at least 2, 64 layers already exceed _MAX_FIELD
    power = dilation_base ** min(n_layers, 64)
    return _bounded(1 + (kernel_extent - 1) * (power - 1) // (dilation_base - 1))


def _bounded(r):
    if r > _MAX_FIELD:
        raise ValueError(f"the receptive field exceeds {_MAX_FIELD} samples")
    return r


def receptive_field_blocks(layers_per_block, kernel_extent, dilation_base, n_blocks):
    """Receptive field of ``n_blocks`` residual blocks of ``layers_per_block``
    causal convolutions each, block i at dilation ``dilation_base**i``.

    r = 1 + m(T-1)(b^n - 1)/(b-1); reduces to the plain-stack formula at
    m = 1.  It too is refused over ``_MAX_FIELD`` samples.
    """
    if layers_per_block < 1:
        raise ValueError("layers_per_block must be >= 1")
    plain = receptive_field_plain(kernel_extent, dilation_base, n_blocks)
    return _bounded(1 + layers_per_block * (plain - 1))


def plan_kernel(target_r, layers_per_block, dilation_base, n_blocks):
    """Smallest kernel extent T > dilation_base whose residual stack reaches
    a receptive field of at least ``target_r``.  The field is
    ``1 + reach (T - 1)``, so T = max(b + 1, 1 + ceil((target_r - 1) / reach))."""
    if target_r < 1:
        raise ValueError("target_r must be >= 1")
    reach = receptive_field_blocks(layers_per_block, 2, dilation_base, n_blocks) - 1
    if reach == 0:
        if target_r > 1:
            raise ValueError("receptive field cannot grow without layers (n_blocks=0)")
        return dilation_base + 1
    return max(dilation_base + 1, 1 - (1 - target_r) // reach)


# ----------------------------------------------------------------------
# configuration

def _format_branches(branches):
    return ",".join(f"{f}x{k}" for f, k in branches)


def _parse_branches(text):
    branches = []
    for part in text.split(","):
        f, _, k = part.strip().partition("x")
        branches.append((int(f), int(k)))
    return tuple(branches)


@dataclass(frozen=True)
class ArchConfig:
    """Static shape of the network.

    ``inception_branches`` lists (filter_count, kernel_extent) pairs in the
    order the branches are concatenated; their filter counts sum to the
    width of the causal stack.  ``tc_kernel`` must exceed ``dilation_base``
    or the dilated taps leave gaps in time coverage.
    """

    n_channels: int
    n_samples: int
    n_classes: int
    inception_branches: tuple = field(
        default=((2, 16), (4, 32), (8, 64)),
        metadata={"format": _format_branches, "parse": _parse_branches})
    pool1: int = 4
    tc_blocks: int = 4
    tc_layers_per_block: int = 2
    tc_kernel: int = 4
    dilation_base: int = 2
    dr_filters: int = 14
    pool2: int = 4
    dropout_rate: float = 0.4

    def __post_init__(self):
        branches = tuple((int(f), int(k)) for f, k in self.inception_branches)
        object.__setattr__(self, "inception_branches", branches)
        if self.n_channels < 1 or self.n_samples < 1:
            raise ValueError("n_channels and n_samples must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not branches:
            raise ValueError("at least one inception branch is required")
        for f, k in branches:
            if f < 1 or k < 1:
                raise ValueError(f"branch ({f}, {k}): filter count and kernel extent must be >= 1")
        if self.tc_kernel <= self.dilation_base:
            raise ValueError(
                f"tc_kernel ({self.tc_kernel}) must exceed dilation_base "
                f"({self.dilation_base}); smaller kernels leave uncovered time gaps")
        if self.dilation_base < 1:
            raise ValueError("dilation_base must be >= 1")
        for name in ("pool1", "pool2", "tc_layers_per_block", "dr_filters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.tc_blocks < 0:
            raise ValueError("tc_blocks must be >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.pooled2_samples < 1:
            raise ValueError(
                f"n_samples={self.n_samples} too short for pooling {self.pool1}*{self.pool2}")

    @property
    def branch_filters(self):
        """Feature width after branch concatenation (input width of the causal stack)."""
        return sum(f for f, _ in self.inception_branches)

    @property
    def pooled1_samples(self):
        return self.n_samples // self.pool1

    @property
    def pooled2_samples(self):
        return self.pooled1_samples // self.pool2

    @property
    def feature_dim(self):
        return self.dr_filters * self.pooled2_samples

    @property
    def receptive_field(self):
        """History (in pooled samples) one causal-stack output can see."""
        return receptive_field_blocks(self.tc_layers_per_block, self.tc_kernel,
                                      self.dilation_base, self.tc_blocks)


def arch_config_from_items(items):
    """Build an ArchConfig from a ``{field name: text}`` mapping."""
    return ArchConfig(**parse_config_items(ArchConfig, items, "architecture"))


# ----------------------------------------------------------------------
# model

@dataclass(frozen=True)
class _Plan:
    """A model's infer-mode network with every batch norm folded in, all in
    one compute dtype.

    ``spatial`` stacks the branches' spatial filters, (total filters,
    electrodes).  ``branches`` holds one ((left zeros, temporal
    :func:`band_matrix`), (f, 1) constant) pair per inception branch.
    ``causal`` holds one (left zeros, layers) pair per residual block, its
    layers each a (band, (width, 1) shift) pair, and ``dr`` the 1x1
    reduction's (weight, (d, 1) shift).  ``front`` and ``tc`` are the
    :class:`~eegitnet.ops.PaddedLayout` of the inception branches' input
    and of the causal stack's, which those bands read after their left
    zeros.
    """

    spatial: np.ndarray
    branches: list
    causal: list
    dr: tuple
    front: PaddedLayout
    tc: PaddedLayout


# The last plan folded in this process, as (key, plan).  One entry, not one
# per model: the within protocol's fold models would each keep a plan (about
# 0.75 MB at the paper shape) alive for the whole run.  The key holds the
# bytes of the arrays folded, so an in-place write (Adam, running statistics,
# load_state_arrays) can never serve a stale plan.
_last_plan = None


def _tc_layout(causal, length):
    """The :class:`~eegitnet.ops.PaddedLayout` that the folded ``causal``
    layers of a plan read, for rows of ``length`` samples."""
    return PaddedLayout.of(length, [(left, band) for left, layers in causal
                                    for band, _ in layers])


def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _layout(config: ArchConfig):
    """Every array of a model of ``config``, in build order; a model file
    holds the parameters in this order, then the running statistics.

    Yields ``(name, shape, init)``.  ``init`` is ``(fan_in, fan_out)`` for a
    Glorot-drawn weight and ``0`` or ``1`` for a constant array: a bias, a
    batch-norm scale or shift, or a norm's running mean (0) or variance (1).
    ``name`` is the array's name in the model file.
    """
    c = config.n_channels
    width = config.branch_filters
    for i, (f, k) in enumerate(config.inception_branches):
        yield f"branch{i}.temporal.w", (f, 1, 1, k), (k, f * k)
        yield f"branch{i}.temporal.b", (f,), 0
        yield from _norm_layout(f"branch{i}.bn1", f)
        yield f"branch{i}.spatial.w", (f, 1, c, 1), (c, c)
        yield from _norm_layout(f"branch{i}.bn2", f)
    t = config.tc_kernel
    for j in range(config.tc_blocks):
        for l in range(config.tc_layers_per_block):
            yield f"tc{j}.conv{l}.w", (width, 1, 1, t), (t, t)
            yield from _norm_layout(f"tc{j}.bn{l}", width)
    d = config.dr_filters
    yield "dr.w", (d, width, 1, 1), (width, d)
    yield "dr.b", (d,), 0
    yield from _norm_layout("dr.bn", d)
    yield "head.w", (config.feature_dim, config.n_classes), (config.feature_dim, config.n_classes)
    yield "head.b", (config.n_classes,), 0


def _norm_layout(name, width):
    yield name + ".gamma", (width,), 1
    yield name + ".beta", (width,), 0
    yield name + ".running_mean", (width,), 0
    yield name + ".running_var", (width,), 1


def _check_state(config: ArchConfig, state):
    """Raise ``ValueError`` unless ``state`` holds exactly the arrays of
    :meth:`ITNetModel.state_arrays` for ``config``, each of its shape, with
    no negative running variance."""
    shapes = {name: shape for name, shape, _ in _layout(config)}
    if set(state) != set(shapes):
        missing = sorted(set(shapes) - set(state))
        extra = sorted(set(state) - set(shapes))
        raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if np.shape(state[name]) != shape:
            raise ValueError(f"parameter {name}: shape {np.shape(state[name])} != {shape}")
        if name.endswith(".running_var") and (np.asarray(state[name]) < 0).any():
            raise ValueError(f"parameter {name}: negative variance")


@dataclass(frozen=True)
class LaggedTrials:
    """Trials with their :func:`~eegitnet.ops.lag_products` rows, from
    :meth:`ITNetModel.lagged`.  Indexing selects trials."""

    trials: np.ndarray
    products: np.ndarray

    def __getitem__(self, idx):
        return LaggedTrials(self.trials[idx], self.products[idx])


class ITNetModel:
    """The assembled network: named parameter tensors plus forward passes.

    Built from ``state``, one array per :func:`_layout` name.  ``params``
    maps the trainable arrays' names to tensors that wrap them; ``buffers``
    maps each norm's ``<norm>.running_mean`` and ``<norm>.running_var`` to
    its array.  The keys are the names :func:`save_model` writes.
    """

    def __init__(self, config: ArchConfig, state):
        self.config = config
        self.params = {}
        self.buffers = {}
        for name, _, _ in _layout(config):
            if name.endswith(_RUNNING):
                self.buffers[name] = state[name]
            else:
                self.params[name] = Tensor(state[name], requires_grad=True)

    @property
    def param_count(self):
        return sum(p.size for p in self.params.values())

    def parameters(self):
        return list(self.params.values())

    # ------------------------------------------------------------------
    def lagged(self, x):
        """The trials ``x`` with their lag products for the inception kernels,
        built once for the training batches indexed from it."""
        return LaggedTrials(x, lag_products(x, [k for _, k in self.config.inception_branches]))

    def _as_input(self, x):
        """``x`` as an (N, 1, electrodes, time) tensor, and its lag products
        if it is a :class:`LaggedTrials` (checked when they were built)."""
        products = None
        if isinstance(x, LaggedTrials):
            x, products = x.trials, x.products
        if not isinstance(x, Tensor):
            x = np.asarray(x)
            if x.ndim == 3:
                x = x.reshape((x.shape[0], 1, x.shape[1], x.shape[2]))
            x = Tensor(x)
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(
                f"input must be (batch, 1, electrodes, time), got {tuple(x.shape)}")
        if x.shape[2] != self.config.n_channels:
            raise ValueError(
                f"electrode axis mismatch: model expects {self.config.n_channels}, got {x.shape[2]}")
        if x.shape[3] != self.config.n_samples:
            raise ValueError(
                f"time axis mismatch: model expects {self.config.n_samples}, got {x.shape[3]}")
        if products is None:
            check_finite_trials(x.data)
        return x, products

    def forward_logits(self, x, mode="infer", rng=None):
        """Class scores before softmax for a (N, 1, electrodes, time) batch.

        Train mode records the autodiff graph; infer mode runs
        :meth:`_infer_logits` and returns a tensor with no parents.
        """
        cfg = self.config
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        x, products = self._as_input(x)
        if mode == "infer":
            return Tensor(self._infer_logits(x.data[:, 0]))
        # BN1 is applied through the spatial sum, with its batch moments
        # taken from the input's lag statistics and the temporal taps: it
        # never reads the temporal conv's output
        lags = lag_statistics(x, [k for _, k in cfg.inception_branches], products)
        branch_outs = []
        for i, (f, k) in enumerate(cfg.inception_branches):
            w = self.params[f"branch{i}.temporal.w"]
            u = conv_temporal(x, ConvSpec(k, 1, "same", False, f), w)
            s = self.params[f"branch{i}.spatial.w"]
            z = conv_temporal(u, ConvSpec(cfg.n_channels, 1, "valid", True, f), s)
            t = batch_norm(u, self.params[f"branch{i}.bn1.gamma"],
                           self.params[f"branch{i}.bn1.beta"],
                           running=self._running(f"branch{i}.bn1"),
                           bias=self.params[f"branch{i}.temporal.b"],
                           through=(z, s, w, lags))
            t = batch_norm(t, self.params[f"branch{i}.bn2.gamma"],
                           self.params[f"branch{i}.bn2.beta"],
                           running=self._running(f"branch{i}.bn2"))
            branch_outs.append(t)
        y = concat_channels(branch_outs)
        y = elu(y)
        y = dropout(y, cfg.dropout_rate, rng)
        y = avg_pool_time(y, cfg.pool1)
        y = self.tc_features(y, mode=mode, rng=rng)
        y = conv_temporal(y, ConvSpec(1, 1, "same", False, cfg.dr_filters),
                          self.params["dr.w"])
        y = batch_norm(y, self.params["dr.bn.gamma"], self.params["dr.bn.beta"],
                       running=self._running("dr.bn"), bias=self.params["dr.b"])
        y = elu(y)
        y = dropout(y, cfg.dropout_rate, rng)
        y = avg_pool_time(y, cfg.pool2)
        y = flatten(y)
        return dense(y, self.params["head.w"], self.params["head.b"])

    def tc_features(self, y, mode="infer", rng=None):
        """Run only the residual causal stack on (N, width, 1, time) features.

        Block i applies its convolutions at dilation ``dilation_base**i``;
        the identity skip joins before the block's final activation.
        """
        cfg = self.config
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        if y.shape[1] != cfg.branch_filters:
            raise ValueError(
                f"filter axis mismatch: causal stack expects {cfg.branch_filters}, got {y.shape[1]}")
        if mode == "infer":
            y = y.data[:, :, 0]
            y = y.astype(self._infer_dtype(y), copy=False)
            causal = self._plan(y.dtype).causal
            layout = _tc_layout(causal, y.shape[-1])
            y = self._infer_tc(y, causal, PaddedRows(len(y), y.shape[1], layout, y.dtype),
                               BandProducts(len(y), (layout,), y.dtype))
            return Tensor(y[:, :, None].copy())
        for j in range(cfg.tc_blocks):
            skip = y
            dilation = cfg.dilation_base ** j
            for l in range(cfg.tc_layers_per_block):
                y = conv_temporal(
                    y, ConvSpec(cfg.tc_kernel, dilation, "causal", True, cfg.branch_filters),
                    self.params[f"tc{j}.conv{l}.w"])
                y = batch_norm(y, self.params[f"tc{j}.bn{l}.gamma"],
                               self.params[f"tc{j}.bn{l}.beta"],
                               running=self._running(f"tc{j}.bn{l}"))
                y = elu(y)
                y = dropout(y, cfg.dropout_rate, rng)
            y = add(y, skip)
            y = elu(y)
        return y

    def forward(self, x, mode="infer", rng=None):
        """Class probabilities, rows summing to 1, as a tensor with no parents."""
        return Tensor(softmax_rows(self.forward_logits(x, mode=mode, rng=rng).data))

    def predict(self, x):
        """Hard labels for an array of trials."""
        return np.argmax(self.forward_logits(x, mode="infer").data, axis=1)

    # ------------------------------------------------------------------
    # inference: plain numpy, every batch norm folded into the layer before it
    def _running(self, name):
        """Norm ``name``'s running ``(mean, variance)`` arrays."""
        return self.buffers[name + ".running_mean"], self.buffers[name + ".running_var"]

    def _folded_norm(self, name):
        """Infer-mode batch norm ``name`` as float64 per-filter ``(scale,
        shift)``, so that it maps u to ``scale * u + shift``."""
        mean, var = self._running(name)
        scale = self.params[name + ".gamma"].data / np.sqrt(var.astype(np.float64) + BN_EPS)
        return scale, self.params[name + ".beta"].data - scale * mean

    def _infer_dtype(self, a):
        """The float type the graph would compute in: the wider of the
        input's and the parameters'."""
        return np.result_type(a, self.params["head.w"].data)

    def _fold(self, dtype):
        """The infer-mode network with every batch norm folded in, all in
        ``dtype``.

        Each inception filter is linear up to its first ELU: temporal conv,
        bias, BN1, spatial sum over electrodes, BN2.  It runs spatial first,
        then a "same" temporal conv of the filter's virtual channel with the
        taps scaled by both norms, plus one constant.  Zero padding commutes
        with the electrode sum, so this is exact up to rounding.
        """
        cfg = self.config
        spatial = np.concatenate([self.params[f"branch{i}.spatial.w"].data[:, 0, :, 0]
                                  for i in range(len(cfg.inception_branches))])
        branches = []
        start = 0
        for i, (f, k) in enumerate(cfg.inception_branches):
            scale1, shift1 = self._folded_norm(f"branch{i}.bn1")
            scale2, shift2 = self._folded_norm(f"branch{i}.bn2")
            taps = self.params[f"branch{i}.temporal.w"].data[:, 0, 0] \
                * (scale1 * scale2)[:, None]
            bias = self.params[f"branch{i}.temporal.b"].data
            electrode_sum = spatial[start:start + f].sum(axis=1, dtype=np.float64)
            const = scale2 * (scale1 * bias + shift1) * electrode_sum + shift2
            branches.append((((k - 1) // 2, band_matrix(taps.astype(dtype))),
                             const.astype(dtype)[:, None]))
            start += f
        causal = []
        for j in range(cfg.tc_blocks):
            layers = []
            dilation = cfg.dilation_base ** j
            for l in range(cfg.tc_layers_per_block):
                scale, shift = self._folded_norm(f"tc{j}.bn{l}")
                # lag order -> correlation order, scaled by the norm
                taps = self.params[f"tc{j}.conv{l}.w"].data[:, 0, 0, ::-1] * scale[:, None]
                layers.append((band_matrix(taps.astype(dtype), dilation),
                               shift.astype(dtype)[:, None]))
            causal.append(((cfg.tc_kernel - 1) * dilation, layers))
        scale, shift = self._folded_norm("dr.bn")
        w = self.params["dr.w"].data[:, :, 0, 0] * scale[:, None]
        b = scale * self.params["dr.b"].data + shift
        return _Plan(spatial.astype(dtype), branches, causal,
                     (w.astype(dtype), b.astype(dtype)[:, None]),
                     PaddedLayout.of(cfg.n_samples, [r for r, _ in branches]),
                     _tc_layout(causal, cfg.pooled1_samples))

    def _plan(self, dtype):
        """The folded network for ``dtype``: the cached one when the config,
        ``dtype`` and the bytes of every parameter and running statistic
        match those it was folded from, else a new one that replaces it."""
        global _last_plan
        arrays = [p.data for p in self.params.values()] + list(self.buffers.values())
        key = (self.config, dtype, tuple(a.dtype for a in arrays),
               b"".join(a.tobytes() for a in arrays))
        cached = _last_plan
        if cached is not None and cached[0] == key:
            return cached[1]
        plan = self._fold(dtype)
        _last_plan = (key, plan)
        return plan

    def _infer_logits(self, x):
        """Infer-mode logits of (N, electrodes, time) trials, with no tape,
        from the folded network.

        Every layer up to the flattened features works trial by trial, so it
        runs over blocks of trials whose widest layer (the branch filters over
        every sample) fits ``_CHUNK_BYTES`` and stays in cache.  The head then
        maps all N rows in one product: only its rounding depends on the row
        count, so the logits do not depend on the block size.
        """
        cfg = self.config
        x = x.astype(self._infer_dtype(x), copy=False)
        plan = self._plan(x.dtype)
        head_w, head_b = self.params["head.w"].data, self.params["head.b"].data
        step = max(1, _CHUNK_BYTES // (cfg.branch_filters * cfg.n_samples * x.itemsize))
        features = np.empty((len(x), len(head_w)), dtype=x.dtype)
        for lo in range(0, len(x), step):
            features[lo:lo + step] = self._infer_features(x[lo:lo + step], plan)
        return features @ head_w + head_b

    def _infer_features(self, x, plan):
        """The flattened features the head reads, for (n, electrodes, time)
        trials in the compute dtype of the folded ``plan``.

        The front end and the causal stack each read one zero-padded
        :class:`~eegitnet.ops.PaddedRows` buffer, and all their bands share
        one :class:`~eegitnet.ops.BandProducts`.  They are made here, once
        per call, and none outlives it.
        """
        cfg = self.config
        n, t = len(x), cfg.n_samples
        front = PaddedRows(n, cfg.branch_filters, plan.front, x.dtype)
        tc = PaddedRows(n, cfg.branch_filters, plan.tc, x.dtype)
        products = BandProducts(n, (plan.front, plan.tc), x.dtype)
        np.matmul(plan.spatial, x, out=front.interior)
        y = np.empty((n, cfg.branch_filters, t), x.dtype)
        start = 0
        for (left, band), const in plan.branches:
            rows = slice(start, start + len(band))
            p = products(front.spans(left, band)[:, rows], band)
            np.add(p[..., :t], const, out=y[:, rows])
            start += len(band)
        y = self._infer_tc(avg_pool_values(elu_values(y), cfg.pool1), plan.causal, tc, products)
        w, b = plan.dr
        y = np.matmul(w, y)
        y += b
        return avg_pool_values(elu_values(y), cfg.pool2).reshape(n, -1)

    def _infer_tc(self, y, causal, tc, products):
        """Infer-mode causal stack on (N, width, time) features in the compute
        dtype, with the folded ``causal`` layers of a plan, their
        :class:`~eegitnet.ops.PaddedRows` ``tc`` and the
        :class:`~eegitnet.ops.BandProducts` ``products``.

        A layer's shift and ELU run over every block of its products, whose
        rows are contiguous (numpy runs an elementwise op into the strided
        interior of ``tc`` about twice as long), and the next layer copies
        the samples into ``tc`` before it reads its spans.
        """
        if not causal:
            return y
        _, layers = causal[0]
        block = layers[0][0].shape[2]   # every causal band's
        wide = y.shape[:2] + (-(-tc.length // block) * block,)
        out, skip = np.empty(wide, y.dtype), np.zeros(wide, y.dtype)
        # the samples of each, without the last block's outputs past them
        out_samples, skip_samples = out[..., :tc.length], skip[..., :tc.length]
        np.copyto(skip_samples, y)
        for left, layers in causal:
            spans = tc.spans(left, layers[0][0])   # the spans of every layer of the block
            y = skip_samples
            for band, shift in layers:
                np.copyto(tc.interior, y)
                p = products(spans, band)
                np.add(p, shift, out=p)
                elu_values(p, out=out)
                y = out_samples
            np.add(out, skip, out=out)
            elu_values(out, out=skip)
        return skip_samples

    # ------------------------------------------------------------------
    # checkpointing
    def _named_arrays(self):
        """``(name, array)`` for every array, in file order: the parameters,
        then the running statistics."""
        return [(name, p.data) for name, p in self.params.items()] + list(self.buffers.items())

    def state_arrays(self):
        """Copies of every parameter and running-stat array, by name."""
        return {name: a.copy() for name, a in self._named_arrays()}

    def load_state_arrays(self, state):
        _check_state(self.config, state)
        for name, p in self.params.items():
            p.data = np.asarray(state[name]).copy()
        for name in self.buffers:
            self.buffers[name] = np.asarray(state[name]).copy()


def build(config: ArchConfig, seed=0, dtype=np.float32) -> ITNetModel:
    """Initialize all parameters for ``config``: uniform Glorot weights,
    zero biases, unit batch-norm scales."""
    rng = np.random.default_rng(seed)
    state = {}
    for name, shape, init in _layout(config):
        if isinstance(init, tuple):
            state[name] = _glorot(rng, shape, *init, dtype=dtype)
        else:
            state[name] = np.full(shape, init, dtype=dtype)
    return ITNetModel(config, state)


# ----------------------------------------------------------------------
# binary model files

def _pack_entry(name, arr):
    dt = np.dtype(arr.dtype)
    if dt not in _DTYPE_TAGS:
        raise ValueError(f"parameter {name}: unsupported dtype {dt}")
    parts = [pack_string(name),
             struct.pack("<BB", _DTYPE_TAGS[dt], arr.ndim),
             struct.pack(f"<{arr.ndim}I", *arr.shape),
             np.ascontiguousarray(arr, dtype=dt.newbyteorder("<")).tobytes()]
    return b"".join(parts)


def save_model(model: ITNetModel, path):
    """Write the binary parameter file plus a ``<path>.cfg`` text sidecar."""
    path = os.fspath(path)
    parts = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION)]
    for name, a in model._named_arrays():
        parts.append(_pack_entry(name, a))
    atomic_write(path, b"".join(parts))
    atomic_write(path + ".cfg", key_value_text(config_items(model.config)).encode("utf-8"))


def load_model(path) -> ITNetModel:
    """Read a model written by :func:`save_model` (parameter file + sidecar)."""
    path = os.fspath(path)
    cfg_path = path + ".cfg"
    if not os.path.exists(cfg_path):
        raise FormatError("missing_config", f"config sidecar not found: {cfg_path}")
    try:
        config = arch_config_from_items(read_key_values(cfg_path))
    except ValueError as exc:
        raise FormatError("bad_value", str(exc)) from None

    shapes = {name: shape for name, shape, _ in _layout(config)}
    state = {}
    with open(path, "rb") as f:
        magic = f.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise FormatError("bad_magic", f"not a model file: magic {magic!r}")
        version, = struct.unpack("<I", read_exact(f, 4, "version"))
        if version != MODEL_VERSION:
            raise FormatError("bad_value", f"unsupported model file version {version}")
        while True:
            head = f.read(2)
            if not head:
                break
            if len(head) != 2:
                raise FormatError("truncated", "file ends inside a name length")
            name_len, = struct.unpack("<H", head)
            name = decode_utf8(read_exact(f, name_len, "a parameter name"), "a parameter name")
            if name in state:
                raise FormatError("bad_value", f"parameter {name} appears twice")
            tag, rank = struct.unpack("<BB", read_exact(f, 2, f"{name} header"))
            if tag not in _TAG_DTYPES:
                raise FormatError("bad_value", f"parameter {name}: unknown dtype tag {tag}")
            dt = _TAG_DTYPES[tag]
            if state:
                first, first_array = next(iter(state.items()))
                if dt != first_array.dtype:
                    raise FormatError("bad_value", f"parameter {name}: dtype {dt} differs from "
                                                   f"the {first_array.dtype} of {first}")
            extents = struct.unpack(f"<{rank}I", read_exact(f, 4 * rank, f"{name} extents"))
            count = 1
            for e in extents:
                count *= e
            if count > 2 ** 31:
                raise FormatError("extent_overflow",
                                  f"parameter {name}: {count} elements exceeds the format limit")
            # checked before the payload is read, so a file cannot make the
            # reader allocate more than the config's arrays
            if name not in shapes:
                raise FormatError("bad_value", f"unknown parameter {name}")
            if rank != len(shapes[name]):
                raise FormatError("bad_value",
                                  f"parameter {name}: rank {rank} != {len(shapes[name])}")
            if extents != shapes[name]:
                raise FormatError("bad_value",
                                  f"parameter {name}: extents {extents} != {shapes[name]}")
            raw = read_exact(f, count * dt.itemsize, f"{name} values")
            state[name] = np.frombuffer(raw, dtype=dt).reshape(extents).copy()
            if not np.isfinite(state[name]).all():
                raise FormatError("bad_value", f"parameter {name}: non-finite value")
    try:
        _check_state(config, state)
    except ValueError as exc:
        raise FormatError("bad_value", str(exc)) from None
    return ITNetModel(config, state)
