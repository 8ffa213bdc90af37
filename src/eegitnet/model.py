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
from numpy.lib.stride_tricks import as_strided

from .errors import FormatError
from .fileio import (atomic_write, config_items, key_value_text, pack_string,
                     parse_config_items, read_exact, read_key_values)
from .ops import (BN_EPS, ConvSpec, RunningStats, avg_pool_time, batch_norm,
                  conv_temporal, dense, dropout, elu, elu_values, flatten,
                  softmax_rows)
from .tensor import Tensor, concat_channels

MODEL_MAGIC = b"ITNETMDL"
MODEL_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


# ----------------------------------------------------------------------
# receptive-field arithmetic

def receptive_field_plain(kernel_extent, dilation_base, n_layers):
    """Receptive field of ``n_layers`` stacked causal convolutions.

    Layer i uses dilation ``dilation_base**i``; each adds
    ``(kernel_extent - 1) * dilation`` samples of history.  Exact integer
    arithmetic: r = 1 + (T-1)(b^n - 1)/(b-1), with the b=1 limit
    1 + n(T-1).
    """
    if kernel_extent < 1:
        raise ValueError("kernel_extent must be >= 1")
    if dilation_base < 1:
        raise ValueError("dilation_base must be >= 1")
    if n_layers < 0:
        raise ValueError("n_layers must be >= 0")
    if dilation_base == 1:
        return 1 + n_layers * (kernel_extent - 1)
    return 1 + (kernel_extent - 1) * (dilation_base ** n_layers - 1) // (dilation_base - 1)


def receptive_field_blocks(layers_per_block, kernel_extent, dilation_base, n_blocks):
    """Receptive field of ``n_blocks`` residual blocks of ``layers_per_block``
    causal convolutions each, block i at dilation ``dilation_base**i``.

    r = 1 + m(T-1)(b^n - 1)/(b-1); reduces to the plain-stack formula at
    m = 1.
    """
    if layers_per_block < 1:
        raise ValueError("layers_per_block must be >= 1")
    plain = receptive_field_plain(kernel_extent, dilation_base, n_blocks)
    return 1 + layers_per_block * (plain - 1)


def plan_kernel(target_r, layers_per_block, dilation_base, n_blocks):
    """Smallest kernel extent T > dilation_base whose residual stack reaches
    a receptive field of at least ``target_r``."""
    if target_r < 1:
        raise ValueError("target_r must be >= 1")
    t = dilation_base + 1
    if target_r > 1 and receptive_field_blocks(layers_per_block, 2, dilation_base,
                                               n_blocks) == 1:
        raise ValueError("receptive field cannot grow without layers (n_blocks=0)")
    while receptive_field_blocks(layers_per_block, t, dilation_base, n_blocks) < target_r:
        t += 1
    return t


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

_BLOCK = 32   # outputs per block of the banded-matrix convolution


def _depthwise(z, taps, left, dilation=1):
    """Correlate each filter's row of (N, F, T) ``z`` with its row of (F, K)
    ``taps``, dilated, after ``left`` zeros on the time axis and as many
    zeros after it as the last output needs.

    Time is cut into blocks of ``_BLOCK`` outputs.  A block's outputs are
    its input span times the filter's banded (Toeplitz) matrix of taps, so
    the convolution runs as one batched matrix product.
    """
    n, f, t = z.shape
    span = dilation * (taps.shape[1] - 1) + _BLOCK
    blocks = -(-t // _BLOCK)
    zp = np.zeros((n, f, (blocks - 1) * _BLOCK + span), dtype=z.dtype)
    zp[..., left:left + t] = z
    s = zp.strides
    spans = np.ascontiguousarray(
        as_strided(zp, (n, f, blocks, span), s[:2] + (_BLOCK * s[2], s[2]), writeable=False))
    band = np.zeros((f, span, _BLOCK), dtype=z.dtype)
    rows = dilation * np.arange(taps.shape[1])[:, None] + np.arange(_BLOCK)
    band[:, rows, np.arange(_BLOCK)] = taps[:, :, None]
    return np.matmul(spans, band).reshape(n, f, -1)[..., :t]


def _avg_pool(y, pool):
    """Non-overlapping mean pooling along the last axis, floor semantics,
    summed from ``pool`` strided slices (a mean over a short last axis is
    several times slower)."""
    end = y.shape[-1] // pool * pool
    out = y[..., 0:end:pool].copy()
    for j in range(1, pool):
        out += y[..., j:end:pool]
    out /= pool
    return out


def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(dtype), requires_grad=True)


def _layout(config: ArchConfig):
    """Every array of a model of ``config``, in build and file order.

    Yields ``(name, shape, init)``.  ``init`` is ``(fan_in, fan_out)`` for a
    Glorot-drawn weight, ``0`` or ``1`` for a constant parameter, and
    ``None`` for a batch-norm layer's running statistics: then ``name`` is
    the layer's and ``shape`` that of its mean and of its variance.
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
    yield name, (width,), None


def _check_state(config: ArchConfig, state):
    """Raise ``ValueError`` unless ``state`` holds exactly the arrays of
    :meth:`ITNetModel.state_arrays` for ``config``, each of its shape."""
    shapes = {}
    for name, shape, init in _layout(config):
        if init is None:
            shapes[name + ".running_mean"] = shapes[name + ".running_var"] = shape
        else:
            shapes[name] = shape
    if set(state) != set(shapes):
        missing = sorted(set(shapes) - set(state))
        extra = sorted(set(state) - set(shapes))
        raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if np.shape(state[name]) != shape:
            raise ValueError(f"parameter {name}: shape {np.shape(state[name])} != {shape}")


class ITNetModel:
    """The assembled network: named parameter tensors plus forward passes.

    ``params`` maps stable dotted names to trainable tensors; ``buffers``
    holds the running batch-norm statistics keyed by norm-layer name.  Both
    are serialized by :func:`save_model`.
    """

    def __init__(self, config: ArchConfig, params, buffers):
        self.config = config
        self.params = params
        self.buffers = buffers

    @property
    def param_count(self):
        return sum(p.size for p in self.params.values())

    def parameters(self):
        return list(self.params.values())

    # ------------------------------------------------------------------
    def _as_input(self, x):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        if x.ndim == 3:
            x = x.reshape((x.shape[0], 1, x.shape[1], x.shape[2]))
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(
                f"input must be (batch, 1, electrodes, time), got {tuple(x.shape)}")
        if x.shape[2] != self.config.n_channels:
            raise ValueError(
                f"electrode axis mismatch: model expects {self.config.n_channels}, got {x.shape[2]}")
        if x.shape[3] != self.config.n_samples:
            raise ValueError(
                f"time axis mismatch: model expects {self.config.n_samples}, got {x.shape[3]}")
        return x

    def forward_logits(self, x, mode="infer", rng=None):
        """Class scores before softmax for a (N, 1, electrodes, time) batch.

        Train mode records the autodiff graph; infer mode runs
        :meth:`_infer_logits` and returns a tensor with no parents.
        """
        cfg = self.config
        x = self._as_input(x)
        if mode == "infer":
            return Tensor(self._infer_logits(x.data[:, 0]))
        branch_outs = []
        for i, (f, k) in enumerate(cfg.inception_branches):
            t = conv_temporal(x, ConvSpec(k, 1, "same", False, f),
                              self.params[f"branch{i}.temporal.w"])
            t = t + self.params[f"branch{i}.temporal.b"].reshape((1, f, 1, 1))
            t = batch_norm(t, self.params[f"branch{i}.bn1.gamma"],
                           self.params[f"branch{i}.bn1.beta"],
                           mode=mode, running=self.buffers[f"branch{i}.bn1"])
            t = conv_temporal(t, ConvSpec(cfg.n_channels, 1, "valid", True, f),
                              self.params[f"branch{i}.spatial.w"])
            t = batch_norm(t, self.params[f"branch{i}.bn2.gamma"],
                           self.params[f"branch{i}.bn2.beta"],
                           mode=mode, running=self.buffers[f"branch{i}.bn2"])
            branch_outs.append(t)
        y = concat_channels(branch_outs)
        y = elu(y)
        y = dropout(y, cfg.dropout_rate, mode, rng)
        y = avg_pool_time(y, cfg.pool1)
        y = self.tc_features(y, mode=mode, rng=rng)
        y = conv_temporal(y, ConvSpec(1, 1, "same", False, cfg.dr_filters),
                          self.params["dr.w"])
        y = y + self.params["dr.b"].reshape((1, cfg.dr_filters, 1, 1))
        y = batch_norm(y, self.params["dr.bn.gamma"], self.params["dr.bn.beta"],
                       mode=mode, running=self.buffers["dr.bn"])
        y = elu(y)
        y = dropout(y, cfg.dropout_rate, mode, rng)
        y = avg_pool_time(y, cfg.pool2)
        y = flatten(y)
        return dense(y, self.params["head.w"], self.params["head.b"])

    def tc_features(self, y, mode="infer", rng=None):
        """Run only the residual causal stack on (N, width, 1, time) features.

        Block i applies its convolutions at dilation ``dilation_base**i``;
        the identity skip joins before the block's final activation.
        """
        cfg = self.config
        if y.shape[1] != cfg.branch_filters:
            raise ValueError(
                f"filter axis mismatch: causal stack expects {cfg.branch_filters}, got {y.shape[1]}")
        if mode == "infer":
            return Tensor(self._infer_tc(y.data[:, :, 0])[:, :, None])
        for j in range(cfg.tc_blocks):
            skip = y
            dilation = cfg.dilation_base ** j
            for l in range(cfg.tc_layers_per_block):
                y = conv_temporal(
                    y, ConvSpec(cfg.tc_kernel, dilation, "causal", True, cfg.branch_filters),
                    self.params[f"tc{j}.conv{l}.w"])
                y = batch_norm(y, self.params[f"tc{j}.bn{l}.gamma"],
                               self.params[f"tc{j}.bn{l}.beta"],
                               mode=mode, running=self.buffers[f"tc{j}.bn{l}"])
                y = elu(y)
                y = dropout(y, cfg.dropout_rate, mode, rng)
            y = y + skip
            y = elu(y)
        return y

    def forward(self, x, mode="infer", rng=None):
        """Class probabilities; rows sum to 1."""
        return softmax_rows(self.forward_logits(x, mode=mode, rng=rng))

    def predict(self, x):
        """Hard labels for an array of trials."""
        return np.argmax(self.forward_logits(x, mode="infer").data, axis=1)

    # ------------------------------------------------------------------
    # inference: plain numpy, every batch norm folded into the layer before it
    def _folded_norm(self, name):
        """Infer-mode batch norm ``name`` as float64 per-filter ``(scale,
        shift)``, so that it maps u to ``scale * u + shift``.  Folded on every
        call: the optimizer updates the parameters in place."""
        running = self.buffers[name]
        scale = self.params[name + ".gamma"].data / np.sqrt(
            running.var.astype(np.float64) + BN_EPS)
        return scale, self.params[name + ".beta"].data - scale * running.mean

    def _infer_dtype(self, a):
        """The float type the graph would compute in: the wider of the
        input's and the parameters'."""
        return np.result_type(a, self.params["head.w"].data)

    def _infer_logits(self, x):
        """Infer-mode logits of (N, electrodes, time) trials, with no tape.

        Each inception filter is linear up to its first ELU: temporal conv,
        bias, BN1, spatial sum over electrodes, BN2.  It runs spatial first,
        then a "same" temporal conv of the filter's virtual channel with the
        taps scaled by both norms, plus one constant.  Zero padding commutes
        with the electrode sum, so this is exact up to rounding.
        """
        cfg = self.config
        x = x.astype(self._infer_dtype(x), copy=False)
        spatial = np.concatenate([self.params[f"branch{i}.spatial.w"].data[:, 0, :, 0]
                                  for i in range(len(cfg.inception_branches))])
        z = np.matmul(spatial.astype(x.dtype), x)
        branch_outs = []
        start = 0
        for i, (f, k) in enumerate(cfg.inception_branches):
            scale1, shift1 = self._folded_norm(f"branch{i}.bn1")
            scale2, shift2 = self._folded_norm(f"branch{i}.bn2")
            taps = self.params[f"branch{i}.temporal.w"].data[:, 0, 0] \
                * (scale1 * scale2)[:, None]
            bias = self.params[f"branch{i}.temporal.b"].data
            electrode_sum = spatial[start:start + f].sum(axis=1, dtype=np.float64)
            const = scale2 * (scale1 * bias + shift1) * electrode_sum + shift2
            t = _depthwise(z[:, start:start + f], taps.astype(x.dtype), (k - 1) // 2)
            branch_outs.append(t + const.astype(x.dtype)[:, None])
            start += f
        y = _avg_pool(elu_values(np.concatenate(branch_outs, axis=1)), cfg.pool1)
        y = self._infer_tc(y)
        scale, shift = self._folded_norm("dr.bn")
        w = self.params["dr.w"].data[:, :, 0, 0] * scale[:, None]
        b = scale * self.params["dr.b"].data + shift
        y = elu_values(np.matmul(w.astype(x.dtype), y) + b.astype(x.dtype)[:, None])
        y = _avg_pool(y, cfg.pool2).reshape(len(y), -1)
        return y @ self.params["head.w"].data + self.params["head.b"].data

    def _infer_tc(self, y):
        """Infer-mode causal stack on (N, width, time) features."""
        cfg = self.config
        k = cfg.tc_kernel
        y = y.astype(self._infer_dtype(y), copy=False)
        for j in range(cfg.tc_blocks):
            skip = y
            dilation = cfg.dilation_base ** j
            for l in range(cfg.tc_layers_per_block):
                scale, shift = self._folded_norm(f"tc{j}.bn{l}")
                # lag order -> correlation order, scaled by the norm
                taps = self.params[f"tc{j}.conv{l}.w"].data[:, 0, 0, ::-1] * scale[:, None]
                y = _depthwise(y, taps.astype(y.dtype), (k - 1) * dilation, dilation)
                y = elu_values(y + shift.astype(y.dtype)[:, None])
            y = elu_values(y + skip)
        return y

    # ------------------------------------------------------------------
    # checkpointing
    def state_arrays(self):
        """Copies of every parameter and running-stat array, by name."""
        state = {name: p.data.copy() for name, p in self.params.items()}
        for name, rs in self.buffers.items():
            state[name + ".running_mean"] = rs.mean.copy()
            state[name + ".running_var"] = rs.var.copy()
        return state

    def load_state_arrays(self, state):
        _check_state(self.config, state)
        for name, p in self.params.items():
            p.data = np.asarray(state[name]).copy()
        for name, rs in self.buffers.items():
            rs.mean = np.asarray(state[name + ".running_mean"]).copy()
            rs.var = np.asarray(state[name + ".running_var"]).copy()


def build(config: ArchConfig, seed=0, dtype=np.float32) -> ITNetModel:
    """Initialize all parameters for ``config``: uniform Glorot weights,
    zero biases, unit batch-norm scales."""
    rng = np.random.default_rng(seed)
    params = {}
    buffers = {}
    for name, shape, init in _layout(config):
        if init is None:
            buffers[name] = RunningStats(shape[0], dtype)
        elif isinstance(init, tuple):
            params[name] = _glorot(rng, shape, *init, dtype=dtype)
        else:
            params[name] = Tensor(np.full(shape, init, dtype=dtype), requires_grad=True)
    return ITNetModel(config, params, buffers)


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
    for name, p in model.params.items():
        parts.append(_pack_entry(name, p.data))
    for name, rs in model.buffers.items():
        parts.append(_pack_entry(name + ".running_mean", rs.mean))
        parts.append(_pack_entry(name + ".running_var", rs.var))
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
            name = read_exact(f, name_len, "a parameter name").decode("utf-8")
            if name in state:
                raise FormatError("bad_value", f"parameter {name} appears twice")
            tag, rank = struct.unpack("<BB", read_exact(f, 2, f"{name} header"))
            if tag not in _TAG_DTYPES:
                raise FormatError("bad_value", f"parameter {name}: unknown dtype tag {tag}")
            extents = struct.unpack(f"<{rank}I", read_exact(f, 4 * rank, f"{name} extents"))
            count = 1
            for e in extents:
                count *= e
            if count > 2 ** 31:
                raise FormatError("extent_overflow",
                                  f"parameter {name}: {count} elements exceeds the format limit")
            dt = _TAG_DTYPES[tag]
            raw = read_exact(f, count * dt.itemsize, f"{name} values")
            state[name] = np.frombuffer(raw, dtype=dt).reshape(extents).copy()
    try:
        _check_state(config, state)
    except ValueError as exc:
        raise FormatError("bad_value", str(exc)) from None
    params = {}
    buffers = {}
    for name, shape, init in _layout(config):
        if init is None:
            running = buffers[name] = RunningStats(shape[0])
            running.mean = state[name + ".running_mean"]
            running.var = state[name + ".running_var"]
        else:
            params[name] = Tensor(state[name], requires_grad=True)
    return ITNetModel(config, params, buffers)
