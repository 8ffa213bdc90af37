"""Layer primitives: convolutions, batch norm, activations, pooling, losses.

The ops are train-mode only, one code path per layer the model records.
They operate on :class:`~eegitnet.tensor.Tensor` and record gradients
through :func:`~eegitnet.tensor.from_op`.  Inputs to the convolution ops are
4-D ``(batch, filters, electrodes, time)``; time is always the last axis.
``band_matrix``, ``band_conv``, ``elu_values`` and ``avg_pool_values`` are
the array kernels beneath the ops.  The model's tape-free inference runs
``band_matrix`` bands in the zero-padded buffers of ``PaddedLayout`` and
``PaddedRows`` through ``BandProducts``, which read the spans ``band_conv``
reads, and ``softmax_rows`` is an array function for its output.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, accumulate, from_op

PAD_MODES = ("same", "valid", "causal")
BN_EPS = 1e-3          # added to every batch norm's variance
BN_MOMENTUM = 0.99     # share of a running moment kept at each update


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
# convolution kernels: one banded matrix product along time, one contraction
# over electrodes

_CHUNK_BYTES = 1 << 20     # temporaries built at once by a pass over a block of trials


def _block_shape(k, dilation):
    """(outputs per block, input span per block) for ``k`` dilated taps.

    Kernels of 2-16 taps take 16 outputs per block and longer ones 32, so a
    short kernel's band is not mostly zeros.  A one-tap kernel takes one
    output per block, so its band is the tap.
    """
    block = 1 if k == 1 else 16 if k <= 16 else 32
    return block, dilation * (k - 1) + block


@functools.lru_cache(maxsize=64)
def _band_cells(k, dilation, block):
    """(rows, columns) of a banded matrix's cells that hold taps: tap b sits
    in row ``j + b * dilation`` of column j.  Cached, so read-only."""
    cells = dilation * np.arange(k)[:, None] + np.arange(block), np.arange(block)
    for a in cells:
        a.setflags(write=False)
    return cells


def _span_chunks(z, left, span, block, blocks, out_filters):
    """Yield ``(first trial, spans)`` for chunks of the (N, G, R, T) rows
    ``z``, read after ``left`` zeros (a negative ``left`` skips samples) and
    zero past its end.

    ``spans`` is an (n, G, R, blocks, span) strided view: ``spans[..., b, :]``
    holds the samples that block b of a row reads.  Each caller copies it
    into the matrix layout its product needs.  A chunk holds as many trials
    as fit ``_CHUNK_BYTES`` of spans and block outputs.
    """
    n, g, r, t = z.shape
    total = (blocks - 1) * block + span
    per_trial = (g * span + out_filters * block) * r * blocks * z.itemsize
    step = max(1, _CHUNK_BYTES // per_trial)
    for lo in range(0, n, step):
        zc = z[lo:lo + step]
        zp = np.zeros(zc.shape[:3] + (total,), dtype=z.dtype)
        a, b = max(left, 0), min(left + t, total)
        if b > a:
            zp[..., a:b] = zc[..., a - left:b - left]
        yield lo, _span_view(zp, 0, span, block, blocks)


def _span_view(zp, first, span, block, blocks):
    """The (..., blocks, span) strided view of the rows of the C-contiguous
    array ``zp`` from sample ``first`` on: ``[..., b, :]`` holds the samples
    that block b of a row reads.  Nothing is copied; every row must hold the
    samples its last block reads."""
    s = zp.strides
    return np.ndarray(zp.shape[:-1] + (blocks, span), zp.dtype, zp, first * s[-1],
                      s[:-1] + (block * s[-1], s[-1]))


def band_matrix(taps, dilation=1):
    """The banded (Toeplitz) matrix of ``taps``, dilated, that
    :func:`band_conv` multiplies each block's input span by: tap b sits in
    row ``j + b * dilation`` of column j, every other cell is zero.

    Depthwise ``taps`` are (G, K) and give a (G, span, block) band; dense
    ``taps`` are (F, G, K) and give an (F, G, span, block) band.
    """
    k = taps.shape[-1]
    block, span = _block_shape(k, dilation)
    band = np.zeros(taps.shape[:-1] + (span, block), dtype=taps.dtype)
    band[(Ellipsis,) + _band_cells(k, dilation, block)] = taps[..., None]
    return band


def band_conv(z, band, left=0, length=None):
    """Correlate the rows of (N, G, R, T) ``z`` along time with the taps of
    :func:`band_matrix` ``band``, after ``left`` zeros and with zeros after
    the input as far as the last of ``length`` outputs reads (``length``
    defaults to T).

    A depthwise band runs filter g on the rows of input filter g.  A dense
    band's output filter f sums the correlations of every input filter.

    Time is cut into blocks of the band's width.  A block's outputs are its
    input span times the band, so the convolution runs as one batched matrix
    product per chunk of trials, written in place.  Returns an (N, F, R,
    length) view that leaves out the last block's outputs past ``length``.
    """
    n, g, r, t = z.shape
    length = t if length is None else length
    span, block = band.shape[-2:]
    blocks = -(-length // block)
    dense = band.ndim == 4
    if dense:
        band = band.reshape(len(band), g * span, block)
    out = np.empty((n, len(band), r * blocks, block), dtype=np.result_type(z, band))
    for lo, spans in _span_chunks(z, left, span, block, blocks, len(band)):
        c = len(spans)
        if dense:   # a row holds every input filter's span
            spans = np.ascontiguousarray(spans.transpose(0, 2, 3, 1, 4)).reshape(
                c, 1, r * blocks, g * span)
        else:
            spans = np.ascontiguousarray(spans).reshape(c, g, r * blocks, span)
        np.matmul(spans, band, out=out[lo:lo + c])
    return out.reshape(n, len(band), r, blocks * block)[..., :length]


@dataclass(frozen=True)
class PaddedLayout:
    """Where one stage of the folded inference keeps its rows: a zero-padded
    (N, G, width) time buffer that depthwise bands read in place.

    :meth:`of` makes it for rows of ``length`` samples and the stage's
    readers.  The samples sit from ``lead``, the widest left pad, on, and the
    buffer runs as far as any reader's last block reads.  ``span_cells`` and
    ``product_cells`` are the most spans and products one trial of any
    reader takes.
    """

    length: int
    lead: int
    width: int
    span_cells: int
    product_cells: int

    @classmethod
    def of(cls, length, readers):
        """The layout for ``readers``, each ``(left, band)``: a depthwise
        :func:`band_matrix` band and the zeros it reads before the rows."""
        lead = max((left for left, _ in readers), default=0)
        width = lead + length
        span_cells = product_cells = 0
        for left, band in readers:
            filters, span, block = band.shape
            blocks = -(-length // block)
            width = max(width, lead - left + (blocks - 1) * block + span)
            span_cells = max(span_cells, filters * blocks * span)
            product_cells = max(product_cells, filters * blocks * block)
        return cls(length, lead, width, span_cells, product_cells)


class PaddedRows:
    """One call's zero-padded (N, G, width) buffer of a
    :class:`PaddedLayout`.  Its layers' input is written into ``interior``,
    never padded again, and each layer reads its :meth:`spans` in place."""

    def __init__(self, n, g, layout, dtype):
        self.length, self.lead = layout.length, layout.lead
        self.rows = np.zeros((n, g, layout.width), dtype)
        self.interior = self.rows[..., self.lead:self.lead + self.length]

    def spans(self, left, band):
        """The (N, G, blocks, span) view of the samples each of ``band``'s
        blocks reads after ``left`` zeros."""
        span, block = band.shape[1:]
        return _span_view(self.rows, self.lead - left, span, block, -(-self.length // block))


class BandProducts:
    """One span buffer and one product buffer that every band reading the
    :class:`PaddedLayout` ``layouts`` shares, and the product itself
    (:meth:`__call__`).

    The product buffer holds one band's outputs for all ``n`` trials.  The
    span buffer holds as many trials of the widest band's spans as fit
    ``_CHUNK_BYTES``, and at least one; a band copies its spans and
    multiplies them over chunks of as many trials as it holds.
    """

    def __init__(self, n, layouts, dtype):
        # an empty causal stack reads no spans
        per_trial = max(1, max(layout.span_cells for layout in layouts))
        trials = min(n, max(1, _CHUNK_BYTES // (per_trial * np.dtype(dtype).itemsize)))
        self.spans = np.empty(trials * per_trial, dtype)
        self.products = np.empty(n * max(layout.product_cells for layout in layouts), dtype)

    def __call__(self, spans, band):
        """The (N, G, blocks * block) outputs of the (N, G, blocks, span)
        ``spans`` view times the depthwise ``band``: a view of the product
        buffer, which the next product overwrites."""
        n, g, blocks, span = spans.shape
        block = band.shape[2]
        out = self.products[:n * g * blocks * block].reshape(n, g, blocks, block)
        step = len(self.spans) // (g * blocks * span)
        # one chunk, unsliced, when the buffer holds every trial (one-trial calls)
        chunks = [(spans, out)] if n <= step else [
            (spans[lo:lo + step], out[lo:lo + step]) for lo in range(0, n, step)]
        for chunk, chunk_out in chunks:
            copy = self.spans[:chunk.size].reshape(chunk.shape)
            np.copyto(copy, chunk)
            np.matmul(copy, band, out=chunk_out)
        return out.reshape(n, g, blocks * block)


def band_conv_taps_grad(z, taps, grad, left=0, dilation=1):
    """Gradient of the ``taps`` behind :func:`band_conv`'s band for the
    output gradient ``grad``, taken from the same input spans: a banded
    matrix's gradient is its spans times its blocks of output gradient, and
    tap b sums the band's cells that hold it."""
    _, g, r, _ = z.shape
    f, length = grad.shape[1], grad.shape[3]
    k = taps.shape[-1]
    block, span = _block_shape(k, dilation)
    blocks = -(-length // block)
    band_grad = 0
    for lo, spans in _span_chunks(z, left, span, block, blocks, f):
        c = len(spans)
        if taps.ndim == 3:
            # one product per trial and output filter, summed over the trials
            spans = np.ascontiguousarray(spans.transpose(0, 2, 3, 1, 4)).reshape(
                c, 1, r * blocks, g * span)
            gc = _zero_padded(grad[lo:lo + c], blocks * block).reshape(c, f, r * blocks, block)
            band_grad = band_grad + np.matmul(spans.swapaxes(-1, -2), gc).sum(axis=0)
        else:
            # one product per filter, with every trial's blocks in its rows
            spans = np.ascontiguousarray(spans.transpose(1, 0, 2, 3, 4)).reshape(
                g, c * r * blocks, span)
            gc = _zero_padded(grad[lo:lo + c].transpose(1, 0, 2, 3), blocks * block)
            band_grad = band_grad + np.matmul(spans.swapaxes(-1, -2),
                                              gc.reshape(f, c * r * blocks, block))
    band_grad = band_grad.reshape(taps.shape[:-1] + (span, block))
    return band_grad[(Ellipsis,) + _band_cells(k, dilation, block)].sum(axis=-1)


def _zero_padded(a, length):
    """A new contiguous copy of ``a`` with zeros after its last axis up to
    ``length``."""
    out = np.zeros(a.shape[:-1] + (length,), dtype=a.dtype)
    out[..., :a.shape[-1]] = a
    return out


@dataclass(frozen=True)
class FactoredGrad:
    """The (N, C, H, T) gradient ``s[c, h] * g[n, c, t]``, kept as its two
    factors: ``s`` is (C, H) and ``g`` is (N, C, T).  It is what an
    electrode-spanning depthwise filter ``s`` sends back to a
    :class:`DeferredConv` input; numpy reads it as :meth:`dense`."""

    s: np.ndarray
    g: np.ndarray

    def dense(self):
        """The gradient as one new (N, C, H, T) array."""
        return self.s[None, :, :, None] * self.g[:, :, None, :]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.dense(), dtype=dtype)


class DeferredConv(np.lib.mixins.NDArrayOperatorsMixin):
    """The (N, F, H, L) output of a dense temporal convolution of one input
    filter, kept as its factors: the (N, 1, H, T) input ``x``, the (F, 1, K)
    correlation-order ``taps`` with their ``dilation``, the ``left`` zeros
    read before ``x`` and the output ``length`` L.

    It answers ``shape``, ``ndim``, ``size``, ``nbytes``, ``dtype``,
    ``itemsize`` and ``len`` without building anything.  :meth:`dense`
    builds the array, once.  numpy reads it through ``__array__`` and the
    arithmetic operators; indexing and every other public attribute read it
    too.  A depthwise filter over the electrodes needs only :meth:`mixed`,
    and its backward sends the tensor holding this value a
    :class:`FactoredGrad`.
    """

    __slots__ = ("x", "taps", "left", "length", "dilation", "shape", "dtype", "size",
                 "itemsize", "nbytes", "_dense", "_mix", "_rows")
    ndim = 4

    def __init__(self, x, taps, left, length, dilation):
        self.x, self.taps, self.left, self.length, self.dilation = (x, taps, left, length,
                                                                    dilation)
        self.shape = (x.shape[0], taps.shape[0], x.shape[2], length)
        self.dtype = np.result_type(x, taps)
        self.size = int(np.prod(self.shape))
        self.itemsize = self.dtype.itemsize
        self.nbytes = self.size * self.itemsize
        self._dense = self._mix = self._rows = None

    def dense(self):
        """The output as one (N, F, H, L) array, built on the first call."""
        if self._dense is None:
            self._dense = band_conv(self.x, band_matrix(self.taps, self.dilation), self.left,
                                    self.length)
        return self._dense

    def __array__(self, dtype=None, copy=None):
        a = self.dense()
        return a.astype(a.dtype if dtype is None else dtype, copy=bool(copy))

    def __getitem__(self, key):
        return self.dense()[key]

    def __len__(self):
        return self.shape[0]

    def __getattr__(self, name):
        # numpy's __array_*__ probes, copy and pickle find nothing here
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.dense(), name)

    def mixed(self, s):
        """The (N, F, T) rows ``Σ_h s[f, h] x[:, 0, h]`` for (F, H) electrode
        weights ``s``; the rows of the last ``s`` given are kept."""
        if self._mix is not s:
            self._mix, self._rows = s, np.matmul(s, self.x[:, 0])
        return self._rows


def _transposed_conv(g, taps, left, length, dilation=1):
    """The ``length``-sample input gradient of :func:`band_conv` with the
    band of ``taps`` after ``left`` zeros, for the output gradient ``g``:
    the taps reversed (a dense kernel's filters swapped), after reach - left
    zeros."""
    back = taps[..., ::-1]
    if taps.ndim == 3:
        back = back.transpose(1, 0, 2)
    return band_conv(g, band_matrix(back, dilation), dilation * (taps.shape[-1] - 1) - left,
                     length)


def conv_temporal(x, spec: ConvSpec, weights):
    """Convolution per a :class:`ConvSpec`, with dilation along time.

    Weight layout is ``(filters_out, filters_in_per_group, k_elec, k_time)``:
    ``(C_out, C_in, KH, KW)``, or ``(C_in, 1, KH, KW)`` in depthwise mode.
    A kernel spans time (``k_elec == 1``) or, depthwise and unpadded, every
    electrode (``k_elec`` equal to the input's electrode count); any other
    electrode kernel is refused.  For ``same``/``valid`` padding the kernel
    is applied in correlation orientation; for ``causal`` padding the kernel
    is lag-ordered (``weights[..., j]`` multiplies the input
    ``j * dilation`` steps in the past) and only leading zeros are inserted,
    so output[t] never sees input[t' > t].

    A time kernel runs :func:`band_conv` once, with its taps'
    :func:`band_matrix`; a lag-ordered kernel's taps are reversed into
    correlation order there, and its tap gradient is reversed back.  The
    input gradient is the taps' :func:`_transposed_conv`.

    A depthwise kernel ``s`` that spans every electrode and no time is one
    ``einsum`` over the electrodes each way for an array input; backward,
    it sends its input the gradient ``s[c, h] g[n, c, t]``: built, for an
    array input; as a :class:`FactoredGrad`, for a deferred one.

    A dense time kernel on one input filter (an inception branch) defers
    its output: the tensor holds a :class:`DeferredConv` of its input and
    taps, and its gradient stays a :class:`FactoredGrad`.  The
    electrode kernel after it sums the electrodes first, since the two
    are linear: forward, it runs the taps depthwise on the rows
    ``Σ_h s[f, h] x[:, 0, h]``; backward, ``s`` takes
    ``Σ_{n,t} (w_f ⋆ᵀ g)[n, f, t] x[n, h, t]``.  Given the factored
    gradient, the time kernel's taps run depthwise on those same rows
    against ``g[:, f]``, and its input gradient is ``Σ_f s[f, h]`` of the
    depthwise transposed convolution of ``g``.  No (N, F, H, T) array is
    built, forward or backward, unless another op reads the output.
    """
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D (batch, filters, electrodes, time), got {x.ndim}-D")
    if weights.ndim != 4:
        raise ValueError(f"weights must be 4-D, got {weights.ndim}-D")
    n, c_in, h, t = x.shape
    kh, kw = weights.shape[2], weights.shape[3]
    if kh > 1 and kw > 1:
        raise ValueError("kernels span either the electrode axis or the time axis, not both")
    if spec.kernel_extent != max(kh, kw):
        raise ValueError(
            f"kernel axis mismatch: spec.kernel_extent={spec.kernel_extent} but weights span {max(kh, kw)}")
    if kh > 1 and not (spec.depthwise and spec.padding == "valid" and kh == h):
        raise ValueError(
            f"electrode kernels are depthwise, 'valid' and span all {h} electrodes; "
            f"got extent {kh}, padding {spec.padding!r}, depthwise={spec.depthwise}")
    if spec.depthwise:
        if spec.filter_count != c_in:
            raise ValueError(
                f"filter axis mismatch: depthwise over {c_in} filters, "
                f"spec declares {spec.filter_count}")
        if weights.shape[0] != c_in or weights.shape[1] != 1:
            raise ValueError(
                f"depthwise weights must be ({c_in}, 1, kh, kw), got {tuple(weights.shape)}")
    elif weights.shape[0] != spec.filter_count:
        raise ValueError(
            f"filter axis mismatch: weights produce {weights.shape[0]} filters, "
            f"spec declares {spec.filter_count}")
    elif weights.shape[1] != c_in:
        raise ValueError(
            f"filter axis mismatch: weights expect {weights.shape[1]} input filters, "
            f"input has {c_in}")
    dilation = spec.dilation
    reach = dilation * (kw - 1)
    if spec.padding == "valid" and kw > 1 and reach >= t:
        raise ValueError(
            f"time axis too short for valid padding: dilation*(T-1)={reach} >= {t} samples")
    w_data = weights.data

    if spec.depthwise and kw == 1 and kh == h:
        s, d = w_data.reshape(c_in, kh), x.data
        if isinstance(d, DeferredConv):
            # Σ_h s[f, h] (w_f ⋆ x_h) = w_f ⋆ (Σ_h s[f, h] x_h)
            out = band_conv(d.mixed(s)[:, :, None], band_matrix(d.taps[:, 0], d.dilation),
                            d.left, t)
        else:
            out = np.einsum("ch,ncht->nct", s, d)[:, :, None]

        def backward(g):
            if weights.requires_grad:
                if isinstance(d, DeferredConv):
                    # g_s[f, h] = Σ_{n,t} (w_f ⋆ᵀ g)[n, f, t] x[n, h, t]
                    back = _transposed_conv(g, d.taps[:, 0], d.left, d.x.shape[-1],
                                            d.dilation)
                    gw = np.matmul(back[:, :, 0], d.x[:, 0].swapaxes(1, 2)).sum(axis=0)
                else:
                    gw = np.einsum("ncht,nct->ch", d, g[:, :, 0])
                accumulate(weights, gw.reshape(weights.shape))
            if x.requires_grad:
                gx = FactoredGrad(s, g.reshape(n, c_in, t))
                accumulate(x, gx if isinstance(d, DeferredConv) else gx.dense(), fresh=True)

        return from_op(out, (x, weights), backward)

    causal = spec.padding == "causal"
    left = {"same": reach // 2, "causal": reach, "valid": 0}[spec.padding]
    length = t - reach if spec.padding == "valid" else t
    taps = w_data[:, 0, 0] if spec.depthwise else w_data[:, :, 0]   # (..., kw)
    if causal:
        taps = taps[..., ::-1]   # lag order -> correlation order
    # the deferred value keeps a copy of the taps: an optimizer updates the
    # weights in place, and the value may be built after that
    value = (DeferredConv(x.data, np.array(taps), left, length, dilation)
             if not spec.depthwise and c_in == 1
             else band_conv(x.data, band_matrix(taps, dilation), left, length))

    def backward(g):
        mix, g_taps = None, taps
        if isinstance(g, FactoredGrad):
            # g[n, f, h, t] = s[f, h] g_z[n, f, t] and x has one filter: sum
            # the electrodes first, and run the taps depthwise between g_z
            # and the rows s·x that the spatial conv's forward mixed
            mix, g, g_taps = g.s, g.g[:, :, None], taps[:, 0]
        if weights.requires_grad:
            rows = x.data if mix is None else value.mixed(mix)[:, :, None]
            gw = band_conv_taps_grad(rows, g_taps, g, left, dilation)
            accumulate(weights, (gw[..., ::-1] if causal else gw).reshape(weights.shape))
        if x.requires_grad:
            gx = _transposed_conv(g, g_taps, left, t, dilation)
            accumulate(x, gx if mix is None else np.matmul(mix.T, gx[:, :, 0])[:, None])

    return from_op(value, (x, weights), backward)


# ----------------------------------------------------------------------
# lag statistics: the batch moments of every "same" temporal convolution of
# one input, as quadratic forms of its taps

def _fft_length(n):
    """Smallest ``2**a * 3**b * 5**c`` of at least ``n``: a length numpy's
    FFT runs fast."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _lag_extent(extents):
    """``(left, width)`` of the row windows "same" kernels of these extents read."""
    left = max((k - 1) // 2 for k in extents)
    return left, left + max(k - 1 - (k - 1) // 2 for k in extents) + 1


def non_finite_sample(a):
    """Index of the first non-finite element of ``a`` in C order, or None.
    NaN or ±inf makes the flattened array's dot product with itself
    non-finite, so a finite array is checked in one pass; the mask is built
    only then, and finds nothing if the finite squares' sum overflowed."""
    flat = a.reshape(-1)   # no copy of a C-contiguous array
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(flat, flat)) or np.isfinite(flat).all():
            return None
    return np.unravel_index(np.argmin(np.isfinite(flat)), a.shape)


def check_finite_trials(a, first=0, axis="electrode"):
    """Raise ``ValueError`` naming the first non-finite sample of the
    (N, H, T) or (N, 1, H, T) array ``a``, its trial counted from ``first``
    and its row by ``axis``."""
    bad = non_finite_sample(a)
    if bad is not None:
        t, *_, c, s = bad
        raise ValueError(f"non-finite sample at trial {first + t}, {axis} {c}, sample {s}")


@dataclass(frozen=True)
class LagStatistics:
    """Float64 lag statistics of an (N, 1, H, T) input tensor ``x``, for
    the "same" temporal kernels of the extents :func:`lag_statistics` was
    given.

    Offset ``i`` is the row window ``xp[i:i + T]`` of every (trial,
    electrode) row of ``x`` read after ``left`` zeros (``xp``; zeros past
    its end too).  ``gram[i, j]`` sums ``xp[t + i] xp[t + j]`` and
    ``sums[i]`` sums ``xp[t + i]`` over t and over every row.  A kernel of
    k taps reads the offsets from ``left - (k - 1) // 2`` on, so every
    branch's statistics are one slice of these (:meth:`window`), and a
    convolution with taps w has ``Σ u = w·sums`` and ``Σ u² = wᵀ gram w``.
    They are summed from the trials' :func:`lag_products`; ``xp`` is never
    built.
    """

    x: Tensor
    gram: np.ndarray
    sums: np.ndarray
    left: int

    def window(self, k):
        """``(gram, sums)`` of the k offsets a k-tap kernel reads."""
        i = self.left - (k - 1) // 2
        if i < 0 or i + k > len(self.sums):
            raise ValueError(f"a {k}-tap kernel reads offsets outside the {len(self.sums)} "
                             f"these statistics hold")
        return self.gram[i:i + k, i:i + k], self.sums[i:i + k]


def lag_products(x, extents):
    """Float64 lag products of each trial of the (N, H, T) or (N, 1, H, T)
    array ``x`` for "same" kernels of the given extents: row n holds
    ``Σ x[t] x[t + l]`` over trial n's electrode rows for each of the
    ``width`` lags the kernels' windows span, then the trial's ``Σ x``.

    They come from each trial's power spectrum (Wiener-Khinchin), over
    blocks of trials whose float64 rows, padded to the FFT length, fit
    ``_CHUNK_BYTES``; every block is copied into one float64 buffer.  A
    non-finite sample raises ``ValueError`` naming its trial in ``x``.
    """
    _, width = _lag_extent(extents)
    n, t = len(x), x.shape[-1]
    trials = x.reshape(n, -1, t)
    nfft = _fft_length(t + width - 1)   # no lag below width wraps around
    chunk = max(1, _CHUNK_BYTES // (8 * trials.shape[1] * nfft))
    products = np.empty((n, width + 1))
    # one buffer for every block's copy, so its pages are not faulted in again
    copies = np.empty((min(chunk, n),) + trials.shape[1:])
    for a in range(0, n, chunk):
        block = copies[:min(chunk, n - a)]
        np.copyto(block, trials[a:a + chunk])
        check_finite_trials(block, a)
        spectrum = np.fft.rfft(block, nfft)
        power = np.einsum("nhf,nhf->nf", spectrum.real, spectrum.real)
        power += np.einsum("nhf,nhf->nf", spectrum.imag, spectrum.imag)
        products[a:a + chunk, :width] = np.fft.irfft(power, nfft)[:, :width]
        products[a:a + chunk, width] = block.sum(axis=(1, 2))
    return products


def lag_statistics(x, extents, products=None):
    """The :class:`LagStatistics` of the (N, 1, H, T) tensor ``x`` for
    "same" kernels of the given extents, from the :func:`lag_products` rows
    of its trials (computed here when not given).

    The Toeplitz part is the rows' sum, in row order.  Window i leaves out
    the products of ``xp`` before its start and after its end: cumulative
    sums along the diagonals of the Gram matrices of the first and last
    ``width`` samples of ``xp``.  The window sums are the trials' totals
    less those samples' column sums outside the window.  Only those samples
    are read here, so no array of ``x``'s size is made.
    """
    n, g, h, t = x.shape
    if g != 1:
        raise ValueError(f"lag statistics need one input filter, got {g}")
    left, width = _lag_extent(extents)
    if products is None:
        products = lag_products(x.data, extents)
    if products.shape != (n, width + 1):
        raise ValueError(f"lag products of shape {products.shape} do not match "
                         f"{n} trials and {width} lags")
    summed = products.sum(axis=0)
    offsets = np.arange(width)
    gram = summed[np.abs(offsets[:, None] - offsets)]
    # products before window i: the head's diagonal sums that end at
    # (i - 1, j - 1); after it: the tail's that start at (i, j)
    rows = x.data.reshape(n * h, t)
    head = np.pad(rows[:, :width - left].astype(np.float64),
                  ((0, 0), (left, max(width - left - t, 0))))
    tail = np.pad(rows[:, max(t - left, 0):].astype(np.float64),
                  ((0, 0), (max(left - t, 0), width - left)))
    head_gram, tail_gram = head.T @ head, tail.T @ tail
    before, after = np.zeros((width, width)), np.zeros((width + 1, width + 1))
    for i in range(width - 1):
        before[i + 1, 1:] = before[i, :-1] + head_gram[i, :-1]
    for i in range(width - 1, -1, -1):
        after[i, :width] = tail_gram[i] + after[i + 1, 1:]
    gram -= before
    gram -= after[:width, :width]
    head_cols, tail_cols = head.sum(axis=0), tail.sum(axis=0)
    sums = summed[width] - np.cumsum(np.r_[0.0, head_cols[:-1]])
    sums -= np.cumsum(tail_cols[::-1])[::-1]
    return LagStatistics(x, gram, sums, left)


# ----------------------------------------------------------------------
# batch normalization

def _update_running(running, mean, var):
    """Fold batch moments into the running ``(mean, var)`` arrays in place."""
    for buf, value in zip(running, (mean, var)):
        buf[...] = BN_MOMENTUM * buf + (1.0 - BN_MOMENTUM) * value


def _per_channel(v, ndim):
    return v.reshape((1, -1) + (1,) * (ndim - 2))


def _channel_sum(a, b=None):
    """Per-channel (axis 1) sum of ``a``, or of ``a * b``, over all other axes,
    without an elementwise temporary.  Strided arrays (a convolution's output
    is a view that leaves out its last block's overhang) are summed in place,
    not copied by a reshape."""
    axes = "nc" + "defghijk"[:a.ndim - 2]
    if b is None:
        return np.einsum(f"{axes}->c", a)
    return np.einsum(f"{axes},{axes}->c", a, b)


def batch_norm(x, gamma, beta, running=None, bias=None, through=None):
    """Train-mode norm per channel (axis 1) over all other axes, with biased
    batch moments; when given, the two arrays ``running=(mean, var)`` take
    the moments in place at ``BN_MOMENTUM`` (the mean of ``x`` plus
    ``bias``).  Inference never comes here: it folds every norm into the
    layer before it.

    ``bias``, when given, is a per-channel tensor added to ``x`` before the
    norm (the bias of the convolution in front of it).  It never touches the
    full-size array: the batch mean cancels it, so its true gradient is
    zero.  This path returns the channel sum of the input gradient for it,
    which is zero only up to rounding; ``through=`` returns exact zeros.

    For its backward the op keeps only per-channel arrays (the mean, the
    inverse standard deviation and the scale) beside ``x``, which the tape
    holds anyway: the backward centres ``x`` again into a new buffer and
    turns that buffer into the input gradient in place.

    ``through=(z, s, w, lags)`` normalises ``x`` through the depthwise
    electrode sum after it: ``z`` is the (N, C, 1, T) spatial convolution
    of ``x`` with the (C, 1, H, 1) weights ``s``, ``x`` is the "same"
    temporal convolution of ``lags.x`` with the taps ``w``, and ``lags`` is
    the :func:`lag_statistics` of that input.  The op returns the sum of the
    normalised ``x``, not ``x`` normalised, and takes its batch moments from
    ``w`` and ``lags``, and ``x`` is not one of its parents.  ``x`` may be
    the deferred output of :func:`conv_temporal`; the op reads it, and so
    builds it, only when ``lags.x`` takes a gradient.  See
    :func:`_batch_norm_through`.
    """
    if x.shape[0] == 1:
        raise ValueError("batch of size 1 in train mode: batch variance is undefined up to eps")
    if through is not None:
        return _batch_norm_through(x, gamma, beta, running, bias, *through)
    parents = (x, gamma, beta) if bias is None else (x, gamma, beta, bias)
    m = x.size // x.shape[1]
    mean = _channel_sum(x.data) / m
    out = x.data - _per_channel(mean, x.ndim)   # centred; becomes the output in place
    var = _channel_sum(out, out) / m
    inv = 1.0 / np.sqrt(var + BN_EPS)
    if running is not None:
        _update_running(running, mean if bias is None else mean + bias.data, var)
    scale = gamma.data * inv
    out *= _per_channel(scale, x.ndim)
    out += _per_channel(beta.data, x.ndim)

    def backward(g):
        centered = x.data - _per_channel(mean, x.ndim)
        g_sum = _channel_sum(g)                 # the beta gradient
        g_c_sum = _channel_sum(g, centered)     # the gamma gradient over inv
        if gamma.requires_grad:
            accumulate(gamma, g_c_sum * inv)
        if beta.requires_grad:
            accumulate(beta, g_sum)
        if not (x.requires_grad or bias is not None and bias.requires_grad):
            return
        # gx = scale * (g - mean(g) - xhat * mean(g * xhat)), with
        # xhat = centered * inv
        gx = centered
        gx *= _per_channel(g_c_sum * (inv * inv / m), x.ndim)
        gx += _per_channel(g_sum / m, x.ndim)
        np.subtract(g, gx, out=gx)
        gx *= _per_channel(scale, x.ndim)
        if bias is not None:
            accumulate(bias, _channel_sum(gx))
        accumulate(x, gx, fresh=True)

    return from_op(out, parents, backward)


def _batch_norm_through(u, gamma, beta, running, bias, z, s, w, lags):
    """Train-mode norm of (N, C, H, T) ``u``, the "same" temporal
    convolution of ``lags.x`` with the (C, 1, 1, K) taps ``w``, applied
    after the electrode sum ``z = Σ_h s[c, h] u[:, c, h]``.

    Per channel the norm is the affine map ``a (u - μ) + β`` with
    ``a = γ / sqrt(var + eps)``, so it commutes with the sum: the output is
    ``a (z - μ S) + β S``, where ``S = Σ_h s[c, h]``.  The batch moments are
    quadratic in the taps: with the window sums ``r`` and the lag Gram
    matrix ``Q`` of :class:`LagStatistics`, ``μ = w·r / m`` and
    ``var = wᵀQw / m - μ²`` over the ``m`` values of a channel.  So the
    forward never reads ``u``.

    Backward, with ``G = Σ g`` and ``K = Σ g (z - μ S)`` per channel:
    ``z`` takes ``a g`` (its own backward routes that to ``u`` and ``s``),
    ``γ`` takes ``K / sqrt(var + eps)``, ``β`` takes ``S G``, ``s`` takes
    ``(β - a μ) G`` on every electrode.  The moments' part of ``u``'s
    gradient is ``q u + p``, with ``q = -γ K / (m (var + eps)^1.5)`` and
    ``p = -a S G / m - q μ``; through the convolution it gives ``w`` the
    k-vector ``q Qw + p r``, and, only when ``lags.x`` takes a gradient,
    ``x`` the transposed convolution of ``q u + p``: the op's one read of
    ``u``, which builds a deferred ``u``.
    """
    n, c, h, t = u.shape
    k = w.shape[-1]
    if z.shape != (n, c, 1, t) or s.shape != (c, 1, h, 1):
        raise ValueError(f"through=(z, s, w, lags) must hold the electrode sum of a "
                         f"{tuple(u.shape)} input: got z {tuple(z.shape)}, s {tuple(s.shape)}")
    if w.shape != (c, 1, 1, k) or lags.x.shape != (n, 1, h, t):
        raise ValueError(f"through=(z, s, w, lags) must hold the temporal convolution behind "
                         f"a {tuple(u.shape)} input: got w {tuple(w.shape)}, "
                         f"x {tuple(lags.x.shape)}")
    gram, sums = lags.window(k)
    taps = w.data[:, 0, 0].astype(np.float64)
    gram_taps = taps @ gram                     # row c is Q w_c
    m = lags.x.size
    mean = taps @ sums / m
    var = np.einsum("ck,ck->c", gram_taps, taps) / m - mean * mean
    mean, var = mean.astype(u.dtype), var.astype(u.dtype)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    if running is not None:
        _update_running(running, mean if bias is None else mean + bias.data, var)
    total = s.data.sum(axis=(1, 2, 3))          # S
    scale = gamma.data * inv                    # a
    shift = _per_channel(mean * total, 4)       # μ S
    out = z.data - shift
    out *= _per_channel(scale, 4)
    out += _per_channel(beta.data * total, 4)
    x = lags.x
    parents = (gamma, beta) + (() if bias is None else (bias,)) + (z, s, w, x)

    def backward(g):
        g_sum = _channel_sum(g)
        g_c_sum = _channel_sum(g, z.data - shift)
        if gamma.requires_grad:
            accumulate(gamma, g_c_sum * inv)
        if beta.requires_grad:
            accumulate(beta, g_sum * total)
        if bias is not None:
            accumulate(bias, np.zeros_like(bias.data), fresh=True)
        if s.requires_grad:
            accumulate(s, np.broadcast_to(
                ((beta.data - scale * mean) * g_sum).reshape(c, 1, 1, 1), s.shape))
        if z.requires_grad:
            accumulate(z, g * _per_channel(scale, 4), fresh=True)
        q = -gamma.data * inv ** 3 * g_c_sum / m
        p = -scale * total * g_sum / m - q * mean
        if w.requires_grad:
            accumulate(w, (q[:, None] * gram_taps + p[:, None] * sums).reshape(w.shape))
        if x.requires_grad:
            gu = np.multiply(u.data, _per_channel(q, 4))   # builds a deferred u
            gu += _per_channel(p, 4)
            accumulate(x, _transposed_conv(gu, w.data[:, :, 0], (k - 1) // 2, t))

    return from_op(out, parents, backward)


# ----------------------------------------------------------------------
# activations, pooling, dropout, dense head

def elu_values(a, out=None):
    """Exponential linear unit (alpha = 1) of an array, into ``out`` (which
    must not overlap ``a``) or a new array."""
    out = np.minimum(a, 0, out=out)
    np.expm1(out, out=out)
    return np.maximum(out, a, out=out)


def elu(x):
    """Exponential linear unit with alpha = 1."""
    out = elu_values(x.data)

    def backward(g):
        gx = np.minimum(out, 0)
        gx += 1.0
        gx *= g
        accumulate(x, gx)

    return from_op(out, (x,), backward)


def avg_pool_values(a, pool):
    """Non-overlapping mean pooling of an array along its last axis, floor
    semantics, summed from ``pool`` strided slices (a mean over a short last
    axis is several times slower)."""
    end = a.shape[-1] // pool * pool
    out = a[..., 0:end:pool].copy()
    for j in range(1, pool):
        out += a[..., j:end:pool]
    out /= pool
    return out


def avg_pool_time(x, pool):
    """Non-overlapping mean pooling along the last axis, floor semantics."""
    if pool < 1:
        raise ValueError("pool must be >= 1")
    s = x.shape[-1]
    if s // pool < 1:
        raise ValueError(f"pool {pool} exceeds time extent {s}")
    out = avg_pool_values(x.data, pool)
    end = s // pool * pool

    def backward(g):
        gx = np.empty_like(x.data)
        gx[..., end:] = 0
        share = g / pool
        for j in range(pool):
            gx[..., j:end:pool] = share
        accumulate(x, gx, fresh=True)

    return from_op(out, (x,), backward)


def dropout(x, rate, rng):
    """Inverted dropout: zeroes elements w.p. ``rate`` and scales survivors
    by 1/(1-rate); a rate of 0 is the identity."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout needs an rng")
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    keep = rng.random(x.shape) >= rate
    # a cast from bool and two passes in place: faster than a product with
    # the bool mask, which numpy casts in buffered chunks
    out = keep.astype(x.dtype)
    out *= x.data
    out *= scale

    def backward(g):
        gx = keep.astype(x.dtype)
        gx *= g
        gx *= scale
        accumulate(x, gx, fresh=True)

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


def softmax_rows(a):
    """Row-wise softmax of an array along its last axis, as a new array."""
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
