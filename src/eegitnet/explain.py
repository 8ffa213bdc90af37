"""What the trained filters learned: kernel spectra and scalp patterns.

Temporal kernels are summarized by the magnitude of their zero-padded
Fourier transforms, smoothed with a least-squares polynomial
(Savitzky-Golay) filter whose coefficients are derived exactly with
rational arithmetic.  The depthwise spatial kernels form an unmixing
matrix W (sources = W electrodes); the columns of its Moore-Penrose
pseudo-inverse are the scalp patterns that localize each learned source.

``export_atlas`` writes one CSV per spectrum, one per pattern, and a
self-contained SVG sheet with inverse-distance-weighted topographic maps.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from .data import default_channels
from .fileio import atomic_write, csv_text
from .model import ITNetModel

MAX_PAD_TO = 1 << 16   # the longest kernel_spectrum DFT


# ----------------------------------------------------------------------
# Savitzky-Golay filtering

def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; raises on rank deficiency."""
    n = len(matrix)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("normal equations are rank-deficient")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [vr - factor * vc for vr, vc in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def savgol_coeffs(half_width, order):
    """Central smoothing weights for window half-width l and fit order p.

    Row 0 of (D^T D)^-1 D^T for the design ``D[n, m] = n**m`` over offsets
    n in [-l, l], computed in exact rational arithmetic so the high-order
    cases stay precise.
    """
    l, p = half_width, order
    if l < 1:
        raise ValueError("half_width must be >= 1")
    if p < 0:
        raise ValueError("order must be >= 0")
    if p > 2 * l:
        raise ValueError(f"order {p} exceeds 2*half_width = {2 * l}: "
                         "the normal equations would be rank-deficient")
    offsets = range(-l, l + 1)
    gram = [[Fraction(int(sum(n ** (i + j) for n in offsets))) for j in range(p + 1)]
            for i in range(p + 1)]
    e0 = [Fraction(1 if i == 0 else 0) for i in range(p + 1)]
    solution = _solve_exact(gram, e0)
    coeffs = [sum(solution[m] * Fraction(n) ** m for m in range(p + 1)) for n in offsets]
    return np.array([float(c) for c in coeffs])


def savgol_smooth(series, half_width, order):
    """Smooth a 1-D series by local least-squares polynomial fits.

    Interior points are the correlation of the series with the central
    coefficient kernel.  Each of the ``half_width`` points at either edge
    refits the polynomial on its truncated one-sided window and evaluates
    it there (order capped at window length - 1).
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    l = half_width
    n = x.size
    if n < 2 * l + 1:
        raise ValueError(f"series of length {n} is shorter than the window {2 * l + 1}")
    out = np.empty(n)
    out[l:n - l] = np.correlate(x, savgol_coeffs(l, order), mode="valid")
    for i in list(range(l)) + list(range(n - l, n)):
        lo, hi = max(0, i - l), min(n, i + l + 1)
        deg = min(order, hi - lo - 1)
        poly = Polynomial.fit(np.arange(lo, hi), x[lo:hi], deg)
        out[i] = poly(i)
    return out


# ----------------------------------------------------------------------
# spectra and patterns

def kernel_spectrum(kernel, fs, pad_to=512):
    """One-sided magnitude spectrum of a zero-padded kernel.

    Frequencies are k * fs / pad_to for k = 0 .. pad_to // 2; nothing above
    fs / 2 is ever produced.  ``pad_to`` runs from the kernel's length to
    ``MAX_PAD_TO``: a longer DFT only interpolates the spectrum of a kernel
    of at most a few dozen taps, and a huge one would exhaust memory.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size < 2:
        raise ValueError("kernel must be a 1-D sequence of length >= 2")
    if pad_to < kernel.size:
        raise ValueError(f"pad_to ({pad_to}) must be >= kernel length ({kernel.size})")
    if pad_to > MAX_PAD_TO:
        raise ValueError(f"pad_to ({pad_to}) must be <= {MAX_PAD_TO}")
    freqs = np.fft.rfftfreq(pad_to, 1.0 / fs)
    magnitude = np.abs(np.fft.rfft(kernel, n=pad_to))
    return freqs, magnitude


def spatial_patterns(model: ITNetModel):
    """The unmixing matrix W and its Moore-Penrose pseudo-inverse.

    Row order: branches in concatenation order, temporal filters within
    each branch; each row is that filter's electrode-spanning depthwise
    kernel.  Columns of the returned ``w_plus`` are the scalp patterns.
    Singular values under 1e-10 of the largest are not inverted.  An
    all-zero row is reported with a warning; its pattern column comes out
    zero.
    """
    rows = []
    for i, (f, _) in enumerate(model.config.inception_branches):
        spatial = model.params[f"branch{i}.spatial.w"].data
        for j in range(f):
            row = spatial[j, 0, :, 0].astype(np.float64)
            if not row.any():
                warnings.warn(f"branch {i} filter {j}: spatial kernel is all-zero; "
                              "its pattern is degenerate")
            rows.append(row)
    w = np.stack(rows)
    return w, np.linalg.pinv(w, rcond=1e-10)


# ----------------------------------------------------------------------
# atlas

@dataclass
class FilterEntry:
    branch: int
    index: int
    kernel_extent: int
    freqs: np.ndarray
    raw_spectrum: np.ndarray
    smoothed_spectrum: np.ndarray
    pattern: np.ndarray
    degenerate: bool


@dataclass
class FilterAtlas:
    """Per-filter spectra and scalp patterns of one trained model."""

    entries: list
    channel_names: tuple
    channel_xy: np.ndarray
    fs: float
    nyquist_hz: float


def build_atlas(model: ITNetModel, fs, savgol_half_width=5, savgol_order=3,
                pad_to=512, channel_names=None, channel_xy=None) -> FilterAtlas:
    """Spectra (smoothed) plus max-abs-normalized scalp patterns for every
    temporal filter.  Channel metadata defaults to the built-in layouts
    when not supplied."""
    c = model.config.n_channels
    if channel_names is None or channel_xy is None:
        channel_names, channel_xy = default_channels(c)
    channel_xy = np.asarray(channel_xy, dtype=np.float64)
    if len(channel_names) != c or channel_xy.shape != (c, 2):
        raise ValueError(f"channel metadata must cover {c} channels")

    w, w_plus = spatial_patterns(model)
    entries = []
    row = 0
    for i, (f, k) in enumerate(model.config.inception_branches):
        kernels = model.params[f"branch{i}.temporal.w"].data
        for j in range(f):
            freqs, raw = kernel_spectrum(kernels[j, 0, 0, :], fs, pad_to)
            smoothed = savgol_smooth(raw, savgol_half_width, savgol_order)
            degenerate = not w[row].any()
            if degenerate:
                pattern = np.zeros(c)
            else:
                pattern = w_plus[:, row].copy()
                peak = np.abs(pattern).max()
                if peak > 0:
                    pattern /= peak
            entries.append(FilterEntry(i, j, k, freqs, raw, smoothed, pattern, degenerate))
            row += 1
    return FilterAtlas(entries, tuple(channel_names), channel_xy, float(fs), float(fs) / 2.0)


# ----------------------------------------------------------------------
# export

def _idw_topomap(xy, values, res=26, power=2):
    """Inverse-distance-weighted interpolation of electrode values on a
    res x res grid clipped to the unit disc.  Returns (grid, mask)."""
    coords = np.linspace(-1.0, 1.0, res)
    gx, gy = np.meshgrid(coords, coords)
    inside = gx ** 2 + gy ** 2 <= 1.0
    grid = np.zeros((res, res))
    d2 = ((gx[..., None] - xy[:, 0]) ** 2 + (gy[..., None] - xy[:, 1]) ** 2)
    exact = d2 < 1e-12
    weights = 1.0 / np.maximum(d2, 1e-12) ** (power / 2.0)
    est = (weights * values).sum(axis=-1) / weights.sum(axis=-1)
    hit = exact.any(axis=-1)
    if hit.any():
        est[hit] = values[np.argmax(exact[hit], axis=-1)]
    grid[inside] = est[inside]
    return grid, inside


def _gray_levels(grid):
    """Grey level, 0 to 255, of each value of ``grid`` clipped to [-1, 1],
    rounded half to even, as nested lists of ints."""
    return np.rint(255 * (np.clip(grid, -1.0, 1.0) + 1.0) / 2.0).astype(int).tolist()


_CELL_W, _SPEC_W, _SPEC_H, _TOPO_R, _CELL_H, _PAD = 360, 200, 90, 48, 130, 20


def _svg_cell(entry, atlas, x0, y0):
    parts = [f'<text x="{x0}" y="{y0 + 12}" font-size="12" font-family="sans-serif">'
             f'branch {entry.branch} filter {entry.index} '
             f'(kernel {entry.kernel_extent})</text>']
    # spectrum: raw in light gray, smoothed in black
    sx, sy = x0, y0 + 24
    fmax = atlas.nyquist_hz
    ymax = max(float(entry.raw_spectrum.max()), 1e-12)
    for series, color in ((entry.raw_spectrum, "#bbbbbb"), (entry.smoothed_spectrum, "#000000")):
        pts = " ".join(
            f"{sx + _SPEC_W * f / fmax:.1f},{sy + _SPEC_H * (1 - max(v, 0.0) / ymax):.1f}"
            for f, v in zip(entry.freqs, series))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
    parts.append(f'<line x1="{sx}" y1="{sy + _SPEC_H}" x2="{sx + _SPEC_W}" '
                 f'y2="{sy + _SPEC_H}" stroke="#666666" stroke-width="1"/>')
    parts.append(f'<text x="{sx}" y="{sy + _SPEC_H + 12}" font-size="9" '
                 f'font-family="sans-serif">0</text>')
    parts.append(f'<text x="{sx + _SPEC_W - 28}" y="{sy + _SPEC_H + 12}" font-size="9" '
                 f'font-family="sans-serif">{fmax:g} Hz</text>')
    # topographic map
    cx, cy = x0 + _SPEC_W + _PAD + _TOPO_R, y0 + 24 + _SPEC_H // 2
    if entry.degenerate:
        parts.append(f'<text x="{cx - _TOPO_R}" y="{cy}" font-size="10" '
                     f'font-family="sans-serif">degenerate</text>')
    else:
        grid, inside = _idw_topomap(atlas.channel_xy, entry.pattern)
        levels = _gray_levels(grid)
        cell = 2.0 * _TOPO_R / grid.shape[0]
        for r, ccol in np.argwhere(inside).tolist():
            px = cx - _TOPO_R + ccol * cell
            py = cy + _TOPO_R - (r + 1) * cell  # row 0 is y=-1
            g = levels[r][ccol]
            parts.append(f'<rect x="{px:.1f}" y="{py:.1f}" width="{cell:.2f}" '
                         f'height="{cell:.2f}" fill="rgb({g},{g},{g})"/>')
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="{_TOPO_R}" fill="none" '
                 f'stroke="#000000" stroke-width="1"/>')
    for (ex, ey) in atlas.channel_xy:
        parts.append(f'<circle cx="{cx + ex * _TOPO_R:.1f}" cy="{cy - ey * _TOPO_R:.1f}" '
                     f'r="1.5" fill="none" stroke="#444444" stroke-width="0.6"/>')
    return parts


def atlas_svg_text(atlas: FilterAtlas):
    branches = sorted({e.branch for e in atlas.entries})
    per_branch = {b: [e for e in atlas.entries if e.branch == b] for b in branches}
    n_rows = max(len(v) for v in per_branch.values())
    width = _PAD + len(branches) * _CELL_W
    height = 60 + n_rows * _CELL_H
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
             f'<text x="{_PAD}" y="24" font-size="14" font-family="sans-serif">'
             f'Filter atlas: spectra valid below {atlas.nyquist_hz:g} Hz '
             f'(sampling rate {atlas.fs:g} Hz); patterns grayscale, '
             f'symmetric about zero</text>']
    for col, b in enumerate(branches):
        for rowi, entry in enumerate(per_branch[b]):
            parts.extend(_svg_cell(entry, atlas, _PAD + col * _CELL_W, 40 + rowi * _CELL_H))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_atlas(atlas: FilterAtlas, out_dir):
    """Write spectrum and pattern CSVs plus the SVG sheet; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for entry in atlas.entries:
        spec_path = os.path.join(out_dir, f"spectrum_b{entry.branch}_f{entry.index}.csv")
        atomic_write(spec_path, csv_text(
            ("freq", "raw", "smoothed"),
            zip(entry.freqs, entry.raw_spectrum, entry.smoothed_spectrum)).encode("utf-8"))
        written.append(spec_path)
        pat_path = os.path.join(out_dir, f"pattern_b{entry.branch}_f{entry.index}.csv")
        atomic_write(pat_path, csv_text(
            ("channel", "x", "y", "value"),
            zip(atlas.channel_names, *atlas.channel_xy.T, entry.pattern)).encode("utf-8"))
        written.append(pat_path)
    svg_path = os.path.join(out_dir, "atlas.svg")
    atomic_write(svg_path, atlas_svg_text(atlas).encode("utf-8"))
    written.append(svg_path)
    return written
