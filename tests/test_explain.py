"""Smoothing coefficients, kernel spectra, scalp patterns, atlas export."""
import os
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eegitnet.explain import (MAX_PAD_TO, FilterAtlas, build_atlas, export_atlas,
                              kernel_spectrum, savgol_coeffs, savgol_smooth,
                              spatial_patterns)
from eegitnet.model import ArchConfig, build


# ----------------------------------------------------------------------
# smoothing coefficients: dual-route oracle

def lstsq_center_weight(half_width, order, j):
    """Weight of window sample j on the center estimate, via a least-squares
    fit to an indicator series (independent of the rational-arithmetic path)."""
    offsets = np.arange(-half_width, half_width + 1, dtype=np.float64)
    d = np.vander(offsets, order + 1, increasing=True)
    e = np.zeros(2 * half_width + 1)
    e[j] = 1.0
    coef, *_ = np.linalg.lstsq(d, e, rcond=None)
    return coef[0]  # polynomial value at offset 0


def test_moving_average_case_is_exact():
    c = savgol_coeffs(2, 0)
    assert list(c) == [0.2, 0.2, 0.2, 0.2, 0.2]


def test_quadratic_five_point_closed_form():
    ref = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    np.testing.assert_allclose(savgol_coeffs(2, 2), ref, atol=1e-16)


@pytest.mark.parametrize("l,p", [(1, 1), (2, 2), (3, 3), (4, 2), (5, 3), (6, 5)])
def test_coeffs_match_least_squares_oracle(l, p):
    ours = savgol_coeffs(l, p)
    ref = np.array([lstsq_center_weight(l, p, j) for j in range(2 * l + 1)])
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_coeffs_match_scipy_across_the_grid():
    from scipy.signal import savgol_coeffs as sp
    for l in range(1, 7):
        for p in range(0, 2 * l + 1):
            ours = savgol_coeffs(l, p)
            theirs = sp(2 * l + 1, p)[::-1]
            # scipy computes in floating point; the rational route is tighter
            np.testing.assert_allclose(ours, theirs, atol=5e-9)


def test_coeffs_are_symmetric_and_normalized():
    for l in range(1, 7):
        for p in range(0, 2 * l + 1):
            c = savgol_coeffs(l, p)
            np.testing.assert_array_equal(c, c[::-1])
            assert c.sum() == pytest.approx(1.0, abs=1e-12)


def test_moment_conditions():
    # the kernel reproduces every monomial up to the fit order at the center
    for l, p in ((3, 2), (5, 3), (6, 6)):
        c = savgol_coeffs(l, p)
        n = np.arange(-l, l + 1, dtype=np.float64)
        for m in range(p + 1):
            want = 1.0 if m == 0 else 0.0
            assert np.dot(c, n ** m) == pytest.approx(want, abs=1e-9), (l, p, m)


def test_interpolating_order_gives_the_delta_kernel():
    c = savgol_coeffs(3, 6)
    ref = np.zeros(7)
    ref[3] = 1.0
    np.testing.assert_allclose(c, ref, atol=1e-12)


def test_order_beyond_window_is_rejected():
    with pytest.raises(ValueError, match="rank"):
        savgol_coeffs(2, 5)
    with pytest.raises(ValueError):
        savgol_coeffs(0, 0)
    with pytest.raises(ValueError):
        savgol_coeffs(2, -1)


# ----------------------------------------------------------------------
# smoothing a series

def test_polynomial_reproduction_all_orders(rng):
    for l in range(1, 7):
        for p in range(0, 2 * l + 1):
            coef = rng.standard_normal(p + 1)
            t = np.linspace(-1, 1, 4 * l + 9)
            x = np.polyval(coef, t)
            sm = savgol_smooth(x, l, p)
            scale = max(np.abs(x).max(), 1.0)
            assert np.abs(sm[l:-l] - x[l:-l]).max() / scale < 1e-9, (l, p)


def test_edge_fit_reproduces_low_order_polynomials():
    t = np.arange(30, dtype=np.float64)
    x = 0.5 * t ** 2 - 3 * t + 7
    sm = savgol_smooth(x, 5, 3)
    np.testing.assert_allclose(sm, x, rtol=1e-8)


def test_smoothing_reduces_noise_variance(rng):
    x = rng.standard_normal(5000)
    sm = savgol_smooth(x, 5, 3)
    # white-noise variance shrinks by the kernel's energy
    expected = np.square(savgol_coeffs(5, 3)).sum()
    got = sm[5:-5].var() / x.var()
    assert got == pytest.approx(expected, rel=0.1)
    assert got < 0.5


def test_smooth_input_validation(rng):
    with pytest.raises(ValueError, match="shorter"):
        savgol_smooth(np.ones(5), 3, 1)
    with pytest.raises(ValueError, match="1-D"):
        savgol_smooth(np.ones((4, 4)), 1, 1)


# ----------------------------------------------------------------------
# kernel spectra

def naive_dft_magnitude(kernel, pad_to):
    out = np.empty(pad_to // 2 + 1)
    for m in range(pad_to // 2 + 1):
        acc = 0.0 + 0.0j
        for k, v in enumerate(kernel):
            acc += v * np.exp(-2j * np.pi * m * k / pad_to)
        out[m] = abs(acc)
    return out


def test_spectrum_matches_naive_dft(rng):
    kernel = rng.standard_normal(16)
    freqs, mag = kernel_spectrum(kernel, fs=125.0, pad_to=64)
    np.testing.assert_allclose(mag, naive_dft_magnitude(kernel, 64), atol=1e-10)
    np.testing.assert_allclose(freqs, np.arange(33) * 125.0 / 64, rtol=1e-15)


def test_spectrum_grid_never_exceeds_nyquist():
    freqs, _ = kernel_spectrum(np.ones(8), fs=250.0, pad_to=512)
    assert freqs[-1] == 125.0
    assert len(freqs) == 257
    assert (np.diff(freqs) > 0).all()


def test_spectrum_peak_of_a_pure_tone_kernel():
    fs, pad = 125.0, 512
    k = np.arange(64)
    f0 = 12.0
    kernel = np.cos(2 * np.pi * f0 * k / fs)
    freqs, mag = kernel_spectrum(kernel, fs, pad)
    assert abs(freqs[np.argmax(mag)] - f0) < fs / 64  # within native resolution


def test_longer_kernels_resolve_finer_structure():
    # a 64-tap kernel at 125 Hz natively resolves ~2 Hz; a 16-tap kernel
    # cannot represent oscillations slower than its own span
    fs = 125.0
    assert fs / 64 < 2.0 < fs / 16
    # zero padding refines the evaluation grid without changing that
    freqs, _ = kernel_spectrum(np.ones(16), fs, 512)
    assert freqs[1] == fs / 512


def test_spectrum_input_validation():
    with pytest.raises(ValueError):
        kernel_spectrum(np.ones(1), 125.0)
    with pytest.raises(ValueError, match="pad_to"):
        kernel_spectrum(np.ones(64), 125.0, pad_to=32)
    assert len(kernel_spectrum(np.ones(64), 125.0, pad_to=MAX_PAD_TO)[0]) == MAX_PAD_TO // 2 + 1
    with pytest.raises(ValueError, match="pad_to"):
        kernel_spectrum(np.ones(64), 125.0, pad_to=MAX_PAD_TO + 1)


# ----------------------------------------------------------------------
# spatial patterns and the atlas

def small_model(seed=3, channels=10):
    return build(ArchConfig(n_channels=channels, n_samples=80, n_classes=2),
                 seed=seed)


def test_unmixing_rows_are_the_spatial_kernels():
    model = small_model()
    w, w_plus = spatial_patterns(model)
    assert w.shape == (14, 10)
    assert w_plus.shape == (10, 14)
    row = 0
    for i, (f, _) in enumerate(model.config.inception_branches):
        kernels = model.params[f"branch{i}.spatial.w"].data
        for j in range(f):
            np.testing.assert_allclose(w[row], kernels[j, 0, :, 0], rtol=1e-7)
            row += 1
    # with 10 channels W is 14x10, generically full column rank: W+ W = I_10
    np.testing.assert_allclose(w_plus @ w, np.eye(10), atol=1e-6)


def test_wide_unmixing_has_full_row_rank():
    model = build(ArchConfig(n_channels=22, n_samples=80, n_classes=2), seed=5)
    w, w_plus = spatial_patterns(model)
    assert w.shape == (14, 22)
    np.testing.assert_allclose(w @ w_plus, np.eye(14), atol=1e-6)


def test_zero_spatial_kernel_warns():
    model = small_model()
    model.params["branch1.spatial.w"].data[2] = 0.0
    with pytest.warns(UserWarning, match="all-zero"):
        spatial_patterns(model)


def assert_penrose(a, ap, tol=1e-10):
    np.testing.assert_allclose(a @ ap @ a, a, atol=tol)
    np.testing.assert_allclose(ap @ a @ ap, ap, atol=tol)
    np.testing.assert_allclose(a @ ap, (a @ ap).T, atol=tol)
    np.testing.assert_allclose(ap @ a, (ap @ a).T, atol=tol)


def paper_model(seed=7):
    return build(ArchConfig(n_channels=22, n_samples=1125, n_classes=4), seed=seed)


def test_patterns_are_the_pseudo_inverse_at_the_paper_shape():
    w, w_plus = spatial_patterns(paper_model())
    assert w.shape == (14, 22)
    assert_penrose(w, w_plus)
    # W+ is the minimum-norm least-squares solution of W X = I
    ref = np.linalg.lstsq(w, np.eye(14), rcond=None)[0]
    np.testing.assert_allclose(w_plus, ref, rtol=0, atol=1e-10)


def zeroed_row_patterns():
    model = paper_model()
    model.params["branch1.spatial.w"].data[2] = 0.0   # row 4 of W
    with pytest.warns(UserWarning, match="branch 1 filter 2: spatial kernel is all-zero"):
        w, w_plus = spatial_patterns(model)
    return model, w, w_plus


def test_pinv_rank_deficient():
    _, w, w_plus = zeroed_row_patterns()
    assert np.linalg.matrix_rank(w) == 13
    assert_penrose(w, w_plus)
    ref = np.linalg.lstsq(w, np.eye(14), rcond=1e-10)[0]
    np.testing.assert_allclose(w_plus, ref, rtol=0, atol=1e-10)


def test_pinv_cutoff_suppresses_tiny_directions():
    model, w, w_plus = zeroed_row_patterns()
    # rounding leaves a singular value near 1e-16; it must be dropped, not
    # inverted into a ~1e16 pattern
    assert np.abs(w_plus).max() < 100.0
    np.testing.assert_allclose(w_plus[:, 4], 0.0, rtol=0, atol=1e-12)
    with pytest.warns(UserWarning):
        entry = build_atlas(model, fs=250.0).entries[4]
    assert (entry.branch, entry.index, entry.degenerate) == (1, 2, True)
    assert not entry.pattern.any()


def test_atlas_inventory_and_order():
    atlas = build_atlas(small_model(), fs=125.0)
    assert isinstance(atlas, FilterAtlas)
    assert len(atlas.entries) == 14
    assert [e.kernel_extent for e in atlas.entries] == [16] * 2 + [32] * 4 + [64] * 8
    assert [(e.branch, e.index) for e in atlas.entries[:4]] == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert atlas.nyquist_hz == 62.5
    for e in atlas.entries:
        assert len(e.freqs) == 257
        assert e.freqs[-1] == 62.5
        assert np.abs(e.pattern).max() == pytest.approx(1.0)
        assert len(e.pattern) == 10


def test_atlas_smoothing_follows_the_raw_spectrum():
    atlas = build_atlas(small_model(), fs=125.0, savgol_half_width=5, savgol_order=3)
    for e in atlas.entries[:3]:
        ref = savgol_smooth(e.raw_spectrum, 5, 3)
        np.testing.assert_allclose(e.smoothed_spectrum, ref, rtol=1e-12)


def test_atlas_uses_montage_for_22_channels():
    from eegitnet.data import montage_22
    atlas = build_atlas(build(ArchConfig(n_channels=22, n_samples=80,
                                         n_classes=2), seed=0), fs=125.0)
    assert atlas.channel_names == montage_22()[0]


def test_atlas_channel_metadata_must_cover_channels():
    with pytest.raises(ValueError, match="channel metadata"):
        build_atlas(small_model(), fs=125.0, channel_names=("a", "b"),
                    channel_xy=np.zeros((2, 2)))


def test_degenerate_entry_has_zero_pattern():
    model = small_model()
    model.params["branch0.spatial.w"].data[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        atlas = build_atlas(model, fs=125.0)
    assert atlas.entries[0].degenerate
    assert not atlas.entries[0].pattern.any()
    assert not atlas.entries[1].degenerate


def test_export_writes_csvs_and_svg(tmp_path):
    atlas = build_atlas(small_model(), fs=125.0)
    paths = export_atlas(atlas, tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert sum(n.startswith("spectrum_") for n in names) == 14
    assert sum(n.startswith("pattern_") for n in names) == 14
    assert "atlas.svg" in names
    assert len(paths) == 29

    # spectrum CSV re-parses bit-exactly
    e = atlas.entries[0]
    lines = (tmp_path / "spectrum_b0_f0.csv").read_text().strip().splitlines()
    assert lines[0] == "freq,raw,smoothed"
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(cols[:, 0], e.freqs)
    np.testing.assert_array_equal(cols[:, 1], e.raw_spectrum)
    np.testing.assert_array_equal(cols[:, 2], e.smoothed_spectrum)

    # pattern CSV carries names, coordinates, and exact values
    plines = (tmp_path / "pattern_b2_f7.csv").read_text().strip().splitlines()
    assert plines[0] == "channel,x,y,value"
    assert len(plines) == 11
    vals = np.array([float(ln.split(",")[3]) for ln in plines[1:]])
    np.testing.assert_array_equal(vals, atlas.entries[-1].pattern)

    # the SVG is well-formed XML and states the validity band
    svg = (tmp_path / "atlas.svg").read_text()
    ET.fromstring(svg)
    assert "valid below 62.5 Hz" in svg


def test_export_marks_degenerate_patterns(tmp_path):
    model = small_model()
    model.params["branch0.spatial.w"].data[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        atlas = build_atlas(model, fs=125.0)
    export_atlas(atlas, tmp_path)
    assert "degenerate" in (tmp_path / "atlas.svg").read_text()


def test_an_electrode_on_a_grid_node_gives_that_node_its_own_value():
    # the inverse-distance weight is infinite at an electrode, so a grid node
    # that is an electrode takes exactly that electrode's value
    from eegitnet.explain import _idw_topomap
    coords = np.linspace(-1.0, 1.0, 26)
    xy = np.array([[0.3, -0.2], [coords[10], coords[15]], [coords[20], coords[5]]])
    values = np.array([0.7, -0.4, 0.25])
    grid, inside = _idw_topomap(xy, values)
    assert inside[15, 10] and inside[5, 20]
    assert grid[15, 10] == -0.4 and grid[5, 20] == 0.25
    assert np.abs(grid[inside]).max() <= 0.7


def scalar_topomap_rects(atlas):
    """Every topomap ``<rect>`` line of the atlas SVG, written cell by cell
    with the grey level of each value computed on its own, as the exporter
    did before it computed a grid's levels at once."""
    from eegitnet.explain import (_CELL_H, _CELL_W, _PAD, _SPEC_H, _SPEC_W, _TOPO_R,
                                  _idw_topomap)
    lines = []
    for col, branch in enumerate(sorted({e.branch for e in atlas.entries})):
        entries = [e for e in atlas.entries if e.branch == branch]
        for rowi, entry in enumerate(entries):
            if entry.degenerate:
                continue
            cx = _PAD + col * _CELL_W + _SPEC_W + _PAD + _TOPO_R
            cy = 40 + rowi * _CELL_H + 24 + _SPEC_H // 2
            grid, inside = _idw_topomap(atlas.channel_xy, entry.pattern)
            cell = 2.0 * _TOPO_R / grid.shape[0]
            for r in range(grid.shape[0]):
                for c in range(grid.shape[1]):
                    if inside[r, c]:
                        g = int(round(255 * (np.clip(grid[r, c], -1.0, 1.0) + 1.0) / 2.0))
                        lines.append(f'<rect x="{cx - _TOPO_R + c * cell:.1f}" '
                                     f'y="{cy + _TOPO_R - (r + 1) * cell:.1f}" '
                                     f'width="{cell:.2f}" height="{cell:.2f}" '
                                     f'fill="rgb({g},{g},{g})"/>')
    return lines


@pytest.mark.parametrize("seed,channels", [(0, 8), (1, 22), (2, 10), (3, 22)])
def test_svg_topomaps_match_the_cell_by_cell_levels(tmp_path, seed, channels):
    # randomised spatial filters, one of them all-zero; the exported topomap
    # cells are byte-identical to the cell-by-cell reference
    model = small_model(seed=seed, channels=channels)
    rng = np.random.default_rng(seed)
    for i in range(3):
        p = model.params[f"branch{i}.spatial.w"]
        p.data = (p.data + rng.standard_normal(p.shape)).astype(p.data.dtype)
    model.params["branch1.spatial.w"].data[seed % 4] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        atlas = build_atlas(model, fs=125.0)
    export_atlas(atlas, tmp_path)
    svg = (tmp_path / "atlas.svg").read_text().splitlines()
    rects = [line for line in svg if line.startswith("<rect x=")]
    assert rects == scalar_topomap_rects(atlas)
    assert atlas.entries[2 + seed % 4].degenerate
    assert len(rects) == 484 * (len(atlas.entries) - 1)   # cells inside the disc
