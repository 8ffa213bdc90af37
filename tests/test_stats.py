"""Significance tests against brute-force enumeration and quadrature oracles."""
import itertools
import math

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad

from eegitnet.stats import (EXACT_LIMIT, _midranks, paired_t_right,
                            rank_sum_counts, t_sf, wilcoxon_one_sided)


# ----------------------------------------------------------------------
# brute-force oracle: enumerate every sign assignment

def loop_midranks(values):
    """1-based midranks by sorting and scanning each run of ties; the
    reference for ``_midranks``."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j < n and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


def brute_force_p(diffs):
    """P(negative-rank sum <= observed) by enumerating all 2^n sign vectors."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0]
    n = len(d)
    ranks = loop_midranks(np.abs(d))
    observed = ranks[d < 0].sum()
    favorable = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= observed + 1e-9:
            favorable += 1
    return favorable / 2 ** n, observed


def test_midranks_match_the_loop_on_tie_heavy_input():
    rng = np.random.default_rng(13)
    for n in range(1, 41):
        for _ in range(5):
            values = rng.integers(0, 6, n).astype(np.float64)
            np.testing.assert_array_equal(_midranks(values), loop_midranks(values))


def test_rank_sum_counts_total_and_symmetry():
    ranks = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    counts = rank_sum_counts(ranks)
    assert counts.sum() == 2 ** 5
    # the null is symmetric: flipping every sign mirrors the sum
    np.testing.assert_array_equal(counts, counts[::-1])


def test_rank_sum_counts_small_case_by_hand():
    # ranks {1, 2}: sums 0,1,2,3 each from exactly one sign vector
    counts = rank_sum_counts(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(counts[[0, 2, 4, 6]], [1, 1, 1, 1])
    assert counts.sum() == 4


def test_rank_sum_counts_handles_midranks():
    counts = rank_sum_counts(np.array([1.5, 1.5, 3.0]))
    assert counts.sum() == 8
    assert counts[0] == 1  # empty set
    assert counts[3] == 2  # either of the tied 1.5 ranks


def test_rank_sum_counts_rejects_fractional_ranks():
    with pytest.raises(ValueError):
        rank_sum_counts(np.array([1.3, 2.0]))


@pytest.mark.parametrize("seed", range(30))
def test_exact_p_matches_brute_force_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    d = np.round(rng.standard_normal(n) * 4, 1)
    d[d == 0] = 0.5
    if rng.random() < 0.5:  # force ties in |d| half the time
        d[1] = -d[0]
    a = np.cumsum(np.abs(rng.standard_normal(n))) + 10
    b = a - d
    res = wilcoxon_one_sided(a, b)
    # both routes must rank the *realized* float differences
    ref_p, ref_w = brute_force_p(a - b)
    assert res.statistic == pytest.approx(ref_w, abs=1e-12)
    assert res.p_value == pytest.approx(ref_p, abs=1e-12)


def test_wilcoxon_matches_scipy_exact_mode():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        d = a - b
        if (d == 0).any() or len(np.unique(np.abs(d))) != n:
            continue  # scipy's exact mode requires no zeros and no ties
        ours = wilcoxon_one_sided(a, b)
        theirs = scipy.stats.wilcoxon(a, b, alternative="greater", method="exact")
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-12)


def test_wilcoxon_drops_zero_differences():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 1.0, 2.0, 5.0, 4.0])
    res = wilcoxon_one_sided(a, b)
    assert res.n_effective == 4


def test_wilcoxon_all_zero_differences_is_an_error():
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="zero"):
        wilcoxon_one_sided(a, a)


def test_wilcoxon_validates_input():
    with pytest.raises(ValueError):
        wilcoxon_one_sided([1.0], [2.0])
    with pytest.raises(ValueError):
        wilcoxon_one_sided([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        wilcoxon_one_sided([1.0, np.nan], [0.0, 0.0])


def test_wilcoxon_direction():
    rng = np.random.default_rng(0)
    base = rng.standard_normal(12)
    better = base + 1.0
    assert wilcoxon_one_sided(better, base).p_value < 0.01
    assert wilcoxon_one_sided(base, better).p_value > 0.99


def test_large_sample_normal_approximation_matches_scipy():
    rng = np.random.default_rng(3)
    n = EXACT_LIMIT + 15
    a = rng.standard_normal(n) + 0.3
    b = rng.standard_normal(n)
    d = a - b
    assert (d != 0).all()
    ours = wilcoxon_one_sided(a, b)
    theirs = scipy.stats.wilcoxon(a, b, alternative="greater",
                                  method="approx", correction=True)
    assert ours.n_effective == n
    assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)


def test_exact_and_approximate_agree_near_the_boundary():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(EXACT_LIMIT) + 0.4
    b = rng.standard_normal(EXACT_LIMIT)
    exact = wilcoxon_one_sided(a, b)
    # the approximation is asymptotically close at n = 20
    mu = EXACT_LIMIT * (EXACT_LIMIT + 1) / 4
    var = EXACT_LIMIT * (EXACT_LIMIT + 1) * (2 * EXACT_LIMIT + 1) / 24
    z = (exact.statistic - mu + 0.5) / math.sqrt(var)
    approx_p = 0.5 * math.erfc(-z / math.sqrt(2))
    assert exact.p_value == pytest.approx(approx_p, abs=0.015)


# ----------------------------------------------------------------------
# Student-t right tail

def t_density(x, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


@pytest.mark.parametrize("df", [1, 2, 5, 8, 30])
@pytest.mark.parametrize("t", [-2.5, -0.7, 0.0, 0.3, 1.9, 4.2])
def test_t_sf_matches_quadrature(df, t):
    ref, err = quad(t_density, t, np.inf, args=(df,))
    assert t_sf(t, df) == pytest.approx(ref, abs=max(1e-10, 10 * err))


def test_t_sf_matches_scipy_grid():
    for df in (1, 3, 9, 25, 100, 10**6):
        for t in np.linspace(-6, 6, 25):
            assert t_sf(float(t), df) == pytest.approx(
                scipy.stats.t.sf(t, df), rel=1e-10, abs=1e-14)


def test_t_sf_matches_the_closed_forms_at_one_and_two_df():
    # scipy is no oracle near t = 0: its t.sf(1e-8, 1) is off by 3.1e-9
    for t in [s * 10.0 ** (k / 2) for k in range(-20, 13) for s in (1, -1)]:
        assert t_sf(t, 1) == pytest.approx(math.atan2(1, t) / math.pi, rel=1e-13, abs=0)
        r = math.sqrt(2 + t * t)
        upper = 1 / (r * (r + abs(t)))
        assert t_sf(t, 2) == pytest.approx(upper if t >= 0 else 1 - upper, rel=1e-13, abs=0)


def test_t_sf_keeps_its_precision_at_large_df():
    # near x = df/(df + t**2) = 1 the continued fraction's terms are summed
    # from 1 - x; their direct form erred by 4e-10 at df = 1e7 and 2e-9 at 1e8
    for df in (10**7, 10**8):
        for t in np.linspace(-6, 6, 49):
            assert t_sf(float(t), df) == pytest.approx(
                scipy.stats.t.sf(t, df), rel=1e-12, abs=0)


def test_t_sf_edges():
    assert t_sf(0.0, 3) == 0.5
    assert t_sf(math.inf, 3) == 0.0
    assert t_sf(-math.inf, 3) == 1.0
    assert math.isnan(t_sf(math.nan, 3))
    for df in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="df must be finite and >= 1"):
            t_sf(1.0, df)


def test_paired_t_matches_scipy():
    rng = np.random.default_rng(9)
    for n in (4, 9, 30):
        a = rng.standard_normal(n) + 0.5
        b = rng.standard_normal(n)
        ours = paired_t_right(a, b)
        theirs = scipy.stats.ttest_rel(a, b, alternative="greater")
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-10)
        assert ours.df == n - 1


def test_paired_t_rejects_constant_differences():
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        paired_t_right(a + 2.0, a)


def test_published_accuracy_columns_give_the_quoted_p():
    ours = [84.38, 62.85, 89.93, 69.10, 74.31, 57.64, 88.54, 83.68, 80.21]
    baseline = [81.94, 56.94, 90.62, 67.01, 72.57, 58.68, 76.04, 81.25, 78.12]
    res = wilcoxon_one_sided(ours, baseline)
    assert res.p_value == 5 / 512
    assert round(res.p_value, 3) == 0.010
