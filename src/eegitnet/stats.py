"""Paired significance tests over per-subject accuracy tables.

``wilcoxon_one_sided`` is exact: for up to 20 effective pairs the null
distribution of the signed-rank sum is built by a subset-sum recurrence
over the realized rank multiset (doubled to keep midranks integral), so
the p-value is a ratio of integers.  Larger samples fall back to the
normal approximation with continuity and tie corrections.

``paired_t_right`` evaluates the Student-t upper tail through the
regularized incomplete beta function (continued fraction), keeping the
module dependency-free beyond numpy.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

EXACT_LIMIT = 20

WilcoxonResult = namedtuple("WilcoxonResult", ["statistic", "p_value", "n_effective"])
TTestResult = namedtuple("TTestResult", ["statistic", "df", "p_value"])


def _validate_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"paired samples must be equal-length 1-D: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least 2 pairs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite")
    return a, b


def _midranks(values):
    """1-based ranks with ties sharing their average rank."""
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


def rank_sum_counts(ranks):
    """Null distribution of the signed-rank sum over a realized rank multiset.

    Returns an int64 array ``counts`` where ``counts[s]`` is the number of
    sign assignments whose negative-rank sum equals ``s / 2`` (sums are
    doubled so midranks stay integral).  ``counts.sum() == 2**len(ranks)``.
    """
    doubled = np.rint(np.asarray(ranks) * 2).astype(np.int64)
    if not np.allclose(doubled, np.asarray(ranks) * 2):
        raise ValueError("ranks must be integers or half-integers")
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        r = int(r)
        counts[r:] = counts[r:] + counts[:total + 1 - r]
    return counts


def wilcoxon_one_sided(a, b):
    """One-sided signed-rank test of a > b.

    Zero differences are dropped; absolute differences are midranked; the
    statistic W is the rank sum of the negative differences, so small W
    favors the alternative.  Exact p = P(W' <= W) for up to 20 effective
    pairs, normal approximation beyond.
    """
    a, b = _validate_pair(a, b)
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        raise ValueError("all differences are zero; the test is undefined")
    n = d.size
    ranks = _midranks(np.abs(d))
    w = float(ranks[d < 0].sum())
    if n <= EXACT_LIMIT:
        counts = rank_sum_counts(ranks)
        w2 = int(round(2 * w))
        favorable = int(counts[:w2 + 1].sum())
        p = favorable / (2 ** n)
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
        z = (w - mu + 0.5) / math.sqrt(var)
        p = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return WilcoxonResult(w, p, n)


# ----------------------------------------------------------------------
# Student-t upper tail via the regularized incomplete beta function

def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise RuntimeError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b), absolute error well under 1e-10."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t, df):
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    x = df / (df + t * t)
    tail = 0.5 * betainc_reg(df / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def paired_t_right(a, b):
    """Right-tailed paired t-test of mean(a - b) > 0."""
    a, b = _validate_pair(a, b)
    d = a - b
    n = d.size
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise ValueError("differences have zero variance; the test is undefined")
    t = float(d.mean() / (sd / math.sqrt(n)))
    df = n - 1
    return TTestResult(t, df, t_sf(t, df))
