"""Paired significance tests over per-subject accuracy tables.

``wilcoxon_one_sided`` is exact: for up to 20 effective pairs the null
distribution of the signed-rank sum is built by a subset-sum recurrence
over the realized rank multiset (doubled to keep midranks integral), so
the p-value is a ratio of integers.  Larger samples fall back to the
normal approximation with continuity and tie corrections.

``paired_t_right`` takes the Student-t upper tail from
``scipy.special.stdtr``; scipy.special is loaded on the first t-test, not
at import.
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
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


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
# Student-t upper tail

def t_sf(t, df):
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    import scipy.special
    return float(scipy.special.stdtr(df, -t))


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
