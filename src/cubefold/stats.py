"""Chi-squared statistics and thresholds for `verify uniformity` and
the acceptance gate.

The threshold is a chi-squared quantile, found by bisection on a series /
continued-fraction evaluation of the regularized incomplete gamma
function, so the verification stack carries no numerics dependency
beyond numpy and the standard library.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def chi_squared(observed, expected) -> tuple[float, int]:
    """Pearson statistic sum (obs-exp)^2/exp and dof = bins - 1.

    `observed` is a flat sequence of counts; `expected` per-bin values,
    all strictly positive, summing to the same total.
    """
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise ValueError("observed and expected must have equal length")
    if np.any(exp <= 0):
        raise ValueError("expected counts must all be positive")
    if not math.isclose(obs.sum(), exp.sum(), rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError("observed and expected totals differ")
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, obs.size - 1


def _gammainc_lower_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0 and x > 0."""
    if x < a + 1.0:
        # series expansion
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # continued fraction for Q(a, x), modified Lentz
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return 1.0 - q


def chi2_cdf(x: float, dof: int) -> float:
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0:
        return 0.0
    return _gammainc_lower_reg(dof / 2.0, x / 2.0)


def chi2_threshold(dof: int, confidence: float) -> float:
    """Chi-squared quantile by bisection on the series-evaluated CDF, memoised."""
    return _chi2_threshold(dof, confidence)


@lru_cache(maxsize=None)
def _chi2_threshold(dof: int, confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    lo, hi = 0.0, max(4.0 * dof, 16.0)
    while chi2_cdf(hi, dof) < confidence:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < confidence:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)

