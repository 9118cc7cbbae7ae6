"""Rank statistics: Spearman correlation and its t-approximation p-values.

The Student-t survival function is evaluated through the regularized
incomplete beta function, computed with the modified Lentz continued
fraction (relative tolerance 1e-12, at most 500 iterations), switching
to the symmetric tail at x = (a+1)/(a+b+2).  No numerics are borrowed
from scipy so the test suite can use it as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, UndefinedCorrelationError

_TINY = 1e-300
_EPS = 1e-12
_MAX_ITER = 500


def average_ranks(values) -> list[float]:
    """1-based ranks, ties replaced by the mean rank of the tied block."""
    values = list(values)
    if not values:
        raise ValueError("cannot rank an empty sequence")
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _pearson(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    return sxy / math.sqrt(sxx * syy)


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise UndefinedCorrelationError("need at least 3 pairs")
    if any(math.isnan(v) for v in x + y):  # NaN has no rank: it compares false with everything
        raise UndefinedCorrelationError("correlation undefined for NaN input")
    return _pearson(average_ranks(x), average_ranks(y))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m  # one even step, then one odd step, each with its coefficient aa
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T >= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(t):
        raise ValueError("t is NaN")
    if t == 0.0:
        return 0.5
    if t < 0.0:
        return 1.0 - student_t_sf(-t, df)
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class CorrelationReport:
    n: int
    r_s: float
    t_stat: float
    df: int
    p_one_sided: float
    p_two_sided: float
    alpha: float
    reject: bool


def correlation_report(x, y, alpha: float) -> CorrelationReport:
    """Spearman correlation with t-approximation p-values.

    One-sided p is taken in the direction of the observed sign;
    |r_s| = 1 short-circuits to p = 0.  The null is rejected when the
    two-sided p drops below alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    x, y = list(x), list(y)
    r = spearman_rho(x, y)
    n = len(x)
    df = n - 2
    if abs(r) >= 1.0:
        r = math.copysign(1.0, r)
        t = math.copysign(math.inf, r)
        p_one = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p_one = student_t_sf(abs(t), df)
    p_two = min(1.0, 2.0 * p_one)
    return CorrelationReport(n, r, t, df, p_one, p_two, alpha, p_two < alpha)

