"""Escape-time dynamics of truncated L-series and related maps.

A map is iterated from a grid of pixel centers (escape_time_field) or
from a deterministic cloud of random seeds (estimate_escape_rate).  A
point escapes at the first iterate k <= K whose value exceeds the
radius R in modulus or is non-finite; overflow to inf/nan counts as
escape, never as an error.  Survivor counts S_0..S_K feed a
least-squares fit of ln S_k against k whose negated slope is the
escape rate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lseries import AnTable, eval_truncated_l_many, horner
from .rng import unit_uniform_array
from .stats import centred_sums

NEVER = 0
CUMULATIVE = "cumulative"
FINAL = "final"


class Window(NamedTuple):
    re_min: float
    re_max: float
    im_min: float
    im_max: float


def _check_window(window) -> Window:
    w = Window(*map(float, window))
    if not (0 < w.re_max - w.re_min < math.inf and 0 < w.im_max - w.im_min < math.inf):
        raise ValueError(f"degenerate or unbounded window {w}")
    return w


class DirichletMap:
    """z -> sum_{n<=m} a_n n^(-z) for a coefficient table."""

    def __init__(self, table: AnTable):
        self.table = table

    def apply_many(self, z: np.ndarray) -> np.ndarray:
        return eval_truncated_l_many(self.table, z)

    def __repr__(self):
        return f"DirichletMap({self.table.label or self.table.m})"


class PolynomialMap:
    """z -> c_0 + c_1 z + ... + c_d z^d, coefficients ascending."""

    def __init__(self, coefficients):
        self.coefficients = tuple(complex(c) for c in coefficients)
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")

    def apply_many(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(all="ignore"):
            return horner(np.full(z.shape, self.coefficients[-1]), reversed(self.coefficients[:-1]), z)

    def __repr__(self):
        return f"PolynomialMap(degree={len(self.coefficients) - 1})"


class ScaledExpMap:
    """z -> lam * exp(z), for a finite lam."""

    def __init__(self, lam: complex):
        self.lam = complex(lam)
        if not np.isfinite(self.lam):
            raise ValueError("lambda must be finite")

    def apply_many(self, z: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.lam * np.exp(np.asarray(z, dtype=np.complex128))

    def __repr__(self):
        return f"ScaledExpMap({self.lam})"


def apply_map(spec, z: complex) -> complex:
    """Scalar application, bit-identical to the vector path."""
    return complex(spec.apply_many(np.array([z], dtype=np.complex128))[0])


def _iterate(spec, z0: np.ndarray, radius: float, iterations: int, mode: str):
    """(escape iterate per seed with NEVER = 0, survivors S_0..S_K).

    Only the live orbits are carried, compacted after each test together
    with their seed indices.  CUMULATIVE tests every iterate, FINAL only
    the last one.  The test |z| <= radius is false for inf and nan; the
    radius is capped at the largest float so that non-finite iterates
    escape even for an infinite or nan radius.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if mode not in (CUMULATIVE, FINAL):
        raise ValueError(f"unknown escape mode {mode!r}")
    limit = np.fmin(radius, np.finfo(np.float64).max)
    z = np.asarray(z0, dtype=np.complex128)
    idx = np.arange(z.size)
    escape = np.zeros(z.size, dtype=np.int32)
    survivors = [z.size]
    for k in range(1, iterations + 1):
        if z.size:
            z = spec.apply_many(z)
            if mode == CUMULATIVE or k == iterations:
                keep = np.abs(z) <= limit
                escape[idx[~keep]] = k
                z, idx = z[keep], idx[keep]
        survivors.append(z.size)
    return escape, survivors


def escape_iterate(spec, z0: complex, radius: float, iterations: int, mode: str = CUMULATIVE) -> int:
    """Smallest k <= iterations with |z_k| > radius (or non-finite z_k);
    NEVER (= 0) if the orbit stays bounded.  mode=FINAL tests only the
    last iterate."""
    escape, _ = _iterate(spec, np.array([z0], dtype=np.complex128), radius, iterations, mode)
    return int(escape[0])


_FIELD_BLOCK = 16384  # seeds per _iterate call in a field: bounds each thread's working set


def escape_time_field(
    spec,
    window,
    width: int,
    height: int,
    radius: float,
    iterations: int,
    mode: str = CUMULATIVE,
    workers: int = 1,
) -> np.ndarray:
    """The read-only (height, width) int32 array of escape iterates, NEVER
    or 1..iterations, one per pixel.  Pixel (i, j) seeds at the cell center
    re_min + (i+0.5)*dre/width + 1j*(im_max - (j+0.5)*dim/height), so
    row 0 sits at the top of the window.

    The seeds are dealt out in `workers` strided shares z0[i::workers],
    so neighbouring pixels of similar escape time land in different
    shares.  A pool of `workers` threads iterates one share each, in
    blocks of _FIELD_BLOCK seeds through _iterate, which bounds every
    thread's working set.  A point's orbit is the same in every block, so
    the field is the same for every worker count."""
    w = _check_window(window)
    if width < 1 or height < 1:
        raise ValueError("field dimensions must be positive")
    cols = w.re_min + (np.arange(width, dtype=np.float64) + 0.5) * (w.re_max - w.re_min) / width
    rows = w.im_max - (np.arange(height, dtype=np.float64) + 0.5) * (w.im_max - w.im_min) / height
    z0 = (cols[np.newaxis, :] + 1j * rows[:, np.newaxis]).ravel()
    workers = max(1, min(workers, z0.size))
    escape = np.empty(z0.size, dtype=np.int32)

    def run_share(i: int) -> None:
        share, out = z0[i::workers], escape[i::workers]
        for start in range(0, share.size, _FIELD_BLOCK):
            block = np.ascontiguousarray(share[start : start + _FIELD_BLOCK])
            out[start : start + _FIELD_BLOCK], _ = _iterate(spec, block, radius, iterations, mode)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(run_share, range(workers)))
    values = escape.reshape(height, width)
    values.setflags(write=False)
    return values


def fit_decay(survivors) -> tuple[float, float]:
    """(escape rate, r_squared) from survivor counts S_0..S_K.

    Least squares on {(k, ln S_k) : 1 <= k <= K, S_k > 0}, rate = -slope.
    S_K = S_0 means nothing escaped: rate exactly 0.  S_1 = 0 means
    everything escaped immediately: rate +inf.  With fewer than two
    positive points the endpoint formula ln(S_0/S_k*)/k* is used.
    """
    s = [int(x) for x in survivors]
    if len(s) < 2:
        raise ValueError("need survivor counts S_0..S_K with K >= 1")
    if s[0] <= 0:
        raise ValueError("S_0 must be positive")
    for prev, cur in zip(s, s[1:]):
        if cur < 0 or cur > prev:
            raise ValueError(f"survivor counts must be nonincreasing and nonnegative: {s}")
    if s[-1] == s[0]:
        return 0.0, 1.0
    if s[1] == 0:
        return math.inf, 1.0
    points = [(k, math.log(s[k])) for k in range(1, len(s)) if s[k] > 0]
    if len(points) < 2:
        k_star, _ = points[0]
        return math.log(s[0] / s[k_star]) / k_star, 1.0
    sxx, sxy, syy = centred_sums(*zip(*points))
    slope = sxy / sxx
    r_squared = 1.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return (0.0 if slope == 0.0 else -slope), r_squared


@dataclass(frozen=True)
class EscapeRateEstimate:
    tau: float
    survivors: tuple[int, ...]
    r_squared: float


def seed_cloud(window, n_seeds: int, master_seed: int) -> np.ndarray:
    """Deterministic seed cloud: seed i uses counters 2i and 2i+1."""
    w = _check_window(window)
    u = unit_uniform_array(master_seed, 0, 2 * n_seeds)
    ux, uy = u[0::2], u[1::2]
    return (w.re_min + ux * (w.re_max - w.re_min)) + 1j * (w.im_min + uy * (w.im_max - w.im_min))


def estimate_escape_rate(
    spec, window, n_seeds: int, radius: float, iterations: int, master_seed: int
) -> EscapeRateEstimate:
    """Escape rate of a map over a window from n_seeds random seeds."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    z0 = seed_cloud(window, n_seeds, master_seed)
    _, survivors = _iterate(spec, z0, radius, iterations, CUMULATIVE)
    tau, r_squared = fit_decay(survivors)
    return EscapeRateEstimate(tau, tuple(survivors), r_squared)
