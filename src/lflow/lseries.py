"""Dirichlet coefficients of elliptic-curve L-series and truncated evaluation.

Every Frobenius trace comes from one finite-field point count: a_p =
p - N_p, with N_p the number of affine solutions of the Weierstrass
equation mod p, at good and bad primes alike.  The reduction type is read
off the discriminant, not off the points: the cubic is singular mod p
exactly when p | disc, and it then has exactly one singular point, an
affine one (Silverman, The Arithmetic of Elliptic Curves, Prop. III.1.4
and III.2.5).  For odd p the count evaluates the completed-square cubic
g(x) at every x in one int64 Horner pass and reads N_p off a histogram of
g mod p at the nonzero squares.  Coefficients extend to all n <= M
through the Hecke recursion at prime powers plus multiplicativity.
The truncated series sum a_n n^(-s) is evaluated in complex float64
through the complete multiplicativity of n^(-s): exp(-s ln p) at the
primes p <= M only, and every composite n as p^(-s) * (n/p)^(-s) with p
its smallest prime factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import discriminant
from .errors import ConsistencyError, NumericError

@dataclass(frozen=True)
class AnTable:
    label: str
    conductor: int
    m: int
    coefficients: tuple[int, ...]  # coefficients[i] is a_{i+1}

    def __post_init__(self):
        if self.m < 1 or len(self.coefficients) != self.m:
            raise ValueError("coefficient table length must equal m >= 1")
        if self.coefficients[0] != 1:
            raise ValueError("a_1 must be 1")


def count_points(a: tuple[int, int, int, int, int], p: int) -> int:
    """N_p, the number of affine solutions of the Weierstrass equation
    over F_p, the singular point (if any) included.

    p = 2 tries the four (x, y) pairs.  For odd p, completing the square
    gives (2y + a1*x + a3)^2 = g(x) with g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6,
    so x has one solution when g(x) = 0, two when g(x) is a nonzero square
    and none otherwise.  g runs over all x in one int64 Horner pass,
    reduced mod p after the quadratic step and at the end, so every
    intermediate stays below 5p^2 (exact in int64 for p below 1.3e9).
    With counts the histogram of g mod p, N_p = counts[0] + 2 * sum of
    counts[h^2 mod p] over h = 1..(p-1)/2, which hits each nonzero square
    once.
    """
    a1, a2, a3, a4, a6 = (ai % p for ai in a)
    if p == 2:
        return sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    b2 = (a1 * a1 + 4 * a2) % p
    b4 = (2 * a4 + a1 * a3) % p
    b6 = (a3 * a3 + 4 * a6) % p

    x = np.arange(p, dtype=np.int64)
    g = 4 * x
    g += b2
    g *= x
    g += 2 * b4
    g -= (g // p) * p
    g *= x
    g += b6
    g -= (g // p) * p
    counts = np.bincount(g, minlength=p)
    squares = x[1 : (p + 1) // 2] ** 2
    squares -= (squares // p) * p
    return int(counts[0]) + 2 * int(counts[squares].sum())


def trace_of_frobenius(a: tuple[int, int, int, int, int], p: int, conductor: int) -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p) = p - N_p, the point at
    infinity counted, at good and bad primes alike.

    The reduction is singular exactly when p | disc (Silverman, Prop.
    III.1.4), which must hold exactly at the primes dividing the conductor;
    a good-prime trace must obey the Hasse bound.
    """
    a_p = p - count_points(a, p)
    singular = discriminant(a) % p == 0
    if conductor % p:
        if singular:
            raise ConsistencyError(
                f"p={p} does not divide the conductor but the reduction is singular; "
                "model is not minimal or the conductor is wrong"
            )
        if a_p * a_p > 4 * p:
            raise ConsistencyError(f"a_{p} = {a_p} violates the Hasse bound")
    elif not singular:
        raise ConsistencyError(
            f"p={p} divides the conductor but the reduction is smooth; the conductor is wrong"
        )
    return a_p


def _smallest_prime_factors(m: int) -> np.ndarray:
    """spf[n] for 0 <= n <= m: the smallest prime factor of n >= 2, so
    spf[p] == p exactly at the primes; spf[0] = 0 and spf[1] = 1."""
    spf = np.arange(m + 1)
    for q in range(math.isqrt(m), 1, -1):  # descending: the smallest divisor writes last
        spf[q * q :: q] = q
    return spf


def build_an_table(
    a: tuple[int, int, int, int, int], conductor: int, m: int, label: str = ""
) -> AnTable:
    """Coefficients a_1 .. a_m: traces at primes, Hecke recursion at prime
    powers (the p*a_{p^{k-1}} term dropped at bad primes), multiplicative
    across coprime factors."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = [0] * (m + 1)
    coeffs[1] = 1
    spf = _smallest_prime_factors(m).tolist()
    for p in (n for n in range(2, m + 1) if spf[n] == n):
        ap = trace_of_frobenius(a, p, conductor)
        good = conductor % p != 0
        prev, cur = 1, ap  # a_{p^0}, a_{p^1}
        q = p
        while q <= m:
            coeffs[q] = cur
            prev, cur = cur, ap * cur - (p * prev if good else 0)
            q *= p
    for n in range(2, m + 1):
        p = spf[n]
        q = p
        rest = n // p
        while rest % p == 0:
            q *= p
            rest //= p
        if rest > 1:
            coeffs[n] = coeffs[q] * coeffs[rest]
    return AnTable(label, conductor, m, tuple(coeffs[1:]))


def sigma0_sqrt_bound(n: int) -> float:
    """sigma_0(n) * sqrt(n), the coefficient size bound."""
    divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    return divisors * math.sqrt(n)


_EVAL_CHUNK = 128  # points per block; fixed, so results do not depend on the batch
_EVAL_CACHE: dict[int, tuple] = {}


def _eval_plan(m: int) -> tuple:
    """Read-only evaluation plan for tables of length m, cached per m.

    Returns (prime rows p-1, ln p, levels).  Level j holds the composites
    n <= m with j + 2 prime factors counted with multiplicity, as index
    arrays (n-1, spf(n)-1, n/spf(n)-1); both factors sit in lower levels.
    """
    plan = _EVAL_CACHE.get(m)
    if plan is None:
        spf = _smallest_prime_factors(m)
        cofactor = np.arange(m + 1) // np.maximum(spf, 1)
        omega = [0] * (m + 1)  # Omega(n); the cofactor of n is below n
        for k, c in enumerate(cofactor.tolist()[2:], start=2):
            omega[k] = omega[c] + 1
        omega = np.array(omega)
        primes = np.flatnonzero(omega == 1)
        levels = []
        for j in range(2, omega.max() + 1):
            n = np.flatnonzero(omega == j)
            levels.append((n - 1, spf[n] - 1, cofactor[n] - 1))
        plan = (primes - 1, np.log(primes.astype(np.float64)), tuple(levels))
        for arr in plan[:2] + sum(plan[2], ()):
            arr.setflags(write=False)
        _EVAL_CACHE[m] = plan
    return plan


def eval_truncated_l_many(table: AnTable, s: np.ndarray) -> np.ndarray:
    """Vector evaluation of sum_{n<=m} a_n n^(-s); non-finite results mean
    the point escaped, they are passed through untouched.

    Per block of points, row n-1 of a (m, block) array holds n^(-s):
    exp(-s ln p) at the primes, then each level of composites by one
    gather-multiply of two lower rows.  The reduction runs as one
    contiguous dot product per point, so its order is the same for every
    block width.
    """
    prime_rows, ln_p, levels = _eval_plan(table.m)
    coeffs = np.asarray(table.coefficients, dtype=np.float64)
    s = np.asarray(s, dtype=np.complex128)
    out = np.empty(s.shape, dtype=np.complex128)
    flat = s.ravel()
    res = out.ravel()
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, _EVAL_CHUNK):
            block = flat[start : start + _EVAL_CHUNK]
            terms = np.empty((table.m, block.size), dtype=np.complex128)
            terms[0] = 1
            terms[prime_rows] = np.exp(np.multiply.outer(ln_p, -block))
            for rows, left, right in levels:
                terms[rows] = terms[left] * terms[right]
            res[start : start + _EVAL_CHUNK] = np.einsum(
                "kn,n->k", np.ascontiguousarray(terms.T), coeffs
            )
    return out


def eval_truncated_l(table: AnTable, s: complex) -> complex:
    return complex(eval_truncated_l_many(table, np.array([s]))[0])


def l_at_one(table: AnTable) -> float:
    """Truncated L(1).  The imaginary part must vanish to 1e-12."""
    value = eval_truncated_l(table, 1.0 + 0.0j)
    if not (abs(value.imag) <= 1e-12):
        raise NumericError(f"L(1) of a real coefficient table came out complex: {value!r}")
    return value.real


def smoothed_l_at_one(table: AnTable, conductor: int | None = None) -> float:
    """Exponentially smoothed estimator sum 2 a_n / n * exp(-2 pi n / sqrt(N))."""
    n_cond = table.conductor if conductor is None else conductor
    if n_cond < 1:
        raise ValueError("conductor must be positive")
    n = np.arange(1, table.m + 1, dtype=np.float64)
    coeffs = np.asarray(table.coefficients, dtype=np.float64)
    weights = np.exp(-2.0 * math.pi * n / math.sqrt(n_cond))
    return float(np.sum(2.0 * coeffs / n * weights))
