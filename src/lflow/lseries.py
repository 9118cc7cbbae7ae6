"""Dirichlet coefficients of elliptic-curve L-series and truncated evaluation.

Every Frobenius trace comes from one finite-field point count: a_p =
p - N_p, with N_p the number of affine solutions of the Weierstrass
equation mod p, at good and bad primes alike.  The reduction type is read
off the discriminant, not off the points: the cubic is singular mod p
exactly when p | disc, and it then has exactly one singular point, an
affine one (Silverman, The Arithmetic of Elliptic Curves, Prop. III.1.4
and III.2.5).  A batch of curves is counted in chunks of whole rows, one
row per curve, with at most _COUNT_BLOCK values of the cubic per chunk, so
the working set does not grow with the batch.  Each curve's
completed-square cubic g(x) is evaluated once per build, as exact int64
integers at every x below the largest prime, and every prime reduces
those rows mod p and reads the Legendre table mod p (see _cubics and
_point_counts).  Where the cubic could pass 2^63 (primes above 1.3e6 or
a-invariants near 10^18), the int64 bound sends the chunk to a per-prime
evaluation reduced mod p as it goes.  Coefficients extend to all n <= M
through the Hecke recursion at prime powers plus multiplicativity.

The truncated series L_M(s) = sum_{n<=M} a_n n^(-s) is evaluated in
complex float64 on one of two paths, chosen by the point alone (see
eval_truncated_l_many).  Near the region where escape iteration spends
its evaluations, -3.5 < Re s < 5.5 and |Im s| <= 12.5, a fixed grid of
117 Taylor cells replaces the sum by a polynomial, as in Odlyzko and
Schoenhage (1988) (see _taylor_degree and _cell_coefficients).  Every
other point, non-finite ones included, is summed by grouping n by its
smallest prime factor (Buchstab's identity): exp at the primes, one
prefix sum over the primes and a few hundred products per point (144
edges at M = 1000) instead of a term per n.  That recursion needs a
multiplicative table, which AnTable enforces exactly on the integers.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .catalog import AInvariants, b_invariants, discriminant
from .errors import ConsistencyError, NumericError

@dataclass(frozen=True)
class AnTable:
    label: str
    conductor: int
    m: int
    coefficients: tuple[int, ...]  # coefficients[i] is a_{i+1}
    a_invariants: tuple[int, ...] = ()  # the model the table was built from, if known

    def __post_init__(self):
        if self.m < 1 or len(self.coefficients) != self.m:
            raise ValueError("coefficient table length must equal m >= 1")
        if self.coefficients[0] != 1:
            raise ValueError("a_1 must be 1")
        try:  # numpy raises OverflowError for exactly the a_n that float64 cannot hold
            series = np.array(self.coefficients, dtype=np.float64)
        except OverflowError:
            raise ValueError("coefficients must lie within the float64 range") from None
        series.setflags(write=False)
        c = (0, *self.coefficients)  # c[n] = a_n
        if any(c[n] != c[q] * c[rest] for n, q, rest in _coprime_splits(self.m)):
            raise ValueError("coefficients are not multiplicative")
        object.__setattr__(self, "series", series)  # a_n for eval_truncated_l_many and smoothed_l_at_one; not a field
        object.__setattr__(self, "_cell_lock", threading.Lock())  # see _cell_coefficients

    def __reduce__(self):  # a copy runs the checks again and gets its own lock and cells
        return AnTable, (self.label, self.conductor, self.m, self.coefficients, self.a_invariants)


_COUNT_BLOCK = 131072  # values of the cubic per chunk of models, one row at least: bounds the count's working set


class _Cubics(NamedTuple):
    """A chunk of models' cubics, evaluated once for every prime of a build (see _cubics)."""

    values: np.ndarray  # (models, top) int64: G(x) = 4x^3 + b2*x^2 + 2*b4*x + b6 at 0 <= x < top, exact
    squares: np.ndarray  # x^2 at 0 <= x < (top + 1) // 2, int64


def _cubics(models: list, top: int) -> _Cubics | None:
    """Each model's cubic G at every x < top, by Horner's rule with no
    reduction, or None when a value could leave int64.  Checked in Python
    ints: every intermediate lies within B = 4X^3 + |b2|X^2 + 2|b4|X + |b6|,
    X = top - 1, and reducing G mod p <= top subtracts a multiple of p in
    (G - p, G], so B < 2^63 - top keeps every step exact."""
    b = [b_invariants(a)[:3] for a in models]
    x_max = top - 1
    if max(4 * x_max**3 + abs(b2) * x_max**2 + 2 * abs(b4) * x_max + abs(b6) for b2, b4, b6 in b) >= 2**63 - top:
        return None
    b2, b4, b6 = np.array(b, dtype=np.int64).T[:, :, None]
    x = np.arange(top, dtype=np.int64)
    values = horner(np.full((len(models), 1), 4, dtype=np.int64), (b2, 2 * b4, b6), x)
    return _Cubics(values, x[: (top + 1) // 2] ** 2)


def _point_counts(models: list, p: int, cubics: _Cubics | None = None) -> list[int]:
    """N_p of every model at p, all counted at once, in one pass whose rows
    the caller bounds (see build_an_tables).  For odd p, (2y + a1*x + a3)^2
    = g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6 has 1 + chi(g(x)) roots y, chi the
    Legendre symbol, so N_p = p + sum_x chi(g(x)).  Each model is a row of
    g over x < p.  Given the models' cubics (top >= p), a row is their G
    reduced mod p, G - G // p * p.  Otherwise g is evaluated at p by
    Horner's rule reduced mod p after the quadratic step and at the end,
    so every intermediate stays below 5p^2 whatever the a-invariants:
    int32 when that is below 2^31, else int64 (exact for p below 1.3e9).
    chi is read from an int8 table mod p, set from the squares of x < p/2."""
    if p == 2:  # the four (x, y) pairs, where x^3 = x^2 = x and y^2 = y
        return [sum((y * (1 + a1 * x + a3) + x * (1 + a2 + a4) + a6) % 2 == 0 for x in (0, 1) for y in (0, 1))
                for a1, a2, a3, a4, a6 in models]
    if cubics is None:
        dtype = np.int32 if 5 * p * p < 2**31 else np.int64
        b2, b4, b6 = np.array([(b2 % p, 2 * b4 % p, b6 % p) for b2, b4, b6, _ in map(b_invariants, models)],
                              dtype=dtype).T[:, :, None]
        x = np.arange(p, dtype=dtype)
        g = 4 * x + b2
        g *= x
        g += b4
        g -= g // p * p
        g *= x
        g += b6
        squares = x[: (p + 1) // 2] ** 2
    else:
        g, squares = cubics.values[:, :p], cubics.squares[: (p + 1) // 2]
    g = g - g // p * p
    chi = np.full(p, -1, dtype=np.int8)
    chi[squares - squares // p * p] = 1
    chi[0] = 0
    return (p + chi[g.astype(np.intp, copy=False)].sum(axis=1)).tolist()


def _check_reduction(p: int, conductor: int, disc: int) -> None:
    """The reduction is singular exactly when p | disc (Silverman, Prop.
    III.1.4), which must hold exactly at the primes dividing the conductor."""
    if conductor % p and not disc % p:
        raise ConsistencyError(f"p={p} does not divide the conductor but the reduction is singular; "
                               "model is not minimal or the conductor is wrong")
    if not conductor % p and disc % p:
        raise ConsistencyError(f"p={p} divides the conductor but the reduction is smooth; the conductor is wrong")


def _trace(n_p: int, p: int, conductor: int) -> int:
    """a_p = p - n_p, held to the Hasse bound at good primes (smooth by _check_reduction)."""
    a_p = p - n_p
    if conductor % p and a_p * a_p > 4 * p:
        raise ConsistencyError(f"a_{p} = {a_p} violates the Hasse bound")
    return a_p


def trace_of_frobenius(a: AInvariants, p: int, conductor: int) -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p) = p - N_p, the point at infinity
    counted, at good and bad primes alike (see _check_reduction and _trace)."""
    _check_reduction(p, conductor, discriminant(a))
    return _trace(_point_counts([a], p)[0], p, conductor)


class _Sieve(NamedTuple):
    primes: tuple[int, ...]  # the primes <= m, ascending
    splits: np.ndarray  # read-only (3, count): the columns (n, q, n // q) of _coprime_splits


@cache
def _sieve(m: int) -> _Sieve:
    """The primes <= m and the coprime splits, from one smallest-prime-factor
    sieve per m: spf[n] is the smallest prime factor of n >= 2, so spf[p] ==
    p exactly at the primes."""
    spf = np.arange(m + 1)
    for q in range(math.isqrt(m), 1, -1):  # descending: the smallest divisor writes last
        spf[q * q :: q] = q
    spf = spf.tolist()

    def walk():
        for n in range(2, m + 1):
            p = spf[n]
            q, rest = p, n // p
            while rest % p == 0:
                q *= p
                rest //= p
            if rest > 1:
                yield from (n, q, rest)

    splits = np.fromiter(walk(), dtype=np.intp).reshape(-1, 3).T.copy()
    splits.setflags(write=False)
    return _Sieve(tuple(n for n in range(2, m + 1) if spf[n] == n), splits)


def _coprime_splits(m: int) -> Iterator[tuple[int, int, int]]:
    """(n, q, n // q) for every 2 <= n <= m that is not a prime power,
    ascending, with q = p^k || n and p = spf(n), read from the sieve a
    slice at a time: no list of every triple is held as Python ints."""
    splits = _sieve(m).splits
    for start in range(0, splits.shape[1], 1024):
        yield from zip(*splits[:, start : start + 1024].tolist())


def build_an_tables(curves: list[tuple], m: int) -> list[AnTable]:
    """The tables a_1 .. a_m of (a-invariants, conductor, label) curves.  Each
    curve in order is checked at every prime (_check_reduction), so the first
    inconsistent one raises what it raises alone, before any point is counted.
    Then each chunk of curves (_COUNT_BLOCK values of the cubic, one row at
    least) has its cubics evaluated once (_cubics) and is counted at every
    prime: traces at primes, Hecke recursion at prime powers (the
    p*a_{p^{k-1}} term dropped at bad primes), multiplicative across coprime
    factors."""
    if m < 1:
        raise ValueError("m must be >= 1")
    primes = _sieve(m).primes
    for a, conductor, _ in curves:
        disc = discriminant(a)
        for p in primes:
            _check_reduction(p, conductor, disc)
    coeffs = [[0, 1] + [0] * (m - 1) for _ in curves]
    top = max(primes, default=2)
    rows = max(1, _COUNT_BLOCK // top)
    for start in range(0, len(curves), rows):
        models, conductors, _ = zip(*curves[start : start + rows])
        chunk, cubics = coeffs[start : start + rows], _cubics(models, top)
        for p in primes:
            for conductor, c, n_p in zip(conductors, chunk, _point_counts(models, p, cubics)):
                a_p = _trace(n_p, p, conductor)
                prev, cur, q = 1, a_p, p  # a_{p^0}, a_{p^1}
                while q <= m:
                    c[q] = cur
                    prev, cur = cur, a_p * cur - (p * prev if conductor % p else 0)
                    q *= p
    for c in coeffs:
        for n, q, rest in _coprime_splits(m):
            c[n] = c[q] * c[rest]
    return [AnTable(label, n, m, tuple(c[1:]), tuple(a)) for (a, n, label), c in zip(curves, coeffs)]


def build_an_table(a: AInvariants, conductor: int, m: int, label: str = "") -> AnTable:
    """build_an_tables for one curve."""
    return build_an_tables([(a, conductor, label)], m)[0]


_EVAL_CHUNK = 128  # points per recursion block: bounds the working set; a point owns a column, so no bit moves
_EVAL_PLAN_LOCK = threading.Lock()  # one plan build per m, however many threads ask
_SCRATCH = threading.local()  # per thread: one flat complex buffer that every block reuses

# Taylor cells: unit squares centred on s0 = i + j*1j, i = -3..5, j = 0..12,
# so |s - s0| <= 1/sqrt(2) in a cell; cell j*9 + i + 3 holds c_0..c_D
_CELL_LEFT, _CELL_COLUMNS, _CELL_ROWS = -3, 9, 13
_CELL_COUNT = _CELL_COLUMNS * _CELL_ROWS
_CELL_BLOCK = 8192  # terms a_n n^(-s0) per block of cells: bounds each block's working set


def _taylor_degree(m: int) -> int:
    """The smallest D with (r ln m)^(D+1) / (D+1)! * m^r <= 1e-17, r =
    1/sqrt(2) the largest |s - s0| in a cell, which bounds the remainder
    after c_D by 1e-17 sum |a_n| n^(-Re s0): D = 38 at m = 1000 and 45 at
    m = 10000."""
    x = math.sqrt(0.5) * math.log(m)  # r ln m
    degree, term = 0, math.exp(x) * x
    while term > 1e-17:
        degree += 1
        term *= x / (degree + 1)
    return degree


class _EvalPlan(NamedTuple):
    """Read-only evaluation plan for tables of length m (see `_eval_plan`)."""

    ln_p: np.ndarray  # ln p at the primes p <= m, ascending: rows 0 .. pi(m)-1
    powers: tuple  # per k >= 2: (first row, row count, first row of the (k-1)th powers)
    row_n: np.ndarray  # n - 1 for the prime power n of each row
    lo: np.ndarray  # per node: its prime prefix sum is c[hi] - c[lo]
    hi: np.ndarray
    levels: tuple  # per depth, deepest first: (child nodes, edge rows, parents, starts)
    ln_n: np.ndarray  # ln n for n = 1..m
    phases: np.ndarray  # (13, m): row j holds n^(-ij) = (n^(-1j))**j, the factor of cell row j
    taylor: np.ndarray  # (D+1, m): row k holds (-ln n)^k / k!


def _eval_plan(m: int) -> _EvalPlan:
    """The plan for tables of length m, built once on first use and cached."""
    with _EVAL_PLAN_LOCK:
        return _build_eval_plan(m)


@cache
def _build_eval_plan(m: int) -> _EvalPlan:
    """Rows hold the prime powers q <= m: the primes ascending, then the
    squares, the cubes and so on, each in the order of their primes, so
    the kth powers are the (k-1)th powers' leading rows times the leading
    prime rows.  Nodes are the pairs (x, i) of G(x, i) in breadth-first
    order from the root (m, 0); every other node is the child (x // q,
    j + 1) of one edge q = p_j^k of its parent, so each depth's children
    are one slice of nodes, grouped by parent.  The Taylor rows hold
    (-ln n)^k / k! for k <= D, the factor all cells share, and the phase
    rows n^(-ij) for j = 0..12, the factor of each row of cells.
    """
    primes = _sieve(m).primes
    prime_count = np.cumsum(np.bincount(primes, minlength=m + 1)).tolist()  # pi(x) for x <= m
    rows = [primes]  # rows[k-1]: p^k <= m for the leading primes
    while nxt := [q * p for q, p in zip(rows[-1], primes) if q * p <= m]:
        rows.append(nxt)
    firsts = np.cumsum([0] + [len(r) for r in rows]).tolist()
    powers = tuple((firsts[k], len(rows[k]), firsts[k - 1]) for k in range(1, len(rows)))
    row_n = [q for r in rows for q in r]
    row_of = {q: r for r, q in enumerate(row_n)}

    lo, hi, levels = [], [], []
    frontier, first = [(m, 0)], 0
    while frontier:
        children, edge_rows, parents, starts = [], [], [], []
        for node, (x, i) in enumerate(frontier, start=first):
            n_children = len(children)
            j = i
            while j < len(primes) and primes[j] ** 2 <= x:
                q = primes[j]
                while q <= x:
                    children.append((x // q, j + 1))
                    edge_rows.append(row_of[q])
                    q *= primes[j]
                j += 1
            # the primes p_j .. p_{top-1} close G(x, i); an empty range is
            # (0, 0), an exact zero even where the prefix sums overflow
            top = prime_count[x]
            lo.append(j if top > j else 0)
            hi.append(top if top > j else 0)
            if len(children) > n_children:
                parents.append(node)
                starts.append(n_children)
        first += len(frontier)
        if children:
            levels.append((slice(first, first + len(children)),
                           np.array(edge_rows), np.array(parents), np.array(starts)))
        frontier = children

    ln_n = np.log(np.arange(1, m + 1, dtype=np.float64))
    taylor = np.empty((_taylor_degree(m) + 1, m))
    taylor[0] = 1
    for k in range(1, taylor.shape[0]):
        np.multiply(taylor[k - 1], ln_n / -k, out=taylor[k])

    phase = np.exp(ln_n * -1j)  # n^(-1j)
    phases = np.empty((_CELL_ROWS, m), complex)  # filled in place: a list of rows would double it
    for j in range(_CELL_ROWS):
        phases[j] = phase**j  # one int exponent per row: an arange exponent rounds j = 2 otherwise
    plan = _EvalPlan(
        np.log(np.array(primes, dtype=np.float64)),
        powers,
        np.array(row_n, dtype=np.intp) - 1,  # empty at m = 1
        np.array(lo),
        np.array(hi),
        tuple(reversed(levels)),
        ln_n,
        phases,
        taylor,
    )
    for arr in (*(a for a in plan if isinstance(a, np.ndarray)), *(a for lv in plan.levels for a in lv[1:])):
        arr.setflags(write=False)
    return plan


def _scratch_arrays(width: int, *heights: int) -> list[np.ndarray]:
    """Contiguous (height, width) complex arrays carved out of this
    thread's scratch buffer, which grows on demand and is never freed.
    Fresh arrays per block would go back to the OS when freed and be
    faulted in again by the next block."""
    size = sum(heights) * width
    buf = getattr(_SCRATCH, "buf", ())
    if len(buf) < size:
        buf = _SCRATCH.buf = np.empty(size, dtype=np.complex128)
    arrays, start = [], 0
    for h in heights:
        arrays.append(buf[start : start + h * width].reshape(h, width))
        start += h * width
    return arrays


def _eval_block(plan: _EvalPlan, coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """L_M at one block of points by the recursion; each point owns one
    column of every array."""
    n_p = plan.ln_p.size
    w, c, g = _scratch_arrays(s.size, plan.row_n.size, n_p + 1, plan.lo.size)
    np.multiply.outer(plan.ln_p, -s, out=w[:n_p])
    np.exp(w[:n_p], out=w[:n_p])
    for first, count, prev in plan.powers:
        np.multiply(w[prev : prev + count], w[:count], out=w[first : first + count])
    parts = w.view(np.float64)  # a real product per part: the same bits on every numpy loop
    parts *= coeffs[plan.row_n][:, None]
    c[0] = 0
    np.cumsum(w[:n_p], axis=0, out=c[1:])
    np.take(c, plan.hi, axis=0, out=g)
    g -= c[plan.lo]
    g += 1
    for children, edge_rows, parents, starts in plan.levels:
        terms = w[edge_rows]
        terms *= g[children]
        g[parents] += np.add.reduceat(terms, starts, axis=0)
    return g[0].copy()


def _cell_coefficients(table: AnTable, plan: _EvalPlan, cells: np.ndarray) -> np.ndarray:
    """The table's (D+1, 117) cell coefficients, degree-major (row k holds
    c_k of every cell), with every cell in `cells` built.

    A cell is built once per table, under the table's lock, by the first
    call that needs it, and never changes after: c_k = sum_n a_n n^(-s0) (-ln n)^k / k!, s0 = i + j*1j.
    The missing cells go in blocks of max(1, _CELL_BLOCK // m): one real
    exp gives n^(-i) and one product with the plan's rows n^(-ij) gives
    n^(-s0); the parts of a_n n^(-s0) go as rows into this thread's
    scratch buffer (2 max(_CELL_BLOCK, m) complex at most), and one einsum
    (numpy's own loop, no BLAS) reduces each row against the Taylor rows
    by itself into a column of c_k, so a cell's bits depend on the table
    and the cell alone, not on the block that built it.
    """
    wanted = np.bincount(cells, minlength=_CELL_COUNT) > 0
    with table._cell_lock:
        if not hasattr(table, "_cells"):  # allocated with the first cell
            object.__setattr__(table, "_cells", (np.zeros((plan.taylor.shape[0], _CELL_COUNT), complex),
                                                 np.zeros(_CELL_COUNT, bool)))
        coeffs, built = table._cells
        todo = np.flatnonzero(wanted & ~built)
        step = max(1, _CELL_BLOCK // table.m)
        for start in range(0, todo.size, step):
            block = todo[start : start + step]
            row, col = np.divmod(block, _CELL_COLUMNS)
            terms, parts = _scratch_arrays(table.m, block.size, block.size)
            parts = parts.view(float).reshape(-1, table.m)  # rows of a_n n^(-s0): real, imag, real, ...
            scale = parts[: block.size]  # n^(-i) until the parts overwrite it
            np.take(plan.phases, row, axis=0, out=terms)  # n^(-ij)
            np.multiply.outer(-_CELL_LEFT - col, plan.ln_n, out=scale)
            np.multiply(np.exp(scale, out=scale), terms, out=terms)  # n^(-s0) = n^(-i) n^(-ij)
            np.multiply(terms.real, table.series, out=parts[0::2])
            np.multiply(terms.imag, table.series, out=parts[1::2])
            sums = np.einsum("kn,jn->kj", plan.taylor, parts)  # a column per part, as parts has rows
            coeffs.real[:, block], coeffs.imag[:, block] = sums[:, 0::2], sums[:, 1::2]
        built[todo] = True
    return coeffs


def horner(top, lower, x: np.ndarray) -> np.ndarray:
    """top x^D + ... + c_0 by Horner's rule, `lower` giving c_{D-1} .. c_0:
    one product and one add per degree, elementwise, so a point's bits do
    not depend on its batch."""
    res = top
    for c in lower:
        res = res * x  # never res *= x: numpy multiplies a one-point array in place with other bits
        res += c
    return res


def eval_truncated_l_many(table: AnTable, s: np.ndarray) -> np.ndarray:
    """Vector evaluation of sum_{n<=m} a_n n^(-s); non-finite results mean
    the point escaped, they are passed through untouched.

    A point with the sign bit of Im s set (-0.0 included) is evaluated as
    conj L(conj s), on either path, so conjugate symmetry is exact, the
    sign of zero included.  A point s with Im s >= +0.0 whose nearest
    centre s0 = i + j*1j (np.rint per part, ties to even) has -3 <= i <= 5
    and j <= 12 takes that Taylor cell: L_M(s) = sum_{k<=D} c_k (s - s0)^k,
    D = _taylor_degree(m), with the c_k of _cell_coefficients.  All the
    cell points of a call go together through horner, so no step mixes
    points.  PolynomialMap shares horner, so apply_map equals the batch
    bit for bit for every map.

    Every other point, non-finite ones included, takes the recursion.
    With G(x, i) the sum of a_n n^(-s) over the n <= x whose prime factors
    are all >= p_i (n = 1 included), L_M(s) = G(m, 0) and, grouping n by
    its smallest prime factor p_j and the power p_j^k dividing it,

        G(x, i) = 1 + [c(x) - c(p_J)]
                  + sum_{j >= i, p_j^2 <= x} sum_{p_j^k <= x}
                        a_{p_j^k} p_j^(-ks) G(x // p_j^k, j + 1),

    with c(y) = sum_{p <= y} a_p p^(-s) and p_J the last p_j of the sum
    (p_{i-1} if none): an n <= x with all prime factors above p_J is 1 or prime.
    Per block of points that is one exp at the primes, one multiply per
    higher power, one cumsum along the primes, one gather of the prefix
    sum ranges, then per depth of the tree, deepest first, one
    gather-multiply and one segment sum into the parents.  There too no
    step mixes points: exp and the products are elementwise, the cumsum
    adds down a point's column one prime after another, and
    np.add.reduceat sums each segment of a column by itself.

    So the path a point takes and every bit of its result depend on the
    point alone: the same for every block width and batch split and at
    every thread count, and a block of one point is the scalar evaluation.
    """
    plan = _eval_plan(table.m)
    s = np.asarray(s, complex)
    flat, res = s.ravel(), np.empty(s.size, complex)
    with np.errstate(all="ignore"):
        fold = np.signbit(flat.imag)
        upper = np.where(fold, flat.conj(), flat)
        col, row = np.rint(upper.real), np.rint(upper.imag)
        col -= _CELL_LEFT
        in_grid = (col >= 0) & (col < _CELL_COLUMNS) & (row < _CELL_ROWS)
        rest = np.flatnonzero(~in_grid)
        for start in range(0, rest.size, _EVAL_CHUNK):
            block = rest[start : start + _EVAL_CHUNK]
            res[block] = _eval_block(plan, table.series, upper[block])
        inside = np.flatnonzero(in_grid)
        if inside.size:
            col, row = col[inside], row[inside]
            cells = (row * _CELL_COLUMNS + col).astype(np.intp)
            coeffs = _cell_coefficients(table, plan, cells)
            ds = upper[inside] - ((col + _CELL_LEFT) + 1j * row)
            res[inside] = horner(coeffs[-1, cells], (c[cells] for c in coeffs[-2::-1]), ds)
        np.conjugate(res, out=res, where=fold)
    return res.reshape(s.shape)


def eval_truncated_l(table: AnTable, s: complex) -> complex:
    return complex(eval_truncated_l_many(table, np.array([s]))[0])


def l_at_one(table: AnTable) -> float:
    """Truncated L(1).  The imaginary part must vanish to 1e-12."""
    value = eval_truncated_l(table, 1.0 + 0.0j)
    if not (abs(value.imag) <= 1e-12):
        raise NumericError(f"L(1) of a real coefficient table came out complex: {value!r}")
    return value.real


def smoothed_l_at_one(table: AnTable) -> float:
    """Exponentially smoothed estimator sum 2 a_n / n * exp(-2 pi n / sqrt(N))."""
    if table.conductor < 1:
        raise ValueError("conductor must be positive")
    n = np.arange(1, table.m + 1, dtype=np.float64)
    weights = np.exp(-2.0 * math.pi * n / math.sqrt(table.conductor))
    return float(np.sum(2.0 * table.series / n * weights))
