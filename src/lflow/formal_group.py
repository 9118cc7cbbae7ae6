"""Formal group expansion of a Weierstrass curve at the origin.

Solving w = z^3 + a1*z*w + a2*z^2*w + a3*w^2 + a4*z*w^2 + a6*w^3 by
fixed-point iteration in Z[[z]] truncated at degree 9 gives
w(z) = z^3 (1 + A1 z + ... + A6 z^6) with exact integer coefficients.
The degree-9 truncation x^3 + A1 x^4 + ... + A6 x^9 is the nonic used
as a polynomial dynamical system.
"""

from __future__ import annotations

_DEG = 9


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (_DEG + 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            if i + j > _DEG:
                break
            out[i + j] += pi * qj
    return out


def _relation_rhs(a: tuple[int, int, int, int, int], w: list[int]) -> list[int]:
    a1, a2, a3, a4, a6 = a
    w2 = _mul(w, w)
    out = [0] * (_DEG + 1)
    out[3] = 1
    for c, k, p in ((a1, 1, w), (a2, 2, w), (a3, 0, w2), (a4, 1, w2), (a6, 0, _mul(w2, w))):  # c z^k p
        for i, x in enumerate(p[: _DEG + 1 - k]):
            out[i + k] += c * x
    return out


def expand_formal_group(a: tuple[int, int, int, int, int]) -> tuple[int, ...]:
    """(A1, ..., A6) with w(z) = z^3 (1 + A1 z + ... + A6 z^6).

    Every term of the relation but z^3 has a higher z-order than w, so round
    k fixes z^(k+2): 7 rounds fix z^3 .. z^9, and the last two change nothing.
    """
    w = [0] * (_DEG + 1)
    for _ in range(_DEG):
        w = _relation_rhs(a, w)
    return tuple(w[4:])


def defining_relation_residual(
    a: tuple[int, int, int, int, int], expansion: tuple[int, ...]
) -> tuple[int, ...]:
    """Coefficients of RHS(w) - w through degree 9; all zero iff the
    expansion satisfies the defining relation."""
    w = [0, 0, 0, 1, *expansion][: _DEG + 1]
    w += [0] * (_DEG + 1 - len(w))
    rhs = _relation_rhs(a, w)
    return tuple(r - x for r, x in zip(rhs, w))


def nonic_polynomial(a: tuple[int, int, int, int, int]) -> list[complex]:
    """Ascending coefficients of x^3 + A1 x^4 + ... + A6 x^9, length 10."""
    return [complex(c) for c in nonic_integer_coefficients(a)]


def nonic_integer_coefficients(a: tuple[int, int, int, int, int]) -> list[int]:
    """Same polynomial with exact integer coefficients (for printing)."""
    return [0, 0, 0, 1, *expand_formal_group(a)]
