import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_CATALOG = os.path.join(REPO_ROOT, "data", "fixture_allcurves.txt")

# Famous minimal models, usable everywhere without touching the catalog file.
CURVE_11A1 = (0, -1, 1, -10, -20)
CURVE_14A1 = (1, 0, 1, 4, -6)
CURVE_15A1 = (1, 1, 1, -10, -10)
CURVE_17A1 = (1, -1, 1, -1, -14)
CURVE_21A1 = (1, 0, 0, -4, -1)
CURVE_37A1 = (0, 0, 1, -1, 0)
CURVE_389A1 = (0, 1, 1, -2, 0)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix64(x):
    # transcribed from Steele/Lea/Flood, "Fast splittable pseudorandom number
    # generators" (the standard public-domain mix); independent of src/
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def unit_uniform(master_seed, counter):
    """The scalar oracle for lflow.rng: U(m, k) = (reference_splitmix64((m +
    k * GOLDEN) mod 2^64) >> 11) * 2^-53, one draw at a time."""
    return (reference_splitmix64((master_seed + counter * GOLDEN) & MASK64) >> 11) * 2.0**-53


@pytest.fixture(scope="session")
def fixture_catalog_path():
    assert os.path.exists(FIXTURE_CATALOG), "bundled catalog missing"
    return FIXTURE_CATALOG


@pytest.fixture(scope="session")
def fixture_records(fixture_catalog_path):
    from lflow.catalog import load_catalog

    return load_catalog(fixture_catalog_path)


# The definitional a_n oracle: an O(p^2) point count, the Hecke recursion and
# trial factorisation, sharing no code with src/.


def oracle_counts(a, p):
    """Independent enumeration of smooth/singular affine points mod p."""
    a1, a2, a3, a4, a6 = (x % p for x in a)
    smooth = 0
    singular = []
    for x in range(p):
        for y in range(p):
            lhs = (y * y + a1 * x * y + a3 * y) % p
            rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
            if lhs != rhs:
                continue
            dy = (2 * y + a1 * x + a3) % p
            dx = (3 * x * x + 2 * a2 * x + a4 - a1 * y) % p
            if dy == 0 and dx == 0:
                singular.append((x, y))
            else:
                smooth += 1
    return smooth, singular


def oracle_ap(a, p, conductor):
    smooth, singular = oracle_counts(a, p)
    if conductor % p:
        assert not singular
        return p + 1 - (smooth + 1)
    return p - (smooth + 1)


def oracle_an(a, conductor, m):
    """Definitional coefficients: a_p by counting, Hecke recursion at prime
    powers, multiplicativity elsewhere. No sieves, no sharing with src/."""
    coeffs = [0] * (m + 1)
    coeffs[1] = 1

    def factorize(n):
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    ap_cache = {}
    for n in range(2, m + 1):
        fac = factorize(n)
        val = 1
        for p, e in fac.items():
            if p not in ap_cache:
                ap_cache[p] = oracle_ap(a, p, conductor)
            ap = ap_cache[p]
            powers = [1, ap]
            good = conductor % p != 0
            while len(powers) <= e:
                nxt = ap * powers[-1] - (p * powers[-2] if good else 0)
                powers.append(nxt)
            val *= powers[e]
        coeffs[n] = val
    return tuple(coeffs[1:])


def multiplicative_coefficients(m, prime_power_value):
    """(a_1, ..., a_m) with a_q = prime_power_value(q) at each prime power
    q, asked in ascending order, and a_n = a_q a_{n/q} for q = p^k || n,
    p the smallest prime factor of n."""
    coeffs = [0, 1]
    for n in range(2, m + 1):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        q = p
        while n % (q * p) == 0:
            q *= p
        coeffs.append(prime_power_value(q) if q == n else coeffs[q] * coeffs[n // q])
    return tuple(coeffs[1:])


def zeta_table(m):
    """The table a_n = 1 for n <= m: the truncated Riemann zeta function."""
    from lflow.lseries import AnTable

    return AnTable("zeta", 1, m, (1,) * m)
