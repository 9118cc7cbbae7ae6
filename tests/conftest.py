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
