"""Point counting, Frobenius traces, coefficient tables, series evaluation.

The oracle here is deliberately primitive: the independent O(p^2) point count
and definitional Euler-product recursion of conftest, sharing no code with
src/.  Everything else must agree with it.  At primes too large for the
O(p^2) count, an O(p) Euler-criterion count in Python ints stands in.
"""

import cmath
import copy
import hashlib
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lflow import lseries
from lflow.catalog import discriminant
from lflow.errors import ConsistencyError, NumericError
from lflow.lseries import (
    _CELL_BLOCK,
    _EVAL_CHUNK,
    _SCRATCH,
    AnTable,
    _cell_coefficients,
    _eval_block,
    _eval_plan,
    _build_eval_plan,
    _coprime_splits,
    _cubics,
    _point_counts,
    _sieve,
    _taylor_degree,
    build_an_table,
    build_an_tables,
    eval_truncated_l,
    eval_truncated_l_many,
    l_at_one,
    smoothed_l_at_one,
    trace_of_frobenius,
)

from conftest import (
    CURVE_11A1,
    CURVE_14A1,
    CURVE_15A1,
    CURVE_17A1,
    CURVE_21A1,
    CURVE_37A1,
    CURVE_389A1,
    multiplicative_coefficients,
    oracle_an,
    oracle_ap,
    oracle_counts,
    zeta_table,
)


# -------------------------------------------------------------- point counts


def count_points(a, p):
    """N_p, the affine solutions over F_p with the singular point (if any): _point_counts for one model."""
    return _point_counts([a], p)[0]


def test_count_points_four_case_hand_enumeration():
    # y^2 = x^3 + 1 over F_2: (0,1) has dy = 2y = 0 and dx = 3x^2 = 0,
    # so it is singular; (1,0): lhs 0 rhs 0, dy = 0 but dx = 3 = 1 != 0;
    # both are solutions
    assert count_points((0, 0, 0, 0, 1), 2) == 2
    smooth, singular = oracle_counts((0, 0, 0, 0, 1), 2)
    assert (smooth, singular) == (1, [(0, 1)])


def test_count_points_11a1_at_11():
    smooth, singular = oracle_counts(CURVE_11A1, 11)
    assert len(singular) == 1
    assert count_points(CURVE_11A1, 11) == smooth + 1


def test_count_points_matches_oracle():
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(12):
            a = tuple(rng.randint(-9, 9) for _ in range(5))
            smooth, singular = oracle_counts(a, p)
            assert count_points(a, p) == smooth + len(singular)


def test_fast_count_agrees_with_naive_through_97():
    primes = [p for p in range(3, 98) if all(p % q for q in range(2, p))]
    curves = [CURVE_11A1, CURVE_14A1, CURVE_15A1, CURVE_37A1, (2, -3, 4, -5, 6)]
    rng = random.Random(97)
    curves += [tuple(rng.randint(-20, 20) for _ in range(5)) for _ in range(10)]
    for a in curves:
        for p in primes:
            smooth, singular = oracle_counts(a, p)
            assert count_points(a, p) == smooth + len(singular), (a, p)


ODD_PRIMES_BELOW_300 = [p for p in range(3, 300) if all(p % q for q in range(2, p))]


def change_coordinates(a, r, s, t):
    """a-invariants of the same curve after x -> x + r, y -> y + s*x + t."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


@st.composite
def models_mod_odd_primes(draw):
    """(a-invariants, odd p < 300): see model_mod."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_300))
    return draw(model_mod(p)), p


@st.composite
def model_mod(draw, p):
    """a-invariants for the odd prime p: a random model, a model singular
    mod p or a non-minimal model (every a_i divisible by p^i, a cusp mod p)."""
    kind = draw(st.sampled_from(["random", "singular", "non-minimal"]))
    if kind == "random":
        return tuple(draw(st.integers(-(10**9), 10**9)) for _ in range(5))
    if kind == "non-minimal":
        base = [draw(st.integers(-9, 9)) for _ in range(5)]
        return tuple(ai * p**i for ai, i in zip(base, (1, 2, 3, 4, 6)))
    # y^2 + a1*x*y = x^3 + a2*x^2 has a node or cusp at the origin; move it
    # by a random change of coordinates, then lift each a_i by multiples of p
    a1, a2 = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    r, s, t = (draw(st.integers(0, p - 1)) for _ in range(3))
    moved = change_coordinates((a1, a2, 0, 0, 0), r, s, t)
    lifts = (draw(st.integers(-(10**9) // p, 10**9 // p - 1)) for _ in range(5))
    return tuple(ai % p + k * p for ai, k in zip(moved, lifts))


@settings(max_examples=80, deadline=None)
@given(models_mod_odd_primes())
def test_property_fast_count_matches_oracle(model):
    a, p = model
    smooth, singular = oracle_counts(a, p)
    assert count_points(a, p) == smooth + len(singular)
    # the rule trace_of_frobenius reads the reduction type by
    assert len(singular) == (1 if discriminant(a) % p == 0 else 0)


def euler_counts(a, p):
    """Smooth/singular affine counts for odd p by Euler's criterion on each
    x in Python ints: over x, (2y + a1*x + a3)^2 = v has one root y when
    v = 0 and two when v^((p-1)/2) = 1."""
    a1, a2, a3, a4, a6 = (ai % p for ai in a)
    half = (p + 1) // 2  # the inverse of 2 mod p
    smooth = 0
    singular = []
    for x in range(p):
        v = (4 * x**3 + (a1 * a1 + 4 * a2) * x * x + 2 * (2 * a4 + a1 * a3) * x + a3 * a3 + 4 * a6) % p
        if v == 0:
            y = -(a1 * x + a3) * half % p
            if (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0:
                singular.append((x, y))
            else:
                smooth += 1
        elif pow(v, (p - 1) // 2, p) == 1:
            smooth += 2
    return smooth, singular


@pytest.mark.parametrize("p", [9973, 65537])
def test_fast_count_matches_euler_oracle_at_large_primes(p):
    # 5p^2 passes 2^31 at p = 65537, so an int32 kernel overflows there
    for a in (CURVE_11A1, CURVE_37A1, (0, 0, 0, -(10**9), 10**9 - 7)):
        smooth, singular = euler_counts(a, p)
        assert count_points(a, p) == smooth + len(singular), a


# 5p^2 < 2^31 up to p = 20719, so 20717 counts in int32 and 20731 in int64
BATCH_PRIMES = [3, 5, 7, 11, 97, 997, 8191, 20717, 20731]


@st.composite
def batches_mod_a_prime(draw):
    p = draw(st.sampled_from(BATCH_PRIMES))
    return draw(st.lists(model_mod(p), min_size=1, max_size=5)), p


@settings(max_examples=40, deadline=None)
@given(batches_mod_a_prime())
def test_property_batched_count_equals_count_points_and_the_oracle(batch):
    models, p = batch
    counts = _point_counts(models, p)
    assert counts == [count_points(a, p) for a in models]
    for a, n_p in zip(models, counts):
        smooth, singular = euler_counts(a, p)
        assert n_p == smooth + len(singular), (a, p)


def test_batched_count_at_two_matches_the_oracle():
    models = [CURVE_11A1, CURVE_14A1, (0, 0, 0, 0, 1), (1, 1, 1, 1, 1), (0, 1, 0, 4, 4)]
    expected = []
    for a in models:
        smooth, singular = oracle_counts(a, 2)
        expected.append(smooth + len(singular))
    assert _point_counts(models, 2) == expected


def test_supersingular_count_where_an_unreduced_cubic_overflows():
    # y^2 = x^3 - x (conductor 32) has a_p = 0 at every p = 3 mod 4.  4p^3
    # passes 2^63 at this prime, so the Horner pass must reduce after its
    # quadratic step for the count to come out exact
    p = 2097211
    assert p % 4 == 3
    assert trace_of_frobenius((0, 0, 0, -1, 0), p, 32) == 0


def test_trace_matches_euler_oracle_below_1000(fixture_records):
    primes = [p for p in range(3, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    picks = [fixture_records[i * len(fixture_records) // 10] for i in range(10)]
    for rec in picks:
        n = rec.conductor
        assert trace_of_frobenius(rec.a_invariants, 2, n) == oracle_ap(rec.a_invariants, 2, n)
        for p in primes:
            smooth, singular = euler_counts(rec.a_invariants, p)
            assert bool(singular) == (n % p == 0), (rec.label, p)
            expected = p - smooth - (1 if n % p == 0 else 0)
            assert trace_of_frobenius(rec.a_invariants, p, n) == expected, (rec.label, p)


# ------------------------------------------------------------------- traces


def test_trace_known_values_11a1():
    assert trace_of_frobenius(CURVE_11A1, 2, 11) == -2
    assert trace_of_frobenius(CURVE_11A1, 3, 11) == -1
    assert 11 % 2 != 0  # good reduction at 2
    assert trace_of_frobenius(CURVE_11A1, 11, 11) == 1  # split at the bad prime


def test_trace_reduction_kinds():
    # at a bad prime a_p is 1 (split), -1 (nonsplit) or 0 (additive);
    # 14a1 = [1,0,1,4,-6] has conductor 14 = 2 * 7
    assert trace_of_frobenius(CURVE_14A1, 2, 14) == -1
    assert trace_of_frobenius(CURVE_14A1, 7, 14) == 1
    assert trace_of_frobenius(CURVE_21A1, 3, 21) == 1
    assert trace_of_frobenius(CURVE_21A1, 7, 21) == -1
    # 20a1 has additive reduction at 2 (conductor 20 = 2^2 * 5)
    assert trace_of_frobenius((0, 1, 0, 4, 4), 2, 20) == 0


def test_trace_matches_oracle_across_fixture(fixture_records):
    rng = random.Random(5)
    picks = rng.sample(fixture_records, 15)
    primes = (2, 3, 5, 7, 11, 13)
    for rec in picks:
        for p in primes:
            a_p = trace_of_frobenius(rec.a_invariants, p, rec.conductor)
            assert a_p == oracle_ap(rec.a_invariants, p, rec.conductor)
            assert abs(a_p) <= 2 * math.sqrt(p) or rec.conductor % p == 0


def test_trace_hasse_bound_good_primes():
    for p in (2, 3, 5, 7, 13, 17, 19, 23):
        a_p = trace_of_frobenius(CURVE_37A1, p, 37)
        assert 37 % p != 0  # good reduction
        assert a_p * a_p <= 4 * p


def test_trace_rejects_non_minimal_model():
    # 11a1 rescaled by u=2: same curve over Q, but the model is divisible
    # junk at 2, so claiming conductor 11 must trip the consistency check
    scaled = (0, -4, 8, -160, -1280)
    with pytest.raises(ConsistencyError):
        trace_of_frobenius(scaled, 2, 11)


def test_trace_rejects_smooth_reduction_at_a_claimed_bad_prime():
    # 11a1 has good reduction at 5 (a_5 = 1), so a claimed conductor 55 is
    # wrong, although p - N_p - 1 = 0 would pass for an additive a_5
    with pytest.raises(ConsistencyError, match="reduction is smooth"):
        trace_of_frobenius(CURVE_11A1, 5, 55)


def test_trace_semistable_fixture_never_additive(fixture_records):
    rng = random.Random(31)
    for rec in rng.sample([r for r in fixture_records if r.conductor % 3 == 0], 10):
        from lflow.catalog import is_squarefree

        if not is_squarefree(rec.conductor):
            continue
        n = rec.conductor
        for p in (2, 3, 5, 7, 11, 13):
            if n % p == 0:
                assert trace_of_frobenius(rec.a_invariants, p, n) != 0  # not additive


# ----------------------------------------------------------------- a_n table


def test_an_table_11a1_first_ten():
    t = build_an_table(CURVE_11A1, 11, 10, "11a1")
    assert t.coefficients == (1, -2, -1, 2, 1, 2, -2, 0, -2, -2)


def test_an_table_validation():
    with pytest.raises(ValueError):
        AnTable("x", 11, 3, (1, 2))  # length mismatch
    with pytest.raises(ValueError):
        AnTable("x", 11, 2, (2, 1))  # a_1 != 1
    t = AnTable("x", 11, 1, (1,))
    assert t.m == 1


def test_an_table_rejects_coefficients_beyond_float64():
    edge = 2**1024 - 2**970  # the smallest int that float() cannot convert
    for big in (edge, -edge, 10**400):
        with pytest.raises(ValueError, match="float64 range"):
            AnTable("x", 11, 2, (1, big))
    for fits in (edge - 1, 1 - edge):
        assert AnTable("x", 11, 2, (1, fits)).series[1] == float(fits)


def test_an_table_matches_definitional_oracle():
    cases = [
        (CURVE_11A1, 11),
        (CURVE_15A1, 15),
        (CURVE_21A1, 21),
        (CURVE_37A1, 37),
    ]
    for a, n in cases:
        t = build_an_table(a, n, 60)
        assert t.coefficients == oracle_an(a, n, 60), (a, n)


def test_an_table_multiplicativity_and_hecke(fixture_records):
    rng = random.Random(23)
    for rec in rng.sample(fixture_records, 6):
        t = build_an_table(rec.a_invariants, rec.conductor, 200, rec.label)
        c = (0,) + t.coefficients  # 1-indexed view
        for m, n in ((2, 3), (3, 4), (5, 7), (4, 9), (6, 25), (8, 9)):
            if math.gcd(m, n) == 1 and m * n <= 200:
                assert c[m * n] == c[m] * c[n], (rec.label, m, n)
        for p in (2, 3, 5):
            good = rec.conductor % p != 0
            k = p * p
            while k * p <= 200:
                expected = c[p] * c[k] - (p * c[k // p] if good else 0)
                assert c[k * p] == expected, (rec.label, p, k)
                k *= p


@settings(max_examples=25, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 60, 300]))
def test_property_batched_tables_equal_one_at_a_time_builds(fixture_records, data, m):
    picks = data.draw(st.lists(st.sampled_from(fixture_records), min_size=1, max_size=8))
    picks += data.draw(st.lists(st.sampled_from(picks), max_size=4))  # repeats
    picks = data.draw(st.permutations(picks))
    curves = [(r.a_invariants, r.conductor, r.label) for r in picks]
    tables = build_an_tables(curves, m)
    assert tables == [build_an_table(a, n, m, label) for a, n, label in curves]
    with mock.patch.object(lseries, "_COUNT_BLOCK", 1):  # one curve per chunk, so a batch of two spans two chunks
        assert build_an_tables(curves, m) == tables


def test_batched_tables_raise_the_first_inconsistent_curve_in_order():
    good = (CURVE_11A1, 11, "11a1")
    late = (CURVE_11A1, 55, "55a1")  # smooth at 5, which the conductor claims is bad
    early = (CURVE_11A1, 22, "22a1")  # the same at 2, so the pass meets it first
    cusp = ((0, 0, 0, 0, 0), 1, "1a1")  # y^2 = x^3 is singular at every prime
    for batch in ([good, late, early, good], [late, cusp], [cusp, early], [early, late]):
        first = next(c for c in batch if c != good)
        with pytest.raises(ConsistencyError) as alone:
            build_an_table(*first[:2], 12, first[2])
        with pytest.raises(ConsistencyError) as batched:
            build_an_tables(batch, 12)
        assert str(batched.value) == str(alone.value)
    assert build_an_tables([], 12) == []
    with pytest.raises(ValueError):
        build_an_tables([good], 0)


def test_batched_tables_check_every_curve_before_counting(fixture_records, monkeypatch):
    counted = []
    monkeypatch.setattr(lseries, "_point_counts", lambda models, p, cubics=None: counted.append(p))
    good = [(r.a_invariants, r.conductor, r.label) for r in fixture_records[:20]]
    bad = (CURVE_11A1, 11 * 997, "10967a1")  # smooth at 997, the last prime below 1000
    with pytest.raises(ConsistencyError, match="p=997 divides the conductor"):
        build_an_tables([*good, bad, *good], 1000)
    assert counted == []


def _without(n, p):
    while n % p == 0:
        n //= p
    return n


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([2, 12, 60, 300]))
def test_property_batch_raises_what_its_first_inconsistent_curve_raises(fixture_records, data, m):
    # a variant claims a prime <= m at which the model is smooth, or drops
    # one at which it is singular; the check sees no prime above m
    primes = list(_sieve(m).primes)
    batch, bad = [], []
    for rec in data.draw(st.lists(st.sampled_from(fixture_records), min_size=1, max_size=8)):
        n = rec.conductor
        variants = [n * p for p in primes if n % p] + [_without(n, p) for p in primes if n % p == 0]
        claimed = data.draw(st.sampled_from([n, *variants]))
        batch.append((rec.a_invariants, claimed, rec.label))
        if claimed != n:
            bad.append(batch[-1])
    if not bad:
        assert build_an_tables(batch, m) == [build_an_table(a, n, m, label) for a, n, label in batch]
        return
    with pytest.raises(ConsistencyError) as alone:
        build_an_table(*bad[0][:2], m, bad[0][2])
    with pytest.raises(ConsistencyError) as batched:
        build_an_tables(batch, m)
    assert str(batched.value) == str(alone.value)


@st.composite
def model_with_conductor(draw, m):
    """(a-invariants, conductor, fits): a small model, or one with |a4|, |a6|
    >= 10^18 whose cubic passes 2^63 at x = 2 already.  The conductor is
    the product of the primes <= m that divide the discriminant, so every
    prime of a table of length m passes _check_reduction."""
    small = st.integers(-20, 20)
    large = st.integers(10**18, 10**20).flatmap(lambda v: st.sampled_from([v, -v]))
    fits = draw(st.booleans())
    a = tuple(draw(small if fits or i < 3 else large) for i in range(5))
    disc = discriminant(a)
    return a, math.prod(p for p in _sieve(m).primes if disc % p == 0), fits


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([3, 12, 60, 100]))
def test_property_tables_equal_the_oracle_on_both_sides_of_the_int64_bound(data, m):
    curves = data.draw(st.lists(model_with_conductor(m), min_size=1, max_size=4))
    top = _sieve(m).primes[-1]
    for a, _, fits in curves:  # _cubics gives up exactly on the large models
        assert (_cubics([a], top) is not None) == fits, a
    tables = build_an_tables([(a, n, "") for a, n, _ in curves], m)
    assert [t.coefficients for t in tables] == [oracle_an(a, n, m) for a, n, _ in curves]


def sigma0_sqrt_bound(n):
    """sigma_0(n) * sqrt(n), the coefficient size bound."""
    return sum(n % d == 0 for d in range(1, n + 1)) * math.sqrt(n)


def test_an_table_divisor_bound(fixture_records):
    t = build_an_table(CURVE_37A1, 37, 200)
    for n, an in enumerate(t.coefficients, start=1):
        assert abs(an) <= sigma0_sqrt_bound(n) + 1e-9


def test_sigma0_sqrt_bound_values():
    assert sigma0_sqrt_bound(1) == 1.0
    assert sigma0_sqrt_bound(6) == pytest.approx(4 * math.sqrt(6))
    assert sigma0_sqrt_bound(12) == pytest.approx(6 * math.sqrt(12))


# --------------------------------------------------------------- evaluation


def delta_table(m):
    return AnTable("delta", 1, m, (1,) + (0,) * (m - 1))


def test_eval_delta_series_is_constant_one():
    t = delta_table(50)
    for s in (0j, 2 + 0j, -3 + 4j, 1.5 - 2.5j):
        assert eval_truncated_l(t, s) == 1 + 0j


def test_eval_zeta_reference_sums():
    t = zeta_table(1000)
    # partial zeta(2) and the 1000th harmonic number, both via math.fsum
    assert eval_truncated_l(t, 2 + 0j).real == pytest.approx(
        math.fsum(1 / n**2 for n in range(1, 1001)), abs=1e-12
    )
    assert l_at_one(t) == pytest.approx(7.485470860550345, abs=1e-12)


def test_eval_matches_direct_cmath_sum():
    t = build_an_table(CURVE_11A1, 11, 120, "11a1")
    rng = random.Random(3)
    for _ in range(20):
        s = complex(rng.uniform(-2, 4), rng.uniform(-6, 6))
        direct = sum(
            an * cmath.exp(-s * math.log(n))
            for n, an in enumerate(t.coefficients, start=1)
        )
        got = eval_truncated_l(t, s)
        assert got == pytest.approx(direct, rel=1e-10, abs=1e-9)


def test_eval_conjugate_symmetry_is_exact():
    # real coefficients: L(conj s) == conj L(s) bit for bit
    t = build_an_table(CURVE_15A1, 15, 300, "15a1")
    for s in (0.5 + 3j, -1 + 7j, 2.25 - 0.5j):
        assert eval_truncated_l(t, s.conjugate()) == eval_truncated_l(t, s).conjugate()


def test_eval_many_matches_scalar_bitwise():
    # every point, in the cells and outside the grid, has the bits of its
    # one-point evaluation: a one-point array takes other numpy loops
    t = build_an_table(CURVE_17A1, 17, 500, "17a1")
    rng = random.Random(14)
    pts = np.array(
        [complex(rng.uniform(-2, 4), rng.uniform(0, 12)) for _ in range(4097)]
        + [complex(rng.uniform(-12, 16), rng.choice((-1, 1)) * rng.uniform(12.5, 30)) for _ in range(300)]
        + [complex(rng.choice((-8, 9)) + rng.uniform(-4, 4), rng.uniform(-12, 12)) for _ in range(300)]
    )
    vec = eval_truncated_l_many(t, pts)
    assert vec.shape == pts.shape
    assert same_bits(vec, [eval_truncated_l(t, complex(p)) for p in pts])


def test_eval_many_batch_size_invariance():
    t = build_an_table(CURVE_11A1, 11, 200, "11a1")
    rng = random.Random(6)
    pts = np.array([complex(rng.uniform(-2, 4), rng.uniform(0, 12)) for _ in range(513)])
    whole = eval_truncated_l_many(t, pts)
    pieces = np.concatenate(
        [eval_truncated_l_many(t, pts[i : i + 17]) for i in range(0, 513, 17)]
    )
    assert np.array_equal(whole, pieces)


def test_l_at_one_known_snapshot():
    t = build_an_table(CURVE_11A1, 11, 1000, "11a1")
    assert l_at_one(t) == pytest.approx(0.2617803834102429, abs=1e-13)


def test_l_at_one_is_real_output():
    t = build_an_table(CURVE_37A1, 37, 500, "37a1")
    assert isinstance(l_at_one(t), float)


def test_smoothed_value_matches_classical_constant():
    # for 11a1 the even functional equation makes the smoothed estimator
    # converge to L(1) = 0.253841860855911... with a sub-1e-12 tail at M=1000
    t = build_an_table(CURVE_11A1, 11, 1000, "11a1")
    assert smoothed_l_at_one(t) == pytest.approx(0.2538418608559107, abs=1e-10)


def test_smoothed_matches_inline_formula():
    t = build_an_table(CURVE_15A1, 15, 400, "15a1")
    x = 2 * math.pi / math.sqrt(15)
    direct = math.fsum(
        2 * an / n * math.exp(-x * n) for n, an in enumerate(t.coefficients, 1)
    )
    assert smoothed_l_at_one(t) == pytest.approx(direct, rel=1e-12)


# ------------------------------------------------ evaluation property tests

# 1, 2, primes, prime powers, and anything up to ~1200
TRUNCATIONS = st.one_of(
    st.sampled_from([1, 2, 3, 97, 997, 1193, 4, 128, 243, 961, 1024]),
    st.integers(1, 1200),
)
# point counts on both sides of one and two evaluation blocks
POINT_COUNTS = st.one_of(
    st.integers(1, 2 * _EVAL_CHUNK + 2),
    st.sampled_from([_EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1, 2 * _EVAL_CHUNK + 1]),
)


# Taylor cells cover -3.5 < Re s < 5.5, |Im s| <= 12.5 (np.rint ties to even; see eval_truncated_l_many)
HALF_INTEGERS = [k + 0.5 for k in range(-6, 14)]
GRID_BORDER_RE = [-3.5, math.nextafter(-3.5, 0), 5.5, math.nextafter(5.5, 0), 4.5, -2.5]
GRID_BORDER_IM = [12.5, math.nextafter(12.5, 0), math.nextafter(12.5, 13), 11.5]
NON_FINITE = [math.inf, -math.inf, math.nan]


def special_point(rng):
    """A point where a rule of the cell path decides: a cell edge (np.rint
    ties at half-integers), the real axis with Im s = +0.0 or -0.0, the
    border of the grid, or a non-finite part."""
    kind = rng.choice(["edge", "axis", "border", "non-finite"])
    x, y = rng.uniform(-4, 7), rng.uniform(-14, 14)
    if kind == "edge":
        x, y = rng.choice([(rng.choice(HALF_INTEGERS), y), (x, rng.choice(HALF_INTEGERS)),
                           (rng.choice(HALF_INTEGERS), rng.choice(HALF_INTEGERS))])
    elif kind == "axis":
        y = rng.choice([0.0, -0.0])
        x = rng.choice([x, float(rng.randint(-4, 6)), rng.choice(HALF_INTEGERS)])
    elif kind == "border":
        x, y = rng.choice(GRID_BORDER_RE), rng.choice(GRID_BORDER_IM) * rng.choice([1, -1])
        x, y = rng.choice([(x, y), (x, rng.uniform(-12.5, 12.5)), (rng.uniform(-3.5, 5.5), y)])
    else:
        x, y = rng.choice([(rng.choice(NON_FINITE), y), (x, rng.choice(NON_FINITE)),
                           (rng.choice(NON_FINITE), rng.choice(NON_FINITE))])
    return complex(x, y)


@st.composite
def tables_and_points(draw):
    """A truncation, a table with a_{p^k} drawn from -60..60 (20% zeros)
    and extended multiplicatively, and points on both sides of the
    overflow strip, inside and outside the Taylor cells, and on the
    edges where the path a point takes is decided."""
    m = draw(TRUNCATIONS)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    coeffs = multiplicative_coefficients(
        m, lambda q: 0 if rng.random() < 0.2 else rng.randint(-60, 60)
    )
    pts = []
    for _ in range(draw(POINT_COUNTS)):
        u = rng.random()
        if u < 0.1:  # far left: n^(-s) overflows for n >= 3
            pts.append(complex(rng.uniform(-1000, -700), rng.uniform(-20, 20)))
        elif u < 0.4:
            pts.append(special_point(rng))
        else:
            pts.append(complex(rng.uniform(-4, 7), rng.uniform(-20, 20)))
    return AnTable("multiplicative", 1, m, coeffs), np.array(pts, dtype=np.complex128)


def same_bits(x, y):
    """Equal values with NaN matching NaN, real and imaginary parts apart."""
    return np.array_equal(np.asarray(x).view(np.float64), np.asarray(y).view(np.float64), equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(tables_and_points(), st.data())
def test_property_multiplicative_scalar_equals_vector_and_batch_invariant(tp, data):
    t, pts = tp
    vec = eval_truncated_l_many(t, pts)
    scalar = np.array([eval_truncated_l(t, complex(p)) for p in pts])
    assert same_bits(vec, scalar)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pts)), max_size=6)))
    pieces = [eval_truncated_l_many(t, piece) for piece in np.split(pts, cuts)]
    assert same_bits(vec, np.concatenate(pieces))
    assert same_bits(eval_truncated_l_many(t, pts.reshape(1, -1))[0], vec)


@settings(max_examples=60, deadline=None)
@given(tables_and_points())
def test_property_multiplicative_conjugate_symmetry_is_exact(tp):
    t, pts = tp
    assert same_bits(
        eval_truncated_l_many(t, pts.conjugate()), eval_truncated_l_many(t, pts).conjugate()
    )


@settings(max_examples=40, deadline=None)
@given(tables_and_points())
def test_property_multiplicative_matches_direct_cmath_sum(tp):
    t, pts = tp
    got = eval_truncated_l_many(t, pts)
    for s, value in list(zip(pts.tolist(), got.tolist()))[:12]:
        try:
            terms = [an * cmath.exp(-s * math.log(n)) for n, an in enumerate(t.coefficients, 1)]
        except OverflowError:
            continue
        # error relative to the size of the terms, since the sum may cancel
        scale = math.fsum(abs(x) for x in terms)
        if not math.isfinite(scale):
            continue
        assert cmath.isfinite(value)
        assert abs(value - sum(terms)) <= 1e-10 * scale


def test_an_table_rejects_coefficients_that_are_not_multiplicative():
    # exact on the integers: float64 rounds a_2 a_3 + 1 to a_2 a_3
    a2, a3 = 2**30 + 1, 2**30 + 3
    assert float(a2 * a3 + 1) == float(a2) * float(a3)
    with pytest.raises(ValueError, match="not multiplicative"):
        AnTable("x", 1, 6, (1, a2, a3, 0, 0, a2 * a3 + 1))
    assert AnTable("x", 1, 6, (1, a2, a3, 0, 0, a2 * a3)).m == 6


# sha256 (first 16 hex digits) of the plan's integer structure and the
# coprime splits, as the per-call smallest-prime-factor sieve that the
# cached sieve replaced built them: see plan_structure_digest
PLAN_STRUCTURE_DIGESTS = {
    1: "9b242bbdb33b415c",
    2: "d54e93e25a7bd532",
    97: "46dfa413c2e248e2",
    1000: "28bb2153caca6c61",
    10000: "e77db08d9e6b1e15",
}


def plan_structure_digest(m):
    plan = _build_eval_plan(m)
    h = hashlib.sha256()
    for arr in (plan.row_n, plan.lo, plan.hi):  # hi holds pi(x) at each node x
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    h.update(repr(plan.powers).encode())
    for children, edge_rows, parents, starts in plan.levels:
        h.update(repr((children.start, children.stop)).encode())
        for arr in (edge_rows, parents, starts):
            h.update(np.asarray(arr, dtype=np.int64).tobytes())
    h.update(np.asarray(list(_coprime_splits(m)), dtype=np.int64).reshape(-1).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("m", sorted(PLAN_STRUCTURE_DIGESTS))
def test_sieve_primes_rows_and_splits_match_trial_division(m):
    spf = [0, 1] + [next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n) for n in range(2, m + 1)]
    primes = [n for n in range(2, m + 1) if spf[n] == n]
    sieve = _sieve(m)
    assert sieve.primes == tuple(primes)
    assert not sieve.splits.flags.writeable
    splits = []
    for n in range(2, m + 1):
        q = spf[n]
        while n // q % spf[n] == 0:
            q *= spf[n]
        if q < n:
            splits.append((n, q, n // q))
    assert list(_coprime_splits(m)) == splits
    plan = _build_eval_plan(m)
    rows, k = [], 1  # the prime powers: the primes, then the squares, the cubes, ...
    while powers := [p**k for p in primes if p**k <= m]:
        rows += powers
        k += 1
    assert (plan.row_n + 1).tolist() == rows
    pi = np.cumsum([0, 0] + [spf[n] == n for n in range(2, m + 1)])
    assert plan.hi[0] == pi[m] == plan.ln_p.size  # the root node (m, 0) closes with pi(m)
    assert plan_structure_digest(m) == PLAN_STRUCTURE_DIGESTS[m]


def test_eval_takes_recursion_only_for_multiplicative_tables():
    # outside the Taylor cells the recursion runs, bit for bit; inside, the
    # cells agree with it to the cell tolerance
    t = build_an_table(CURVE_11A1, 11, 300, "11a1")
    plan = _eval_plan(t.m)
    outside = np.array([-5 + 3j, 6 + 0j, 0.5 + 13j, 2.25 - 12.75j, -3.5 + 1j, 5.5 - 1j,
                        complex(math.nan, 1), complex(1, math.inf), complex(-math.inf, 0)])
    with np.errstate(all="ignore"):
        recursion = _eval_block(plan, t.series, outside)
    assert same_bits(eval_truncated_l_many(t, outside), recursion)
    inside = np.array([0.5 + 3j, -1 + 7j, 2.25 - 0.5j, -3.25 + 12.5j, 5.25 - 12.5j, 1 + 0j])
    got = eval_truncated_l_many(t, inside)
    recursion = _eval_block(plan, t.series, inside)
    for s, value, expected in zip(inside.tolist(), got.tolist(), recursion.tolist()):
        assert abs(value - expected) <= CELL_TOLERANCE * abs_term_sum(t, s)
    assert not same_bits(got, recursion)  # the cells, not the recursion, gave these
    # a_6 = a_2 a_3 + 1 breaks multiplicativity at one n: such a table is never built
    c = t.coefficients
    with pytest.raises(ValueError, match="not multiplicative"):
        AnTable("x", 11, t.m, c[:5] + (c[1] * c[2] + 1,) + c[6:])


CELL_TOLERANCE = 1e-12  # of sum |a_n n^(-s)|, for points in a Taylor cell


def abs_term_sum(t, s):
    return math.fsum(abs(a) * math.exp(-s.real * math.log(n)) for n, a in enumerate(t.coefficients, 1))


def cell_points():
    """The centre, the four corners and one inner point of every cell."""
    return np.array([complex(i + dx, j + dy) for i in range(-3, 6) for j in range(13)
                     for dx, dy in ((0, 0), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5), (-0.5, -0.5), (0.3, -0.2))])


def test_taylor_degree_is_the_smallest_that_keeps_the_bound():
    def bound(m, degree):  # (r ln m)^(D+1) / (D+1)! * m^r with r = 1/sqrt(2)
        x = math.sqrt(0.5) * math.log(m)
        return math.exp((degree + 1) * math.log(x) - math.lgamma(degree + 2) + x) if m > 1 else 0.0

    assert (_taylor_degree(1000), _taylor_degree(10000)) == (38, 45)
    for m in (1, 2, 97, 1000, 1193, 10000, 10**6):
        degree = _taylor_degree(m)
        assert bound(m, degree) <= 1e-17
        assert degree == 0 or bound(m, degree - 1) > 1e-17


@pytest.mark.parametrize("m", [1, 2, 97, 1000, 1193, 10000])
def test_cells_match_fsum_direct_sum(m):
    # the degree follows m, so the remainder stays below the roundoff at
    # every truncation; the reference sums each part with math.fsum
    t = build_an_table(CURVE_389A1, 389, m, "389a1")
    pts = cell_points()
    got = eval_truncated_l_many(t, pts)
    log_n = np.log(np.arange(1, m + 1, dtype=np.float64))
    for s, value in zip(pts.tolist(), got.tolist()):
        terms = t.series * np.exp(-s * log_n)
        direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert abs(value - direct) <= CELL_TOLERANCE * math.fsum(np.abs(terms)), s


def mp_sums(tables, pts):
    """sum_n a_n n^(-s) at 120 bits for each table (all of one length m) at
    each point: p^(-s) by exp at the primes, every other n^(-s) as the
    product p^(-s) (n/p)^(-s) with p its smallest prime factor."""
    m = tables[0].m
    spf = list(range(m + 1))
    for q in range(2, math.isqrt(m) + 1):
        for n in range(q * q, m + 1, q):
            spf[n] = min(spf[n], q)
    sums = []
    with mpmath.workprec(120):
        for s in pts:
            s = mpmath.mpc(s.real, s.imag)
            powers = [mpmath.mpc(1)] * (m + 1)
            for n in range(2, m + 1):
                p = spf[n]
                powers[n] = mpmath.exp(-s * mpmath.log(n)) if p == n else powers[p] * powers[n // p]
            sums.append([complex(mpmath.fdot(zip(t.coefficients, powers[1:]))) for t in tables])
    return sums


@pytest.mark.parametrize("m", [1000, 10000])
def test_cells_match_a_120_bit_sum(m):
    # the cell polynomial rounds about as much as sum_k |c_k| |s - s0|^k,
    # which is up to sum |a_n| n^(-Re s0 + 1/sqrt(2)): right of a centre s0
    # that is far above sum |a_n| n^(-Re s) (up to 2.8e-13 of it on right
    # cell edges at m = 10000), so the scale is taken at min(Re s, Re s0)
    tables = [build_an_table(curve, n, m, label) for curve, n, label in
              ((CURVE_11A1, 11, "11a1"), (CURVE_37A1, 37, "37a1"), (CURVE_389A1, 389, "389a1"))]
    rng = random.Random(m)
    pts = [complex(rng.uniform(-3.5, 5.5), rng.uniform(-12.5, 12.5)) for _ in range(24)]
    pts += [complex(i + dx, j + dy) for i, j in ((-2, 2), (0, 12), (4, 0))  # rint(i +- 0.5) = i for even i
            for dx, dy in ((0.5, 0.5), (0.5, -0.5), (-0.5, 0.5))] + [1 + 0j, -3 + 0j, 5.5 - 12.5j]
    got = [eval_truncated_l_many(t, np.array(pts)) for t in tables]
    for i, (s, exact) in enumerate(zip(pts, mp_sums(tables, pts))):
        scale_at = complex(min(s.real, np.rint(s.real)))
        for t, values, want in zip(tables, got, exact):
            assert abs(values[i] - want) <= 1e-13 * abs_term_sum(t, scale_at), (t.label, s)


def test_cells_keep_the_sign_of_zero_under_conjugation():
    # a point with the sign bit of Im s set is conj L(conj s), in a cell
    # and on the recursion alike, so on the real axis L(x - 0j) is
    # L(x + 0j) with the sign of its zero flipped; 7, -10, 6.3 and -3.7
    # lie outside the grid
    t = build_an_table(CURVE_15A1, 15, 300, "15a1")
    xs = [-3.5 + 1e-9, -2.0, 0.5, 1.0, 2.5, 5.25, 7.0, -10.0, 6.3, -3.7]
    upper = eval_truncated_l_many(t, np.array([complex(x, 0.0) for x in xs]))
    lower = eval_truncated_l_many(t, np.array([complex(x, -0.0) for x in xs]))
    assert same_bits(lower.real, upper.real)
    assert np.array_equal(np.signbit(lower.imag), ~np.signbit(upper.imag))
    assert not upper.imag.any()


def test_cell_coefficients_have_the_same_bits_for_any_threads_and_order():
    # the reference builds one cell per call, one centre after another; the
    # other builds take up to 8192 // m cells per block (84 at m = 97, 8 at
    # m = 1000, one at m = 10000) in groups that straddle that bound, so a
    # reduction whose bits depend on the block width fails here
    pts = cell_points()
    centres = [np.array([complex(i, j)]) for j in range(13) for i in range(-3, 6)]

    def cells_built(m, groups, workers):
        t = build_an_table(CURVE_389A1, 389, m, "389a1")
        with ThreadPoolExecutor(workers) as pool:
            values = list(pool.map(lambda g: eval_truncated_l_many(t, g), groups))
        coeffs, built = t._cells
        assert built.all()
        return coeffs.copy(), values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for m in (97, 1000, 10000):
            reference, _ = cells_built(m, centres, 1)
            assert same_bits(cells_built(m, [pts], 1)[0], reference), m  # all 117 cells in one call
            for seed, workers in ((1, 1), (2, 2), (3, 2), (4, 1), (5, 2)):
                order = np.random.default_rng(seed).permutation(pts.size)
                cuts = np.sort(np.random.default_rng(seed).choice(pts.size, 40, replace=False))
                groups = np.split(pts[order], cuts)
                coeffs, values = cells_built(m, groups, workers)
                assert same_bits(coeffs, reference), (m, seed)
                assert same_bits(np.concatenate(values), eval_truncated_l_many(build_an_table(
                    CURVE_389A1, 389, m, "389a1"), pts[order]))
    finally:
        sys.setswitchinterval(interval)


def test_cell_blocks_take_the_per_cell_powers_bit_for_bit():
    # a block forms n^(-s0) as n^(-i) times the plan's row n^(-ij); both must
    # carry the bits of the per-cell expressions np.exp(ln_n * -i) and
    # phase**j (phase ** np.arange(13)[:, None] rounds row 2 differently)
    for m in (97, 1000, 10000):
        plan = _eval_plan(m)
        phase = np.exp(plan.ln_n * -1j)
        for j in range(13):
            assert same_bits(plan.phases[j], phase**j), (m, j)
        t = build_an_table(CURVE_389A1, 389, m, "389a1")
        for row in (0, 2, 12):
            block = row * 9 + np.arange(min(9, max(1, _CELL_BLOCK // m)))  # one block
            _cell_coefficients(t, plan, block)
            terms = _SCRATCH.buf[: block.size * m].reshape(block.size, m)  # its n^(-s0), one row per cell
            for cell, got in zip(block.tolist(), terms):
                scale = np.exp(plan.ln_n * -(cell % 9 - 3))
                assert same_bits(got, scale * phase**row), (m, cell)
                if row == 0:  # phase**0 is 1 + 0j, so n^(-s0) is n^(-i)
                    assert same_bits(got.real, scale), (m, cell)


def test_cell_build_stays_in_its_scratch_bound():
    # a block holds at most max(_CELL_BLOCK, m) terms, once as n^(-s0) and once
    # as the float rows of a_n n^(-s0); the coefficients must not be a view
    # into the scratch buffer that the next block overwrites
    def build(m):
        t = build_an_table(CURVE_389A1, 389, m, "389a1")
        coeffs = _cell_coefficients(t, _eval_plan(m), np.arange(117))
        kept = coeffs.copy()
        _cell_coefficients(build_an_table(CURVE_11A1, 11, m, "11a1"), _eval_plan(m), np.arange(117))
        return coeffs, kept, _SCRATCH.buf

    for m in (97, 1000, 10000):
        with ThreadPoolExecutor(1) as pool:  # a new thread, whose scratch buffer starts empty
            coeffs, kept, buf = pool.submit(build, m).result()
        assert buf.size <= 2 * max(_CELL_BLOCK, m), m
        assert not np.shares_memory(coeffs, buf)
        assert same_bits(coeffs, kept)


def test_an_table_pickles_and_deep_copies_with_its_own_lock_and_cells():
    t = build_an_table(CURVE_11A1, 11, 300, "11a1")
    pts = np.concatenate([cell_points(), [-5 + 3j, 6 + 0j, 0.5 + 13j, complex(math.nan, 1)]])
    values = eval_truncated_l_many(t, pts)  # the original has built its cells
    for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert twin == t and twin is not t
        assert twin._cell_lock is not t._cell_lock and not hasattr(twin, "_cells")
        assert same_bits(eval_truncated_l_many(twin, pts), values)


def test_series_array_computed_once_per_table():
    t = build_an_table(CURVE_11A1, 11, 300, "11a1")
    coeffs = t.series
    assert t.series is coeffs and not coeffs.flags.writeable
    assert coeffs.tolist() == list(t.coefficients)
    assert t == AnTable("11a1", 11, t.m, t.coefficients, CURVE_11A1)  # the cached array is not a field


def test_eval_block_result_survives_the_next_block():
    # blocks share a per-thread scratch buffer, so a result must not be a view into it
    t = build_an_table(CURVE_11A1, 11, 300, "11a1")
    plan = _eval_plan(t.m)
    first = _eval_block(plan, t.series, np.array([0.5 + 3j, 2.0 - 1j]))
    kept = first.copy()
    _eval_block(plan, t.series, np.array([1.5 + 7j, -1.0 + 2j, 3.0 + 0j]))
    assert same_bits(first, kept)


@pytest.mark.parametrize(
    "label,curve,conductor", [("11a1", CURVE_11A1, 11), ("37a1", CURVE_37A1, 37), ("389a1", CURVE_389A1, 389)]
)
def test_eval_escape_decision_in_the_overflow_strip(label, curve, conductor):
    # far left, n^(-s) reaches and passes the float64 range; prefix sums
    # must not make a point look bounded that the direct sum sends away
    t = build_an_table(curve, conductor, 1000, label)
    rng = np.random.default_rng(389)
    pts = rng.uniform(-200, -50, 4096) + 1j * rng.uniform(-20, 20, 4096)
    got = eval_truncated_l_many(t, pts)
    log_n = np.log(np.arange(1, 1001, dtype=np.float64))
    coeffs = np.asarray(t.coefficients, dtype=np.float64)
    with np.errstate(all="ignore"):
        direct = np.concatenate(
            [(np.exp(-np.outer(pts[i : i + 256], log_n)) * coeffs).sum(axis=1) for i in range(0, 4096, 256)]
        )
        assert np.array_equal(np.abs(got) <= 1e5, np.abs(direct) <= 1e5)
