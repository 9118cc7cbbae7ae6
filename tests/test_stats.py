"""Rank correlation and the t-tail machinery, checked against scipy and
against an exact permutation null for tiny n."""

import itertools
import math
import random

import pytest
import scipy.special
import scipy.stats

from lflow.errors import NumericError, UndefinedCorrelationError
from lflow.stats import (
    average_ranks,
    correlation_report,
    regularized_incomplete_beta,
    spearman_rho,
    student_t_sf,
)


# --------------------------------------------------------------------- ranks


def test_average_ranks_basic():
    assert average_ranks([10.0, 20.0, 30.0]) == [1.0, 2.0, 3.0]
    assert average_ranks([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]
    # tie block gets the mean of the ranks it spans
    assert average_ranks([1.0, 2.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]


def test_average_ranks_against_scipy():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 40)
        vals = [rng.choice([rng.uniform(-5, 5), rng.randint(-3, 3)]) for _ in range(n)]
        got = average_ranks(vals)
        want = scipy.stats.rankdata(vals, method="average").tolist()
        assert got == pytest.approx(want, abs=0)


# ------------------------------------------------------------------ spearman


def test_spearman_handbook_example():
    # one tie pair in each margin, worked by hand: rho = 4.5 / sqrt(22.5)
    rho = spearman_rho([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert rho == pytest.approx(4.5 / math.sqrt(4.5 * 5.0), rel=1e-15)
    assert rho == pytest.approx(0.9486832980505138, rel=1e-15)


def test_spearman_perfect_and_reversed():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(x, [2.0, 4.0, 6.0, 8.0, 10.0]) == pytest.approx(1.0)
    assert spearman_rho(x, [-1.0, -2.0, -3.0, -4.0, -5.0]) == pytest.approx(-1.0)


def test_spearman_against_scipy():
    rng = random.Random(12)
    for trial in range(80):
        n = rng.randint(3, 60)
        x = [rng.uniform(-10, 10) for _ in range(n)]
        y = [rng.uniform(-10, 10) for _ in range(n)]
        if trial % 3 == 0:  # inject ties
            x = [round(v) for v in x]
        if trial % 4 == 0:
            y = [round(v) for v in y]
        try:
            got = spearman_rho(x, y)
        except UndefinedCorrelationError:
            assert len(set(x)) == 1 or len(set(y)) == 1
            continue
        want = scipy.stats.spearmanr(x, y).statistic
        assert got == pytest.approx(want, abs=1e-12)


def test_spearman_invariant_under_monotone_transform():
    rng = random.Random(9)
    x = [rng.uniform(0, 10) for _ in range(30)]
    y = [rng.uniform(0, 10) for _ in range(30)]
    base = spearman_rho(x, y)
    assert spearman_rho([math.exp(v) for v in x], y) == base
    assert spearman_rho(x, [v**3 + 2 for v in y]) == base
    assert spearman_rho([-v for v in x], y) == -base


def test_spearman_rejects_degenerate_input():
    with pytest.raises(ValueError):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman_rho([1.0, 2.0], [3.0, 4.0])  # n < 3
    for x in ([math.nan, 1.0, 2.0, 3.0], [1.0, 2.0, math.nan, 3.0]):  # NaN in any position
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho(x, [4.0, 1.0, 3.0, 2.0])
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho([4.0, 1.0, 3.0, 2.0], x)


# -------------------------------------------------------------------- t tail


def test_t_sf_fixed_points():
    assert student_t_sf(0.0, 5) == 0.5
    # Cauchy: sf(1) = 1/4 exactly
    assert student_t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-14)
    assert student_t_sf(-1.0, 1) == pytest.approx(0.75, abs=1e-14)
    assert student_t_sf(math.inf, 7) == 0.0


def test_t_sf_reflection_identity():
    for t in (0.3, 1.7, 4.2):
        for df in (1, 4, 28):
            assert student_t_sf(-t, df) == pytest.approx(
                1.0 - student_t_sf(t, df), rel=1e-13
            )


def test_t_sf_against_scipy_grid():
    for df in (1, 2, 3, 5, 10, 28, 68, 200, 323):
        for t in (0.05, 0.5, 1.0, 2.5, 5.0, 9.64, 22.4, 30.0):
            got = student_t_sf(t, df)
            want = scipy.stats.t.sf(t, df)
            assert got == pytest.approx(want, rel=1e-10), (t, df)


def test_t_sf_extreme_tail_against_scipy():
    # the regime the pipeline actually lives in: huge |t|, tiny p
    for t, df in ((9.642865159528494, 68), (22.40136706028364, 323)):
        got = student_t_sf(t, df)
        want = scipy.stats.t.sf(t, df)
        assert got == pytest.approx(want, rel=1e-9)


def test_incomplete_beta_against_scipy():
    rng = random.Random(33)
    for _ in range(200):
        a = rng.uniform(0.5, 200)
        b = rng.uniform(0.5, 200)
        x = rng.random()
        got = regularized_incomplete_beta(a, b, x)
        want = scipy.special.betainc(a, b, x)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
    assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
    assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0


def test_incomplete_beta_gives_up_when_the_fraction_does_not_converge():
    # near x = a / (a + b) with a, b this large the fraction needs far more than 500 steps
    with pytest.raises(NumericError, match="did not converge"):
        regularized_incomplete_beta(1e7, 1e7, 0.5)


# ------------------------------------------------------------------- reports


def exact_permutation_p_one_sided(x, y, observed):
    """Exact permutation tail in the direction of the observed sign."""
    n = len(x)
    count = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        rho = spearman_rho(x, [y[i] for i in perm])
        total += 1
        if observed < 0:
            count += rho <= observed + 1e-12
        else:
            count += rho >= observed - 1e-12
    return count / total


def test_report_fields_and_two_sided_relation():
    rng = random.Random(21)
    x = [rng.uniform(0, 1) for _ in range(20)]
    y = [-v + rng.uniform(0, 0.4) for v in x]
    rep = correlation_report(x, y, alpha=0.001)
    assert rep.n == 20 and rep.df == 18
    assert rep.r_s == spearman_rho(x, y)
    expected_t = rep.r_s * math.sqrt((rep.n - 2) / (1 - rep.r_s**2))
    assert rep.t_stat == pytest.approx(expected_t, rel=1e-12)
    assert rep.p_two_sided == pytest.approx(2 * rep.p_one_sided, rel=1e-12)
    assert rep.reject == (rep.p_two_sided < 0.001)


def test_report_perfect_correlation_degenerate_t():
    rep = correlation_report([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0], 0.05)
    assert rep.r_s == 1.0
    assert rep.t_stat == math.inf
    assert rep.p_one_sided == 0.0  # per the |r| = 1 convention
    rep2 = correlation_report([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], 0.05)
    assert rep2.r_s == -1.0 and rep2.t_stat == -math.inf


def test_report_one_sided_direction():
    # one-sided p follows the observed sign, so it is sf(|t|) either way
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [6.0, 4.0, 5.0, 3.0, 1.0, 2.0]
    rep = correlation_report(x, y, 0.05)
    assert rep.r_s < 0
    assert rep.p_one_sided == pytest.approx(student_t_sf(abs(rep.t_stat), rep.df))
    rep2 = correlation_report(x, list(reversed(y)), 0.05)
    assert rep2.r_s > 0
    assert rep2.p_one_sided == rep.p_one_sided  # mirrored data, same tail


def test_report_alpha_validation():
    with pytest.raises(ValueError):
        correlation_report([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.0)
    with pytest.raises(ValueError):
        correlation_report([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1.0)


def test_t_approximation_close_to_exact_permutation_null_n5():
    rng = random.Random(100)
    checked = 0
    for _ in range(40):
        x = [rng.uniform(0, 1) for _ in range(5)]
        y = [rng.uniform(0, 1) for _ in range(5)]
        rho = spearman_rho(x, y)
        if abs(rho) >= 1:
            continue
        rep = correlation_report(x, y, 0.05)
        exact = exact_permutation_p_one_sided(x, y, rho)
        assert abs(rep.p_one_sided - exact) <= 0.05, (rho, rep.p_one_sided, exact)
        checked += 1
    assert checked >= 30

