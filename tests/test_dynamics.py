"""Escape-time iteration, pixel grids, survivor decay fits, rate estimates."""

import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lflow import dynamics
from lflow.dynamics import (
    CUMULATIVE,
    FINAL,
    NEVER,
    DirichletMap,
    PolynomialMap,
    ScaledExpMap,
    Window,
    _iterate,
    apply_map,
    escape_iterate,
    escape_time_field,
    estimate_escape_rate,
    fit_decay,
    seed_cloud,
)
from lflow.lseries import AnTable, build_an_table

from conftest import CURVE_11A1, unit_uniform


TABLE_11A1 = build_an_table(CURVE_11A1, 11, 120, "11a1")


# ----------------------------------------------------------------- apply_map


def test_polynomial_map_matches_polyval():
    rng = random.Random(2)
    for _ in range(50):
        deg = rng.randint(0, 9)
        coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg + 1)]
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = apply_map(PolynomialMap(coeffs), z)
        want = complex(np.polyval(list(reversed(coeffs)), z))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_scaled_exp_matches_cmath():
    lam = 0.4 - 1.1j
    for z in (0j, 1 + 2j, -3 - 0.5j):
        assert apply_map(ScaledExpMap(lam), z) == pytest.approx(lam * cmath.exp(z), rel=1e-14)
    for bad in (complex("nan"), complex("inf"), complex(1, -math.inf)):  # the map would be degenerate
        with pytest.raises(ValueError, match="lambda must be finite"):
            ScaledExpMap(bad)


def test_dirichlet_map_matches_series_sum():
    t = build_an_table(CURVE_11A1, 11, 80, "11a1")
    f = DirichletMap(t)
    for z in (2 + 0j, 1.5 + 3j, -0.5 + 9j):
        direct = sum(
            an * cmath.exp(-z * math.log(n)) for n, an in enumerate(t.coefficients, 1)
        )
        assert apply_map(f, z) == pytest.approx(direct, rel=1e-10, abs=1e-10)


@st.composite
def maps_and_batches(draw):
    """A polynomial of degree 1..9 with random complex coefficients, lam *
    exp(z) or the 11a1 Dirichlet map, and a batch of points in a box where
    the map both stays finite and overflows, some with a signed zero or a
    non-finite part."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def uniform_complex(r):
        return complex(rng.uniform(-r, r), rng.uniform(-r, r))

    kind = draw(st.sampled_from(["polynomial", "exp", "dirichlet"]))
    if kind == "polynomial":
        spec, r = PolynomialMap([uniform_complex(3) for _ in range(rng.randint(2, 10))]), 3
    elif kind == "exp":
        spec, r = ScaledExpMap(uniform_complex(2)), 800
    else:
        spec, r = DirichletMap(TABLE_11A1), 15
    special = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(2.0, -0.0), complex(math.inf, 1),
               complex(math.nan, 1)]
    n = draw(st.integers(2, 40))
    zs = [rng.choice(special) if rng.random() < 0.1 else uniform_complex(r) for _ in range(n)]
    return spec, np.array(zs, dtype=np.complex128)


@settings(max_examples=150, deadline=None)
@given(maps_and_batches())
def test_property_batch_of_one_is_a_batch(run):
    # compared as bytes, so that the sign of zero and the nan payload count
    spec, zs = run
    for z, want in zip(zs, spec.apply_many(zs)):
        assert np.complex128(apply_map(spec, z)).tobytes() == want.tobytes(), (spec, z)


def test_apply_map_overflow_is_silent():
    # exp overflow must produce a non-finite value, not raise
    z = apply_map(ScaledExpMap(1.0), 1e308 + 0j)
    assert not (math.isfinite(z.real) and math.isfinite(z.imag))


# ------------------------------------------------------------ escape_iterate


def test_square_map_escape_count():
    # 2 -> 4 -> 16 -> 256 -> 65536 -> 4.29e9; first crossing of 1e5 is step 5
    f = PolynomialMap([0, 0, 1])
    assert escape_iterate(f, 2 + 0j, 1e5, 10) == 5
    assert escape_iterate(f, 2 + 0j, 1e5, 4) == NEVER
    assert escape_iterate(f, 2 + 0j, 1e5, 5) == 5


def test_identity_map_never_escapes():
    f = PolynomialMap([0, 1])
    assert escape_iterate(f, 3 + 4j, 10.0, 50) == NEVER


def test_constant_huge_map_escapes_immediately():
    f = PolynomialMap([1e6])
    assert escape_iterate(f, 0j, 1e5, 10) == 1


def test_escape_on_nonfinite_counts_as_escape():
    f = ScaledExpMap(1.0)
    # one application of exp overflows: escape at step 1 even with huge radius
    assert escape_iterate(f, 1e308 + 0j, 1e308, 5) == 1


def test_boundary_is_strict():
    f = PolynomialMap([5.0])  # constant 5
    assert escape_iterate(f, 0j, 5.0, 3) == NEVER  # |5| == radius: inside
    assert escape_iterate(f, 0j, 4.999, 3) == 1


def test_final_vs_cumulative_modes():
    # f(z) = 1 + 2*2^{-z}: from z0 = -30 the first step blows past any radius,
    # then the orbit falls back toward the fixed point near 1.85
    t = AnTable("x", 1, 2, (1, 2))
    f = DirichletMap(t)
    z0 = -30 + 0j
    assert escape_iterate(f, z0, 1e5, 1, mode=CUMULATIVE) == 1
    assert escape_iterate(f, z0, 1e5, 6, mode=CUMULATIVE) == 1
    # final mode looks only at the last iterate, which has returned inside
    assert escape_iterate(f, z0, 1e5, 6, mode=FINAL) == NEVER
    assert escape_iterate(f, z0, 1e5, 1, mode=FINAL) == 1


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        escape_iterate(PolynomialMap([0, 1]), 0j, 1.0, 2, mode="both")


def test_every_entry_point_needs_one_iteration():
    f = PolynomialMap([0, 1])
    for run in (lambda: escape_iterate(f, 0j, 1.0, 0),
                lambda: escape_time_field(f, (-1, 1, -1, 1), 3, 2, 1.0, 0, workers=2),
                lambda: estimate_escape_rate(f, (-1, 1, -1, 1), 10, 1.0, 0, 1),
                lambda: _iterate(f, np.zeros(3, complex), 1.0, -1, FINAL)):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            run()


# --------------------------------------------------------------- pixel grids


def escapes(z, radius):
    """An iterate escapes unless its modulus is a finite number <= radius.
    math.hypot returns inf where abs(complex) would raise OverflowError."""
    m = math.hypot(z.real, z.imag)
    return not (math.isfinite(m) and m <= radius)


def scalar_escape(spec, z, radius, iterations, mode=CUMULATIVE):
    """Per-seed reference loop over apply_map, independent of the kernel."""
    for k in range(1, iterations + 1):
        z = apply_map(spec, z)
        if (mode == CUMULATIVE or k == iterations) and escapes(z, radius):
            return k
    return NEVER


def python_field_oracle(spec, window, width, height, radius, iterations, mode=CUMULATIVE):
    """Per-pixel reference: the scalar loop at explicit pixel centers."""
    w = Window(*window)
    dre = (w.re_max - w.re_min) / width
    dim = (w.im_max - w.im_min) / height
    out = np.zeros((height, width), dtype=np.int32)
    for j in range(height):
        for i in range(width):
            z = complex(w.re_min + (i + 0.5) * dre, w.im_max - (j + 0.5) * dim)
            out[j, i] = scalar_escape(spec, z, radius, iterations, mode)
    return out


def test_field_matches_per_pixel_oracle_square_map():
    f = PolynomialMap([0, 0, 1])
    field = escape_time_field(f, (-2, 2, -2, 2), 16, 12, 4.0, 8)
    assert field.shape == (12, 16)
    assert np.array_equal(field, python_field_oracle(f, (-2, 2, -2, 2), 16, 12, 4.0, 8))


def test_field_matches_per_pixel_oracle_dirichlet():
    t = build_an_table(CURVE_11A1, 11, 60, "11a1")
    f = DirichletMap(t)
    win = (-1.5, 4.5, 0.0, 12.0)
    field = escape_time_field(f, win, 10, 8, 1e5, 6)
    assert np.array_equal(field, python_field_oracle(f, win, 10, 8, 1e5, 6))


def test_field_row_zero_is_top_of_window():
    # map escapes in one step iff |z - 4i| > 3.5; the top row (im = 0.75 for
    # this window) stays closer to 4i than the bottom row (im = 0.25)
    f = PolynomialMap([-4j, 1])
    field = escape_time_field(f, (0, 1, 0, 1), 2, 2, 3.5, 4)
    seeds_top = complex(0.25, 0.75)
    seeds_bot = complex(0.25, 0.25)
    assert field[0, 0] == escape_iterate(f, seeds_top, 3.5, 4)
    assert field[1, 0] == escape_iterate(f, seeds_bot, 3.5, 4)
    assert field[1, 0] < field[0, 0] or field[0, 0] == NEVER


def test_field_final_mode_matches_oracle():
    t = AnTable("x", 1, 2, (1, 2))
    f = DirichletMap(t)
    win = (-35, -25, -1, 1)
    a = escape_time_field(f, win, 6, 4, 1e5, 5, mode=FINAL)
    b = python_field_oracle(f, win, 6, 4, 1e5, 5, mode=FINAL)
    assert np.array_equal(a, b)


def test_field_values_read_only_and_deterministic():
    f = PolynomialMap([0, 0, 1])
    f1 = escape_time_field(f, (-2, 2, -2, 2), 8, 8, 4.0, 6)
    f2 = escape_time_field(f, (-2, 2, -2, 2), 8, 8, 4.0, 6)
    assert f1.tobytes() == f2.tobytes()
    with pytest.raises((ValueError, RuntimeError)):
        f1[0, 0] = 9


def test_field_conjugate_window_mirror_symmetry():
    # real-coefficient series commute with conjugation, so reflecting the
    # window across the real axis flips the image rows exactly
    t = build_an_table(CURVE_11A1, 11, 40, "11a1")
    f = DirichletMap(t)
    upper = escape_time_field(f, (-1.0, 3.0, 0.5, 6.5), 12, 10, 1e4, 6)
    lower = escape_time_field(f, (-1.0, 3.0, -6.5, -0.5), 12, 10, 1e4, 6)
    assert np.array_equal(upper, lower[::-1, :])


def test_window_validation():
    f = PolynomialMap([0, 1])
    with pytest.raises(ValueError):
        escape_time_field(f, (-2, 2, 0, 1), 0, 4, 1.0, 3)
    # seeds at inf + yj would "survive" with L_M(+inf) = 1, and an infinite
    # width (finite edges included) puts every seed at a non-finite point
    for window in ((2, -2, 0, 1), (-1, math.inf, 0, 1), (-math.inf, 1, 0, 1), (-1, 1, math.nan, 1),
                   (-1, 1, -math.inf, math.inf), (-1e308, 1e308, 0, 1), (-1, 1, -1e308, 1e308)):
        for run in (lambda: escape_time_field(f, window, 4, 4, 1.0, 3),
                    lambda: seed_cloud(window, 10, 1),
                    lambda: estimate_escape_rate(f, window, 10, 1.0, 3, 1)):
            with pytest.raises(ValueError, match="degenerate or unbounded window"):
                run()
    widest = (-8e307, 8e307, -8e307, 8e307)  # width and height 1.6e308, still finite
    assert np.isfinite(seed_cloud(widest, 10, 1)).all()


# ----------------------------------------------------------------- fit_decay


def test_fit_recovers_synthetic_exponential_decay():
    n0 = 25000
    for tau0 in (0.1, 0.5, 1.0):
        survivors = [n0] + [round(n0 * math.exp(-tau0 * k)) for k in range(1, 11)]
        tau, r2 = fit_decay(survivors)
        assert abs(tau - tau0) <= 0.02, (tau0, tau)
        assert r2 > 0.999


def test_fit_no_escape_gives_exact_zero():
    tau, r2 = fit_decay([500, 500, 500, 500])
    assert tau == 0.0
    assert r2 == 1.0


def test_fit_everything_gone_after_first_step():
    tau, r2 = fit_decay([500, 0, 0, 0])
    assert tau == math.inf
    assert r2 == 1.0


def test_fit_single_positive_point_endpoint_formula():
    # only S_1 > 0 among k >= 1: slope from the two-point form
    tau, _ = fit_decay([1000, 5, 0, 0])
    assert tau == pytest.approx(math.log(1000 / 5), rel=1e-12)
    # survivors hit zero later: last positive k anchors the endpoint formula
    tau2, _ = fit_decay([1000, 1000, 0])
    assert tau2 == 0.0  # S_1 == S_0, regression on the single point k=1


def test_fit_partial_plateau_slope():
    # plateau after an initial drop: least squares over positive entries
    survivors = [100, 50, 50, 50, 50]
    tau, r2 = fit_decay(survivors)
    ks = [1, 2, 3, 4]
    ys = [math.log(50)] * 4
    assert tau == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= r2 <= 1.0


def test_fit_rejects_bad_series():
    with pytest.raises(ValueError):
        fit_decay([100, 120, 90])  # not non-increasing
    with pytest.raises(ValueError):
        fit_decay([100])  # need at least one iterate
    with pytest.raises(ValueError):
        fit_decay([100, -5])


def test_fit_least_squares_against_inline_solution():
    rng = random.Random(19)
    for _ in range(25):
        n0 = rng.randint(1000, 50000)
        tau0 = rng.uniform(0.05, 1.2)
        survivors = [n0]
        for k in range(1, 9):
            survivors.append(max(0, round(n0 * math.exp(-tau0 * k)) - rng.randint(0, 3)))
        for k in range(1, 9):  # repair any accidental increase
            survivors[k] = min(survivors[k], survivors[k - 1])
        pts = [(k, math.log(s)) for k, s in enumerate(survivors) if k >= 1 and s > 0]
        if len(pts) < 2:
            continue
        n = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] * p[0] for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        tau, _ = fit_decay(survivors)
        assert tau == pytest.approx(-slope, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ rate estimates


def test_seed_cloud_layout_and_window():
    win = Window(-1.5, 4.5, 0.0, 12.0)
    cloud = seed_cloud(win, 100, master_seed=7)
    assert cloud.shape == (100,)
    assert cloud.dtype == np.complex128
    for z in cloud:
        assert win.re_min <= z.real < win.re_max
        assert win.im_min <= z.imag < win.im_max
    # seed i consumes counters 2i (real) and 2i+1 (imag)
    for i in (0, 1, 57, 99):
        re = win.re_min + unit_uniform(7, 2 * i) * (win.re_max - win.re_min)
        im = win.im_min + unit_uniform(7, 2 * i + 1) * (win.im_max - win.im_min)
        assert cloud[i] == complex(re, im)


def test_estimate_identity_map_is_zero_rate():
    est = estimate_escape_rate(PolynomialMap([0, 1]), (-1, 1, -1, 1), 200, 10.0, 8, 1)
    assert est.tau == 0.0
    assert est.survivors == (200,) * 9
    assert est.r_squared == 1.0


def test_estimate_constant_huge_map_is_infinite_rate():
    est = estimate_escape_rate(PolynomialMap([1e9]), (-1, 1, -1, 1), 150, 1e5, 6, 3)
    assert est.tau == math.inf
    assert est.survivors == (150, 0, 0, 0, 0, 0, 0)


def test_estimate_matches_scalar_reference():
    # full scalar re-derivation: same seeds, same map, python complex loop
    f = PolynomialMap([0.25 + 0.1j, 0, 1])
    win = Window(-2.0, 2.0, -2.0, 2.0)
    n, K, R, seed = 500, 8, 100.0, 11
    est = estimate_escape_rate(f, win, n, R, K, seed)
    cloud = seed_cloud(win, n, seed)
    counts = [n]
    alive = list(cloud)
    for _ in range(K):
        nxt = []
        for z in alive:
            z = z * z + (0.25 + 0.1j)
            ok = (
                math.isfinite(z.real)
                and math.isfinite(z.imag)
                and abs(z) <= R
            )
            if ok:
                nxt.append(z)
        alive = nxt
        counts.append(len(alive))
    assert est.survivors == tuple(counts)
    tau, r2 = fit_decay(counts)
    assert est.tau == tau
    assert est.r_squared == r2


def test_estimate_deterministic_and_seed_sensitive():
    t = build_an_table(CURVE_11A1, 11, 100, "11a1")
    f = DirichletMap(t)
    win = (-1.5, 4.5, 0.0, 12.0)
    e1 = estimate_escape_rate(f, win, 400, 1e5, 10, 1)
    e2 = estimate_escape_rate(f, win, 400, 1e5, 10, 1)
    e3 = estimate_escape_rate(f, win, 400, 1e5, 10, 2)
    assert e1 == e2
    assert e1.survivors != e3.survivors
    assert e1.survivors[0] == 400
    for a, b in zip(e1.survivors, e1.survivors[1:]):
        assert b <= a


# ------------------------------------------------------ kernel properties


@st.composite
def maps_and_seeds(draw):
    """A random low-degree polynomial, or lam*exp(z) with seeds far enough
    right that exp overflows to inf and later iterates turn nan."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def uniform_complex(lo, hi):
        return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        spec = PolynomialMap([uniform_complex(-2, 2) for _ in range(draw(st.integers(1, 5)))])
        seeds = [uniform_complex(-2, 2) for _ in range(n)]
    else:
        spec = ScaledExpMap(uniform_complex(-2, 2))
        seeds = [
            complex(rng.choice([rng.uniform(-4, 4), rng.uniform(700, 720), rng.uniform(1e3, 1e308)]),
                    rng.uniform(-4, 4))
            for _ in range(n)
        ]
    return spec, np.array(seeds, dtype=np.complex128)


KERNEL_RUNS = st.tuples(
    maps_and_seeds(),
    st.one_of(st.floats(0.5, 10), st.floats(10, 1e4), st.floats(1e4, 1e300), st.just(math.inf)),
    st.integers(1, 12),
    st.sampled_from([CUMULATIVE, FINAL]),
)


@settings(max_examples=150, deadline=None)
@given(KERNEL_RUNS)
def test_property_kernel_matches_scalar_loop(run):
    (spec, seeds), radius, iterations, mode = run
    escape, survivors = _iterate(spec, seeds, radius, iterations, mode)
    want = [scalar_escape(spec, complex(z), radius, iterations, mode) for z in seeds]
    assert escape.tolist() == want
    assert survivors == [
        int(np.count_nonzero((escape == NEVER) | (escape > k))) for k in range(iterations + 1)
    ]


@settings(max_examples=100, deadline=None)
@given(KERNEL_RUNS, st.data())
def test_property_kernel_split_invariant(run, data):
    (spec, seeds), radius, iterations, mode = run
    cut = data.draw(st.integers(0, seeds.size))
    escape, survivors = _iterate(spec, seeds, radius, iterations, mode)
    head_escape, head_survivors = _iterate(spec, seeds[:cut], radius, iterations, mode)
    tail_escape, tail_survivors = _iterate(spec, seeds[cut:], radius, iterations, mode)
    assert np.array_equal(escape, np.concatenate([head_escape, tail_escape]))
    assert survivors == [a + b for a, b in zip(head_survivors, tail_survivors)]


@st.composite
def fields_to_split(draw):
    """A Dirichlet, polynomial or exp map, a window inside a box where it
    both escapes and stays bounded (the exp box overflows to inf), and a
    field of at most 9x9 pixels, so often fewer pixels than workers."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "polynomial", "exp"]))
    if kind == "dirichlet":
        spec, box = DirichletMap(TABLE_11A1), (-1.5, 4.5, -12.0, 12.0)
    elif kind == "polynomial":
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 5))]
        spec, box = PolynomialMap(coeffs), (-2.0, 2.0, -2.0, 2.0)
    else:
        spec, box = ScaledExpMap(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))), (-4.0, 720.0, -4.0, 4.0)

    def interval(lo, hi):
        a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
        return a, max(b, a + 1e-3)

    window = (*interval(*box[:2]), *interval(*box[2:]))
    return (spec, window, draw(st.integers(1, 9)), draw(st.integers(1, 9)),
            draw(st.sampled_from([4.0, 1e3, 1e5])), draw(st.integers(1, 8)),
            draw(st.sampled_from([CUMULATIVE, FINAL])))


@settings(max_examples=120, deadline=None)
@given(fields_to_split())
@example((DirichletMap(TABLE_11A1), (-1.5, 4.5, 0.0, 12.0), 1, 1, 1e5, 10, CUMULATIVE))
@example((ScaledExpMap(1.0), (-3.0, 3.0, -3.0, 3.0), 1, 1, 50.0, 6, FINAL))
@example((PolynomialMap([0.25, 0, 1]), (-2.0, 2.0, -2.0, 2.0), 3, 1, 4.0, 8, CUMULATIVE))
def test_property_field_same_for_every_worker_count(run):
    spec, window, width, height, radius, iterations, mode = run
    one = escape_time_field(spec, window, width, height, radius, iterations, mode)
    sizes = []  # seeds per _iterate call; list.append is atomic across the pool's threads

    def counted(spec, z0, *rest):
        sizes.append(z0.size)
        return _iterate(spec, z0, *rest)

    for block in (dynamics._FIELD_BLOCK, 1, 4):  # small blocks: several per share
        with mock.patch.object(dynamics, "_FIELD_BLOCK", block), \
                mock.patch.object(dynamics, "_iterate", counted):
            for workers in range(1, 9) if block == 4 else (1, 2, 3, 5, 8):
                sizes.clear()
                split = escape_time_field(spec, window, width, height, radius, iterations, mode,
                                          workers=workers)
                assert np.array_equal(split, one), (block, workers)
                assert sum(sizes) == width * height and max(sizes) <= block, (block, workers)
