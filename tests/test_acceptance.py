"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; the final criterion performs full-size pipeline runs and dominates
the wall time.
"""

import math
import random
import statistics
import time
from itertools import permutations

import numpy as np
import pytest

from lflow.catalog import split_label
from lflow.dynamics import (
    NEVER,
    DirichletMap,
    PolynomialMap,
    ScaledExpMap,
    Window,
    escape_iterate,
    escape_time_field,
    estimate_escape_rate,
    fit_decay,
)
from lflow.formal_group import defining_relation_residual, expand_formal_group, nonic_polynomial
from lflow.lseries import build_an_table
from lflow.pipeline import (
    RunConfig,
    build_config,
    cmd_observe,
    cmd_render,
    cmd_reproduce,
    observations_to_csv,
)
from lflow.stats import average_ranks, spearman_rho, student_t_sf

from conftest import FIXTURE_CATALOG, oracle_an


def _line(ok: bool, num: int, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num}: {detail}")
    return ok


# ------------------------------------------------------------- criterion 1


def test_criterion_1_coefficient_oracle_equivalence():
    curves = {
        "11a1": (0, -1, 1, -10, -20),
        "15a1": (1, 1, 1, -10, -10),  # 3 | 15
        "21a1": (1, 0, 0, -4, -1),  # 3 | 21
        "37a1": (0, 0, 1, -1, 0),
        "389a1": (0, 1, 1, -2, 0),
    }
    t0 = time.monotonic()
    bad = []
    for label, a in curves.items():
        n = split_label(label)[0]
        got = build_an_table(a, n, 100, label).coefficients
        want = oracle_an(a, n, 100)
        if got != want:
            bad.append(label)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10.0
    assert _line(
        ok,
        1,
        f"a_n oracle equality n<=100 on {len(curves)} curves "
        f"(mismatches: {bad or 'none'}) in {elapsed:.2f}s (budget 10s)",
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2_formal_group_master_identity():
    t0 = time.monotonic()
    rng = random.Random(20260814)
    failures = 0
    for _ in range(25):
        a = tuple(rng.randint(-20, 20) for _ in range(5))
        residual = defining_relation_residual(a, expand_formal_group(a))
        if any(x != 0 for x in residual):
            failures += 1
    zero_ok = expand_formal_group((0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 0)
    elapsed = time.monotonic() - t0
    ok = failures == 0 and zero_ok and elapsed < 1.0
    assert _line(
        ok,
        2,
        f"defining-relation residual exact on 25 random tuples "
        f"({failures} failures), zero tuple -> zero expansion: {zero_ok}, "
        f"in {elapsed:.3f}s (budget 1s)",
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_escape_rate_calibration():
    errs = {}
    for tau0 in (0.1, 0.5, 1.0):
        survivors = [25000] + [round(25000 * math.exp(-tau0 * k)) for k in range(1, 11)]
        tau, _ = fit_decay(survivors)
        errs[tau0] = abs(tau - tau0)
    ident = estimate_escape_rate(PolynomialMap([0, 1]), (-1, 1, -1, 1), 500, 10.0, 10, 1)
    huge = estimate_escape_rate(PolynomialMap([1e9]), (-1, 1, -1, 1), 500, 1e5, 10, 1)
    ok = (
        all(e <= 0.02 for e in errs.values())
        and ident.tau == 0.0
        and huge.tau == math.inf
    )
    assert _line(
        ok,
        3,
        "synthetic tau errors "
        + ", ".join(f"{t}->{e:.4f}" for t, e in errs.items())
        + f" (tol 0.02); identity tau={ident.tau}, constant-huge tau={huge.tau}",
    )


# ------------------------------------------------------------- criterion 4


def test_criterion_4_determinism_across_threads(tmp_path):
    labels = ["33a1", "66b1", "105a1"]
    csvs = []
    for threads in (1, 4, 8, 1):  # trailing 1 repeats the first run
        cfg = RunConfig(
            catalog_path=FIXTURE_CATALOG,
            cache_dir=str(tmp_path / "cache"),
            m=300,
            n_seeds=2000,
            iterations=10,
            threads=threads,
        )
        rows = cmd_observe(labels, cfg)
        csvs.append(observations_to_csv(rows, cfg.iterations).encode())
    renders = []
    for _ in range(2):
        cfg = RunConfig(
            catalog_path=FIXTURE_CATALOG,
            cache_dir=str(tmp_path / "cache"),
            m=300,
            iterations=10,
        )
        renders.append(cmd_render("33a1", cfg, 64, 48))
    ok = len(set(csvs)) == 1 and len(set(renders)) == 1
    assert _line(
        ok,
        4,
        f"observe CSV identical across threads 1/4/8 and rerun: {len(set(csvs)) == 1}; "
        f"render PGM identical across reruns: {len(set(renders)) == 1}",
    )


# ------------------------------------------------------------- criterion 5


def _brute_pearson_on_ranks(x, y):
    rx, ry = average_ranks(x), average_ranks(y)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = math.fsum((a - mx) ** 2 for a in rx)
    syy = math.fsum((b - my) ** 2 for b in ry)
    return sxy / math.sqrt(sxx * syy)


def test_criterion_5_statistics_oracle():
    rng = random.Random(55)
    worst = 0.0
    perm_worst = 0.0
    perm_cases = 0
    for case in range(100):
        n = 5 if case < 30 else rng.randint(4, 50)
        if n == 5:
            # the t-approximation is only a ~0.04 approximation of the exact
            # n=5 null for light ties; heavier ties degrade it past the band,
            # so the permutation subset allows at most one duplicated value
            x = [rng.uniform(0, 1) for _ in range(n)]
            y = [rng.uniform(0, 1) for _ in range(n)]
            if case % 3 == 0:
                y[1] = y[0]
        else:
            x = [float(rng.randint(0, n // 2)) for _ in range(n)]  # heavy ties
            y = [rng.uniform(0, 1) for _ in range(n)]
            if len(set(x)) < 2:
                x[0] += 1.0
        rho = spearman_rho(x, y)
        worst = max(worst, abs(rho - _brute_pearson_on_ranks(x, y)))
        if n == 5:
            perm_cases += 1
            if abs(rho) >= 1.0:
                p_t = 0.0
            else:
                t = rho * math.sqrt(3 / (1 - rho * rho))
                p_t = student_t_sf(abs(t), 3)
            count = 0
            for perm in permutations(range(5)):
                rp = spearman_rho(x, [y[i] for i in perm])
                count += (rp <= rho + 1e-12) if rho < 0 else (rp >= rho - 1e-12)
            perm_worst = max(perm_worst, abs(p_t - count / 120))
    sf_zero = student_t_sf(0.0, 7) == 0.5
    cauchy_err = abs(student_t_sf(1.0, 1) - 0.25)
    ok = worst <= 1e-12 and perm_worst <= 0.05 and sf_zero and cauchy_err <= 1e-12
    assert _line(
        ok,
        5,
        f"spearman vs rank-Pearson worst |diff| = {worst:.2e} (tol 1e-12); "
        f"t-approx vs exact permutation worst |diff| = {perm_worst:.3f} over "
        f"{perm_cases} n=5 cases (tol 0.05); sf(0)=0.5: {sf_zero}; "
        f"Cauchy error {cauchy_err:.1e} (tol 1e-12)",
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_paper_p_value_plumbing():
    cases = [
        (70, -0.76, 3.107e-14),
        (325, -0.78, 7.9098e-69),
    ]
    details = []
    ok = True
    for n, r, reported in cases:
        t = r * math.sqrt((n - 2) / (1 - r * r))
        p = student_t_sf(abs(t), n - 2)
        ratio = p / reported
        in_band = 1e-2 <= ratio <= 1e2
        ok = ok and in_band
        details.append(f"n={n}: p={p:.4e} vs reported {reported:.4e} (ratio {ratio:.2f})")
    assert _line(ok, 6, "; ".join(details) + " (band: two orders of magnitude)")


# ------------------------------------------------------------- criterion 7


@pytest.mark.parametrize("n_seeds,mode_name", [(25000, "full"), (5000, "reduced")])
def test_criterion_7_headline_correlation(tmp_path_factory, n_seeds, mode_name):
    cache_dir = tmp_path_factory.getbasetemp() / "an-cache-shared"
    hits = 0
    per_seed = []
    t0 = time.monotonic()
    for seed in (1, 2, 3, 4, 5):
        out_dir = tmp_path_factory.mktemp(f"run-{mode_name}-{seed}")
        cfg = build_config(
            preset="sample1",
            flag_overrides={
                "catalog_path": FIXTURE_CATALOG,
                "cache_dir": str(cache_dir),
                "n_seeds": n_seeds,
                "master_seed": seed,
                "threads": 8,
            },
            environ={},
        )
        result = cmd_reproduce(cfg, str(out_dir))
        rep = result["report"]
        in_band = rep.r_s <= -0.45 and rep.p_two_sided < 0.001
        hits += in_band
        per_seed.append(
            f"seed {seed}: r_s={rep.r_s:+.4f} p_two={rep.p_two_sided:.3e} "
            f"excluded={result['excluded']} {'OK' if in_band else 'MISS'}"
        )
    elapsed = time.monotonic() - t0
    for line in per_seed:
        print(f"  [{mode_name} {n_seeds} seeds] {line}")
    ok = hits >= 4
    assert _line(
        ok,
        7,
        f"{mode_name} mode ({n_seeds} seeds): {hits}/5 master seeds give "
        f"r_s <= -0.45 and p_two < 0.001 (need >= 4) in {elapsed / 60:.1f} min",
    )


# ------------------------------------------------------------- criterion 8


def _per_pixel_oracle(spec, window, width, height, radius, iterations):
    w = Window(*window)
    dre = (w.re_max - w.re_min) / width
    dim = (w.im_max - w.im_min) / height
    out = np.zeros((height, width), dtype=np.int32)
    for j in range(height):
        for i in range(width):
            z = complex(w.re_min + (i + 0.5) * dre, w.im_max - (j + 0.5) * dim)
            out[j, i] = escape_iterate(spec, z, radius, iterations)
    return out


def test_criterion_8_rendering_sanity():
    table = build_an_table((0, -1, 1, -10, -20), 11, 200, "11a1")
    maps = {
        "dirichlet": (DirichletMap(table), (-1.5, 4.5, 0.0, 12.0), 1e5),
        "nonic": (PolynomialMap(nonic_polynomial((0, -1, 1, -10, -20))), (-1.2, 1.2, -1.2, 1.2), 100.0),
        "exp": (ScaledExpMap(1.0), (-3.0, 3.0, -3.0, 3.0), 50.0),
    }
    mismatches = []
    for name, (spec, win, radius) in maps.items():
        field = escape_time_field(spec, win, 16, 16, radius, 8)
        if not np.array_equal(field, _per_pixel_oracle(spec, win, 16, 16, radius, 8)):
            mismatches.append(name)
    # conjugate symmetry: reflect the window across the real axis
    sym_ok = True
    for name in ("dirichlet", "nonic"):
        spec, (re0, re1, im0, im1), radius = maps[name]
        up = escape_time_field(spec, (re0, re1, 0.25, 2.25), 16, 16, radius, 8)
        dn = escape_time_field(spec, (re0, re1, -2.25, -0.25), 16, 16, radius, 8)
        sym_ok = sym_ok and np.array_equal(up, dn[::-1, :])
    ok = not mismatches and sym_ok
    assert _line(
        ok,
        8,
        f"16x16 field == per-pixel oracle for dirichlet/nonic/exp "
        f"(mismatches: {mismatches or 'none'}); mirrored-window conjugate "
        f"symmetry exact: {sym_ok}",
    )
