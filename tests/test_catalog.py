"""Catalog parsing, curve invariants, labels, and the sampling protocol."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lflow.catalog import (
    CurveRecord,
    SamplePlan,
    b_invariants,
    c_invariants,
    class_code_to_int,
    count_eligible_classes,
    discriminant,
    int_to_class_code,
    is_eligible,
    is_squarefree,
    load_catalog,
    parse_catalog,
    select_sample,
    serialize_catalog,
    split_label,
)
from lflow.errors import CatalogError, LflowError, SamplingError, SingularCurveError

from conftest import CURVE_11A1, FIXTURE_CATALOG, REPO_ROOT, unit_uniform


def reference_discriminant(a):
    # straight from the Weierstrass formulary, including the alternative b8
    # expansion, so a transcription slip in src/ cannot hide
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6


# ---------------------------------------------------------------- invariants


def test_discriminant_known_values():
    assert discriminant((0, 0, 0, -1, 0)) == 64  # y^2 = x^3 - x
    assert discriminant(CURVE_11A1) == -161051  # -11^5
    assert discriminant((0, 0, 0, 0, 0)) == 0  # cusp
    assert discriminant((0, 1, 0, 0, 0)) == 0  # node


def test_invariants_match_reference_formulary():
    rng = random.Random(7)
    for _ in range(300):
        a = tuple(rng.randint(-30, 30) for _ in range(5))
        assert discriminant(a) == reference_discriminant(a)
        b2, b4, b6, b8 = b_invariants(a)
        assert 4 * b8 == b2 * b6 - b4 * b4
        c4, c6 = c_invariants(a)
        assert c4 == b2 * b2 - 24 * b4
        assert c6 == -(b2**3) + 36 * b2 * b4 - 216 * b6
        # the 1728 identity ties all of them together
        assert c4**3 - c6**2 == 1728 * discriminant(a)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-10**6, 10**6)] * 5))
def test_b8_identity_holds_for_large_invariants(a):
    a1, a2, a3, a4, a6 = a
    b2, b4, b6, b8 = b_invariants(a)
    assert 4 * b8 == b2 * b6 - b4**2
    assert b8 == a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4


# -------------------------------------------------------------------- labels


def test_class_codes_round_trip():
    assert class_code_to_int("a") == 0
    assert class_code_to_int("z") == 25
    assert class_code_to_int("ba") == 26
    assert class_code_to_int("zz") == 25 * 26 + 25
    for n in range(0, 1500):
        assert class_code_to_int(int_to_class_code(n)) == n


def test_class_codes_reject_junk():
    for bad in ("", "A", "a1", "ab2", "aa"):  # leading 'a' invalid beyond 1 char
        with pytest.raises(ValueError):
            class_code_to_int(bad)


def test_split_label():
    assert split_label("11a1") == (11, "a", 1)
    assert split_label("5077ba12") == (5077, "ba", 12)
    with pytest.raises(ValueError):
        split_label("11a")
    with pytest.raises(ValueError):
        split_label("a11")


def test_record_label_property():
    rec = CurveRecord(37, "b", 2, (0, 1, 1, -23, -50), 0, 3)
    assert rec.label == "37b2"
    assert split_label(rec.label) == (37, "b", 2)


# ------------------------------------------------------------------- parsing


def test_parse_basic_line():
    recs = parse_catalog("11 a 1 [0,-1,1,-10,-20] 0 5\n")
    assert len(recs) == 1
    r = recs[0]
    assert r.conductor == 11
    assert r.a_invariants == CURVE_11A1
    assert (r.rank, r.torsion) == (0, 5)


def test_parse_skips_blank_lines_and_round_trips(fixture_records):
    text = serialize_catalog(fixture_records)
    assert parse_catalog(text) == fixture_records
    padded = "\n\n" + text.replace("\n", "\n\n", 3)
    assert parse_catalog(padded) == fixture_records


def test_parse_rejects_field_count():
    with pytest.raises(CatalogError) as err:
        parse_catalog("11 a 1 [0,-1,1,-10,-20] 0\n")
    assert "line 1" in str(err.value)


def test_parse_rejects_bad_ainvs():
    with pytest.raises(CatalogError):
        parse_catalog("11 a 1 [0,-1,1,-10] 0 5\n")
    with pytest.raises(CatalogError):
        parse_catalog("11 a 1 (0,-1,1,-10,-20) 0 5\n")


def test_parse_rejects_singular_curves():
    with pytest.raises(SingularCurveError):
        parse_catalog("1 a 1 [0,0,0,0,0] 0 1\n")
    with pytest.raises(SingularCurveError):
        parse_catalog("1 a 1 [0,1,0,0,0] 0 1\n")


def test_parse_rejects_duplicates_with_line_number():
    text = "11 a 1 [0,-1,1,-10,-20] 0 5\n11 a 1 [0,-1,1,-10,-20] 0 5\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text)
    assert "line 2" in str(err.value)


def test_parse_rejects_bad_domains():
    for line in (
        "0 a 1 [0,-1,1,-10,-20] 0 5",
        "11 a 0 [0,-1,1,-10,-20] 0 5",
        "11 a 1 [0,-1,1,-10,-20] -1 5",
        "11 a 1 [0,-1,1,-10,-20] 0 0",
    ):
        with pytest.raises(CatalogError):
            parse_catalog(line + "\n")


LINE_11A1 = "11 a 1 [0,-1,1,-10,-20] 0 5"


@pytest.mark.parametrize("text, error, message", [
    ("11 a 1 [0,-1,1,-10,-20] 0", CatalogError,
     "line 1: expected 6 fields, got 5 ('11 a 1 [0,-1,1,-10,-20] 0')"),
    ("\n\n  11 a x [0,-1,1,-10,-20] 0 5\t", CatalogError,
     "line 3: invalid literal for int() with base 10: 'x' ('11 a x [0,-1,1,-10,-20] 0 5')"),
    ("11 a 1 [0,-1,1,-10] 0 5", CatalogError,
     "line 1: bad a-invariant list '[0,-1,1,-10]' ('11 a 1 [0,-1,1,-10] 0 5')"),
    ("0 a 1 [0,-1,1,-10,-20] 0 5", CatalogError,
     "line 1: conductor must be positive, got 0 ('0 a 1 [0,-1,1,-10,-20] 0 5')"),
    ("11 a 0 [0,-1,1,-10,-20] 0 5", CatalogError,
     "line 1: curve index must be >= 1, got 0 ('11 a 0 [0,-1,1,-10,-20] 0 5')"),
    ("11 a 1 [0,-1,1,-10,-20] 0 0", CatalogError,
     "line 1: torsion order must be >= 1, got 0 ('11 a 1 [0,-1,1,-10,-20] 0 0')"),
    ("11 a 1 [0,-1,1,-10,-20] -1 5", CatalogError,
     "line 1: rank must be >= 0, got -1 ('11 a 1 [0,-1,1,-10,-20] -1 5')"),
    (LINE_11A1 + "\n1 a 1 [0,0,0,0,0] 0 1", SingularCurveError,
     "line 2: singular curve (discriminant is zero) ('1 a 1 [0,0,0,0,0] 0 1')"),
    (LINE_11A1 + "\n\n" + LINE_11A1, CatalogError,
     f"line 3: duplicate curve 11a1 ({LINE_11A1!r})"),
], ids=["fields", "int", "ainvs", "conductor", "index", "torsion", "rank", "singular", "duplicate"])
def test_parse_errors_name_the_line_and_quote_it(text, error, message):
    with pytest.raises(CatalogError) as err:
        parse_catalog(text + "\n")
    assert type(err.value) is error
    assert str(err.value) == message


def test_load_catalog_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_bytes(b"11 a 1 [0,-1,1,-10,-20] 0 5\n\xff\n")
    with pytest.raises(LflowError, match="can't decode byte 0xff"):
        load_catalog(path)


# --------------------------------------------------------------- eligibility


def trial_division_squarefree(n):
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        else:
            d += 1
    return True


def test_is_squarefree_against_trial_division():
    for n in range(1, 60001):  # sample3's conductor range
        assert is_squarefree(n) == trial_division_squarefree(n), n


def _rec(n):
    return CurveRecord(n, "a", 1, (0, 0, 0, -1, 1), 0, 1)


def test_eligibility_rules():
    assert is_eligible(_rec(21), 3)  # 3 | 21, squarefree
    assert not is_eligible(_rec(11), 3)  # 3 does not divide 11
    assert not is_eligible(_rec(90), 3)  # 90 = 2 * 3^2 * 5 not squarefree
    assert not is_eligible(_rec(27), 3)
    assert is_eligible(_rec(11), 11)


# ------------------------------------------------------------------ sampling


def plan(size=30, seed=1, strata=0, lo=11, hi=1000):
    return SamplePlan(
        bad_prime=3,
        conductor_lo=lo,
        conductor_hi=hi,
        size=size,
        master_seed=seed,
        strata=strata,
    )


def test_select_sample_is_deterministic_and_sorted(fixture_records):
    s1 = select_sample(fixture_records, plan())
    s2 = select_sample(fixture_records, plan())
    assert [r.label for r in s1] == [r.label for r in s2]
    conductors = [r.conductor for r in s1]
    assert conductors == sorted(conductors)
    assert len(s1) == 30
    assert len({(r.conductor, r.isogeny_class) for r in s1}) == 30
    for r in s1:
        assert r.curve_index == 1
        assert is_eligible(r, 3)
        assert 11 <= r.conductor <= 1000


def test_select_sample_frozen_prefix(fixture_records):
    # protocol regression pin: seed 1 over the bundled catalog
    labels = [r.label for r in select_sample(fixture_records, plan())]
    assert labels[:6] == ["33a1", "66b1", "105a1", "138a1", "174a1", "201b1"]


def test_select_sample_seed_sensitivity(fixture_records):
    s1 = [r.label for r in select_sample(fixture_records, plan(seed=1))]
    s2 = [r.label for r in select_sample(fixture_records, plan(seed=2))]
    assert s1 != s2


def test_select_sample_one_per_stratum_when_size_matches(fixture_records):
    # the bundled catalog populates all 30 equal-width conductor bins of
    # [11, 1000], so the first sweep picks exactly one class per bin
    chosen = select_sample(fixture_records, plan(size=30, strata=30))
    width = 1000 - 11 + 1
    bins = sorted(
        min(30 - 1, (r.conductor - 11) * 30 // width) for r in chosen
    )
    assert bins == list(range(30))


def test_select_sample_exhaustive_draw(fixture_records):
    n = count_eligible_classes(fixture_records, plan(size=0))
    full = select_sample(fixture_records, plan(size=n))
    assert len(full) == n
    labels = {(r.conductor, r.isogeny_class) for r in full}
    eligible = {
        (r.conductor, r.isogeny_class)
        for r in fixture_records
        if r.curve_index == 1 and is_eligible(r, 3) and 11 <= r.conductor <= 1000
    }
    assert labels == eligible


def test_select_sample_returns_size_distinct_eligible_classes(fixture_records):
    eligible = count_eligible_classes(fixture_records, plan(size=0))
    for strata in (0, 1, 7, eligible, 3 * eligible):
        for size in range(eligible + 1):
            chosen = select_sample(fixture_records, plan(size=size, seed=size, strata=strata))
            assert len({(r.conductor, r.isogeny_class) for r in chosen}) == len(chosen) == size, (strata, size)
            assert all(r.curve_index == 1 and is_eligible(r, 3) and 11 <= r.conductor <= 1000 for r in chosen)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20000), st.integers(0, 30), st.integers(0, 2**32), st.sampled_from([400, 1000, 2000]))
def test_property_strata_beyond_the_conductor_range_give_the_same_sample(fixture_records, extra, size, seed, hi):
    # from strata = width on, every conductor is a stratum of its own, and
    # only strata that hold a class draw, so more strata change nothing.  The
    # strata stay small: a program that allocates per stratum runs in process
    # here (the CLI test takes 10^15 in a child with bounded memory)
    width = hi - 11 + 1
    want = select_sample(fixture_records, plan(size=size, seed=seed, strata=width, hi=hi))
    assert select_sample(fixture_records, plan(size=size, seed=seed, strata=width + extra, hi=hi)) == want


def per_draw_sample(records, plan):
    # the sampler as a loop that draws one class at a time, each from the
    # scalar oracle at the next counter
    by_class = {
        (r.conductor, class_code_to_int(r.isogeny_class)): r
        for r in records
        if r.curve_index == 1 and plan.conductor_lo <= r.conductor <= plan.conductor_hi and is_eligible(r, plan.bad_prime)
    }
    strata = plan.strata if plan.strata > 0 else max(1, plan.size)
    width = plan.conductor_hi - plan.conductor_lo + 1
    bins = {}
    for key in sorted(by_class):
        bins.setdefault(min(strata - 1, (key[0] - plan.conductor_lo) * strata // width), []).append(key)
    chosen = []
    counter = 0
    while len(chosen) < plan.size:
        for keys in bins.values():
            if len(chosen) >= plan.size:
                break
            if not keys:
                continue
            u = unit_uniform(plan.master_seed, counter)
            counter += 1
            chosen.append(keys.pop(int(u * len(keys))))
    return [by_class[key] for key in sorted(chosen)]


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.integers(-(2**65), 2**66),
    st.integers(0, 500),
    st.sampled_from([(11, 1000), (11, 10000), (100, 400)]),
    st.sampled_from([2, 3, 5]),
)
def test_property_select_sample_matches_per_draw_loop(fixture_records, data, seed, strata, bounds, bad_prime):
    lo, hi = bounds
    eligible = count_eligible_classes(fixture_records, SamplePlan(bad_prime, lo, hi, 0, seed))
    p = SamplePlan(bad_prime, lo, hi, data.draw(st.integers(0, eligible)), seed, strata)
    assert select_sample(fixture_records, p) == per_draw_sample(fixture_records, p)


def test_select_sample_insufficient_classes(fixture_records):
    n = count_eligible_classes(fixture_records, plan(size=0))
    with pytest.raises(SamplingError) as err:
        select_sample(fixture_records, plan(size=n + 1))
    assert str(n) in str(err.value)


def test_select_sample_size_zero(fixture_records):
    assert select_sample(fixture_records, plan(size=0)) == []


def test_select_sample_requires_index_one():
    # a class whose first listed model is index 2 cannot anchor a draw
    recs = parse_catalog("15 a 2 [1,1,1,-135,-660] 0 4\n")
    with pytest.raises(SamplingError):
        select_sample(recs, plan(size=1, lo=11, hi=20))


def test_count_eligible_classes_matches_filter(fixture_records):
    n = count_eligible_classes(fixture_records, plan(size=0))
    expected = len(
        {
            (r.conductor, r.isogeny_class)
            for r in fixture_records
            if is_eligible(r, 3) and 11 <= r.conductor <= 1000
        }
    )
    assert n == expected


# ------------------------------------------------------------ bundled catalog


def test_fixture_catalog_integrity(fixture_records):
    assert len(fixture_records) >= 150
    for r in fixture_records:
        assert discriminant(r.a_invariants) != 0
        if is_eligible(r, 3):
            assert is_squarefree(r.conductor)
            assert r.conductor % 3 == 0
    # conductor is the radical of the discriminant for the squarefree rows:
    # every prime factor of N divides disc and vice versa (semi-stable models)
    for r in fixture_records[:40]:
        if not is_squarefree(r.conductor):
            continue
        d = abs(discriminant(r.a_invariants))
        n = r.conductor
        assert d % n == 0
        # strip conductor primes from disc; nothing else may remain
        rem = d
        p = 2
        while p * p <= rem:
            if rem % p == 0:
                assert n % p == 0, (r.label, p)
                while rem % p == 0:
                    rem //= p
            else:
                p += 1
        if rem > 1:
            assert n % rem == 0, (r.label, rem)


def test_fixture_catalog_regenerates_byte_for_byte(tmp_path):
    # the generator reads isogeny classes, torsion and ranks off
    # trace_of_frobenius, so this also checks the traces behind every row
    out = tmp_path / "allcurves.txt"
    tool = os.path.join(REPO_ROOT, "tools", "build_fixture_catalog.py")
    r = subprocess.run([sys.executable, tool, str(out)], capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    with open(FIXTURE_CATALOG, "rb") as fh:
        assert out.read_bytes() == fh.read()
