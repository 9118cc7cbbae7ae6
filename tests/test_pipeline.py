"""Config layering, the coefficient cache, file formats, commands, CLI."""

import argparse
import math
import os
import resource
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dc_fields
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lflow import cli, pipeline
from lflow.dynamics import FINAL, NEVER, EscapeField, Window, escape_iterate, escape_time_field
from lflow.errors import CacheError, ConfigError, ConsistencyError, LflowError, UndefinedCorrelationError
from lflow.lseries import AnTable, build_an_table
from lflow.pipeline import (
    PRESETS,
    ObservationRow,
    RunConfig,
    build_config,
    cache_path,
    cmd_correlate,
    cmd_nonic,
    cmd_observe,
    cmd_render,
    cmd_reproduce,
    cmd_sample,
    config_summary,
    correlate_rows,
    format_report,
    get_an_table,
    get_an_tables,
    observations_to_csv,
    parse_an_table,
    parse_config_file,
    parse_manifest,
    parse_observations_csv,
    pgm_bytes,
    resolve_map_selector,
    serialize_an_table,
    worker_count,
)

from conftest import CURVE_11A1, REPO_ROOT, multiplicative_coefficients


def base_cfg(fixture_catalog_path, tmp_path, **kw):
    defaults = dict(
        catalog_path=fixture_catalog_path,
        cache_dir=str(tmp_path / "cache"),
        m=150,
        n_seeds=300,
        iterations=8,
        size=3,
        threads=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def parse_report_block(text: str) -> dict:
    """The key=value lines of a correlation report."""
    out = {}
    for ln in text.splitlines():
        if "=" in ln and " " not in ln.strip():
            key, _, value = ln.strip().partition("=")
            out[key] = value
    return out


# -------------------------------------------------------------------- config


def test_defaults_are_the_documented_protocol():
    cfg = RunConfig()
    assert cfg.bad_prime == 3
    assert (cfg.conductor_lo, cfg.conductor_hi, cfg.size) == (11, 1000, 30)
    assert cfg.m == 1000
    assert cfg.window == (-1.5, 4.5, 0.0, 12.0)
    assert (cfg.n_seeds, cfg.radius, cfg.iterations) == (25000, 100000.0, 10)
    assert (cfg.master_seed, cfg.alpha) == (1, 0.001)
    assert cfg.smoothed is False


def test_presets_cover_the_three_samples():
    assert PRESETS["sample1"] == {"conductor_lo": 11, "conductor_hi": 1000, "size": 30}
    assert PRESETS["sample2"]["conductor_hi"] == 10000
    assert PRESETS["sample2"]["size"] == 70
    assert PRESETS["sample3"]["conductor_hi"] == 60000
    assert PRESETS["sample3"]["size"] == 325


def test_config_layering(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment\nm=500\nn_seeds=700\nwindow=-1,1,0,2\n")
    cfg = build_config(
        preset="sample2",
        config_file=str(f),
        flag_overrides={"m": 200},
        environ={},
    )
    assert cfg.size == 70  # from preset
    assert cfg.n_seeds == 700  # file overrides preset/defaults
    assert cfg.m == 200  # flag beats file
    assert cfg.window == (-1.0, 1.0, 0.0, 2.0)


def test_env_fills_paths_only_when_not_set(tmp_path):
    env = {"LFLOW_CATALOG": "/from/env.txt", "LFLOW_CACHE": "/env/cache"}
    cfg = build_config(environ=env)
    assert cfg.catalog_path == "/from/env.txt"
    assert cfg.cache_dir == "/env/cache"
    cfg2 = build_config(
        flag_overrides={"catalog_path": "/flag.txt", "cache_dir": "/flag/cache"},
        environ=env,
    )
    assert cfg2.catalog_path == "/flag.txt"
    assert cfg2.cache_dir == "/flag/cache"
    f = tmp_path / "paths.cfg"
    f.write_text("catalog_path=/from/file.txt\ncache_dir=/from/file\n")
    cfg3 = build_config(config_file=str(f), environ=env)
    assert cfg3.catalog_path == "/from/file.txt"
    assert cfg3.cache_dir == "/from/file"


def test_config_file_rejects_junk(tmp_path):
    bad1 = tmp_path / "a.cfg"
    bad1.write_text("no_such_key=3\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad1))
    bad2 = tmp_path / "b.cfg"
    bad2.write_text("window=1,2,3\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad2))
    bad3 = tmp_path / "c.cfg"
    bad3.write_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad3))
    bad4 = tmp_path / "d.cfg"
    bad4.write_text("smoothed=maybe\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad4))
    for line in ("radius=abc", "window=1,2,3,x", "threads=two"):
        bad = tmp_path / "e.cfg"
        bad.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"for {line.partition('=')[0]}"):
            parse_config_file(str(bad))
    bad6 = tmp_path / "f.cfg"
    bad6.write_bytes(b"m=5\n\xff\n")
    with pytest.raises(LflowError):
        parse_config_file(str(bad6))


def test_config_validation():
    with pytest.raises(ConfigError):
        build_config(flag_overrides={"m": 0}, environ={})
    with pytest.raises(ConfigError):
        build_config(flag_overrides={"alpha": 1.5}, environ={})
    with pytest.raises(ConfigError):
        build_config(flag_overrides={"window": (1, -1, 0, 2)}, environ={})
    for window in ((-1, math.inf, 0, 1), (-math.inf, 1, 0, 1), (-1, 1, 0, math.nan),
                   (-1e308, 1e308, 0, 1), (-1, 1, -1e308, 1e308)):
        with pytest.raises(ConfigError, match="a finite width and height"):
            build_config(flag_overrides={"window": window}, environ={})
    wide = (-1e300, 1e300, 0.0, 1.0)
    assert build_config(flag_overrides={"window": wide}, environ={}).window == wide
    with pytest.raises(ConfigError):
        build_config(preset="nope", environ={})
    for radius in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="radius must be a finite positive number"):
            build_config(flag_overrides={"radius": radius}, environ={})
    with pytest.raises(ConfigError, match="threads must be >= 0"):
        build_config(flag_overrides={"threads": -3}, environ={})
    with pytest.raises(ConfigError, match="strata must be >= 0"):
        build_config(flag_overrides={"strata": -2}, environ={})
    for bad_prime in (1, 4, 9):
        with pytest.raises(ConfigError, match=f"bad_prime must be a prime >= 2, got {bad_prime}"):
            build_config(flag_overrides={"bad_prime": bad_prime}, environ={})
    assert build_config(flag_overrides={"bad_prime": 2}, environ={}).bad_prime == 2


PSI_12 = 318665857834031151167461  # the least strong pseudoprime to the twelve prime bases 2..37


def test_bad_prime_is_decided_by_miller_rabin_and_bounded(capsys):
    # strong pseudoprimes to the bases 2-7, to every base but 37, and to all
    # twelve (refused by the bound), then Carmichael numbers
    for n in (3215031751, 3825123056546413051, PSI_12, 561, 41041, 825265):
        with pytest.raises(ConfigError, match=f"bad_prime must be a prime >= 2, got {n}"):
            build_config(flag_overrides={"bad_prime": n}, environ={})
    assert cli.main(["sample", "--bad-prime", str(PSI_12)]) == 2
    assert capsys.readouterr().err == f"error: bad_prime must be a prime >= 2, got {PSI_12}\n"
    start = time.perf_counter()  # trial division takes minutes here
    assert build_config(flag_overrides={"bad_prime": 2**61 - 1}, environ={}).bad_prime == 2**61 - 1
    assert time.perf_counter() - start < 0.1


def test_bad_prime_test_agrees_with_a_sieve():
    n = 100000
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [p for p in range(n) if pipeline._is_prime(p)] == np.flatnonzero(sieve).tolist()


# One sample value per RunConfig field that has a flag: the command-line
# words and the config-file value.  Each differs from the field's default.
FLAG_SAMPLES = {
    "catalog_path": (["/x/catalog.txt"], "/x/catalog.txt"),
    "cache_dir": (["/x/cache"], "/x/cache"),
    "bad_prime": (["5"], "5"),
    "conductor_lo": (["37"], "37"),
    "conductor_hi": (["389"], "389"),
    "size": (["7"], "7"),
    "strata": (["2"], "2"),
    "m": (["150"], "150"),
    "window": (["-1", "1.5", "0", "2e1"], "-1,1.5,0,2e1"),
    "n_seeds": (["300"], "300"),
    "radius": (["1e4"], "1e4"),
    "iterations": (["8"], "8"),
    "master_seed": (["4"], "4"),
    "alpha": (["0.05"], "0.05"),
    "threads": (["3"], "3"),
    "smoothed": ([], "true"),
}


@pytest.mark.parametrize("field", dc_fields(RunConfig), ids=lambda f: f.name)
def test_flag_and_config_file_agree(field, tmp_path):
    words, file_value = FLAG_SAMPLES[field.name]
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(f"{field.name}={file_value}\n")
    parser = cli.build_parser()
    from_flag = cli._config_from(parser.parse_args(["sample", field.metadata["flag"], *words]))
    from_file = cli._config_from(parser.parse_args(["sample", "--config", str(cfg_file)]))
    assert repr(from_flag) == repr(from_file)  # repr also tells 389 from 389.0
    assert getattr(from_flag, field.name) != getattr(RunConfig(), field.name)


# --------------------------------------------------------------------- cache


def test_cache_round_trip(tmp_path):
    t = build_an_table(CURVE_11A1, 11, 40, "11a1")
    text = serialize_an_table(t)
    assert text.startswith("# label=11a1 N=11 M=40 a=0,-1,1,-10,-20\n1 1\n2 -2\n")
    assert parse_an_table(text) == t


LABELS = st.from_regex(r"[0-9]{1,6}[a-z]{1,3}[0-9]{1,2}", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(LABELS, st.integers(1, 10**9), st.lists(st.integers(-(2**70), 2**70), max_size=300))
def test_property_cache_round_trip(label, conductor, values):
    # values[n - 2] is a_n at the prime powers n; the composite a_n are
    # their products, up to about 2^280 at m = 300
    coeffs = multiplicative_coefficients(len(values) + 1, lambda q: values[q - 2])
    t = AnTable(label, conductor, len(coeffs), coeffs)
    assert parse_an_table(serialize_an_table(t)) == t


def test_cache_file_reused_without_rewrite(fixture_records, tmp_path):
    rec = next(r for r in fixture_records if r.label == "11a1")
    t1 = get_an_table(rec, 60, tmp_path)
    path = cache_path(tmp_path, "11a1", 60)
    stamp = path.stat().st_mtime_ns
    time.sleep(0.05)
    t2 = get_an_table(rec, 60, tmp_path)
    assert t1 == t2
    assert path.stat().st_mtime_ns == stamp  # parsed, not rebuilt


def test_cache_header_mismatch_rebuilds(fixture_records, tmp_path):
    rec = next(r for r in fixture_records if r.label == "11a1")
    path = cache_path(tmp_path, "11a1", 30)
    path.parent.mkdir(parents=True, exist_ok=True)
    # valid table for the wrong truncation length parked at this path
    other = build_an_table(CURVE_11A1, 11, 10, "11a1")
    path.write_text(serialize_an_table(other), encoding="ascii")
    t = get_an_table(rec, 30, tmp_path)
    assert t.m == 30
    assert parse_an_table(path.read_text(encoding="ascii")) == t


def test_cache_rebuilds_after_a_catalog_edit(fixture_catalog_path, tmp_path):
    # the 37a1 line edited to carry 37b1's model: same label, conductor and
    # M, other a_n, so only the a-invariants in the header tell them apart
    from lflow.catalog import load_catalog

    text = open(fixture_catalog_path, encoding="ascii").read()
    assert "\n37 a 1 [0,0,1,-1,0] 1 1\n" in text
    edited = tmp_path / "edited.txt"
    edited.write_text(text.replace("\n37 a 1 [0,0,1,-1,0] 1 1\n", "\n37 a 1 [0,1,1,-3,1] 1 1\n"))
    cache = tmp_path / "cache"
    old = get_an_table(next(r for r in load_catalog(fixture_catalog_path) if r.label == "37a1"), 40, cache)
    new = get_an_table(next(r for r in load_catalog(edited) if r.label == "37a1"), 40, cache)
    assert new.coefficients == build_an_table((0, 1, 1, -3, 1), 37, 40).coefficients
    assert new.coefficients != old.coefficients
    header = cache_path(cache, "37a1", 40).read_text(encoding="ascii").splitlines()[0]
    assert header == "# label=37a1 N=37 M=40 a=0,1,1,-3,1"
    # a file from before the a-invariants were in the header is rebuilt too
    path = cache_path(cache, "37a1", 40)
    path.write_text(serialize_an_table(old).replace(" a=0,0,1,-1,0\n", "\n", 1))
    assert path.read_text().startswith("# label=37a1 N=37 M=40\n1 1\n")
    rec = next(r for r in load_catalog(fixture_catalog_path) if r.label == "37a1")
    assert get_an_table(rec, 40, cache) == old
    assert path.read_text().startswith("# label=37a1 N=37 M=40 a=0,0,1,-1,0\n")


def test_cache_corrupt_body_raises(fixture_records, tmp_path):
    rec = next(r for r in fixture_records if r.label == "11a1")
    path = cache_path(tmp_path, "11a1", 20)
    path.parent.mkdir(parents=True, exist_ok=True)
    good = serialize_an_table(build_an_table(CURVE_11A1, 11, 20, "11a1"))
    path.write_text(good.replace("2 -2", "2 x"), encoding="ascii")
    with pytest.raises(CacheError):
        get_an_table(rec, 20, tmp_path)
    path.write_text("\n".join(good.splitlines()[:-3]) + "\n", encoding="ascii")
    with pytest.raises(CacheError):
        get_an_table(rec, 20, tmp_path)


def test_cache_body_that_is_not_multiplicative_raises(fixture_catalog_path, fixture_records, tmp_path):
    rec = next(r for r in fixture_records if r.label == "11a1")
    path = cache_path(tmp_path, "11a1", 12)
    path.parent.mkdir(parents=True, exist_ok=True)
    good = serialize_an_table(build_an_table(CURVE_11A1, 11, 12, "11a1"))
    assert "\n6 2\n" in good  # a_6 = a_2 a_3 = (-2)(-1)
    path.write_text(good.replace("\n6 2\n", "\n6 3\n"), encoding="ascii")
    with pytest.raises(CacheError, match=r"11a1\.M12\.an: coefficients are not multiplicative"):
        get_an_table(rec, 12, tmp_path)
    r = run_cli(["coeffs", "11a1", "--catalog", fixture_catalog_path, "--cache-dir", str(tmp_path),
                 "--coefficients", "12"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and "not multiplicative" in r.stderr
    assert "Traceback" not in r.stderr


def test_cache_coefficient_beyond_float64_exits_2(fixture_catalog_path, tmp_path, capsys):
    # a multiplicative body whose a_2 (and so a_6 and a_10) no float64 holds
    flags = ["--catalog", fixture_catalog_path, "--cache-dir", str(tmp_path), "--coefficients", "12"]
    assert cli.main(["coeffs", "11a1", *flags]) == 0
    header, *body = capsys.readouterr().out.splitlines()
    a = [0, *(int(ln.split()[1]) for ln in body)]
    a[2] = 10**400
    a[6], a[10] = a[2] * a[3], a[2] * a[5]
    path = cache_path(tmp_path, "11a1", 12)
    path.write_text("\n".join([header, *(f"{n} {a[n]}" for n in range(1, 13))]) + "\n")
    render = ["render", "11a1", "--width", "4", "--height", "3", "-o", str(tmp_path / "x.pgm")]
    for argv in (["coeffs", "11a1"], render):
        assert cli.main([*argv, *flags]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: coefficients must lie within the float64 range"), (argv, err)
    assert not (tmp_path / "x.pgm").exists()


def test_cache_undecodable_file_raises(fixture_records, tmp_path):
    rec = next(r for r in fixture_records if r.label == "11a1")
    path = cache_path(tmp_path, "11a1", 12)
    path.write_bytes(b"# label=11a1 N=11 M=12\n1 1\n\xff\n")
    with pytest.raises(CacheError, match="11a1.M12.an"):
        get_an_table(rec, 12, tmp_path)


def test_cache_concurrent_writers_of_one_table(fixture_records, tmp_path):
    # threads released together build and write the same table at once on
    # a fresh cache; every one must return it and leave one whole file
    rec = next(r for r in fixture_records if r.label == "11a1")
    expected = serialize_an_table(build_an_table(CURVE_11A1, 11, 150, "11a1")).encode("ascii")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in range(40):
            cache = tmp_path / f"cache{run}"
            start = threading.Barrier(4)

            def write(_):
                start.wait(timeout=60)
                return get_an_table(rec, 150, cache)

            with ThreadPoolExecutor(4) as pool:
                tables = list(pool.map(write, range(4)))
            assert len(set(tables)) == 1
            assert sorted(p.name for p in cache.iterdir()) == ["11a1.M150.an"]
            assert cache_path(cache, "11a1", 150).read_bytes() == expected
    finally:
        sys.setswitchinterval(interval)


def test_get_an_tables_reads_hits_and_builds_each_miss_once(fixture_records, tmp_path):
    by_label = {r.label: r for r in fixture_records}
    picked = [by_label[lb] for lb in ("37a1", "11a1", "37a1", "389a1", "11a1")]
    get_an_table(by_label["389a1"], 40, tmp_path)
    stamp = cache_path(tmp_path, "389a1", 40).stat().st_mtime_ns
    tables = get_an_tables(picked, 40, tmp_path)
    assert tables == [build_an_table(r.a_invariants, r.conductor, 40, r.label) for r in picked]
    assert tables[0] is tables[2] and tables[1] is tables[4]  # a repeated label is built once
    assert cache_path(tmp_path, "389a1", 40).stat().st_mtime_ns == stamp  # a hit is not rewritten
    assert sorted(p.name for p in tmp_path.iterdir()) == ["11a1.M40.an", "37a1.M40.an", "389a1.M40.an"]
    for table in set(tables):
        assert parse_an_table(cache_path(tmp_path, table.label, 40).read_text()) == table


def test_cache_missing_header(tmp_path):
    with pytest.raises(CacheError):
        parse_an_table("1 1\n2 -2\n")
    with pytest.raises(CacheError):
        parse_an_table("# label=x N=1 M=2\n2 -2\n1 1\n")  # out of order


# ----------------------------------------------------------------------- CSV


def test_observations_csv_round_trip():
    rows = [
        ObservationRow("11a1", 11, 0.2617803834102429, 0.033, (100, 90, 80)),
        ObservationRow("33a1", 33, -0.10391288117638146, math.inf, (100, 0, 0)),
    ]
    text = observations_to_csv(rows, iterations=2)
    lines = text.splitlines()
    assert lines[0] == "label,conductor,l1,tau,s0,s1,s2"
    assert ",inf," in lines[2]
    back = parse_observations_csv(text)
    assert back == rows  # repr round-trips every float exactly


EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.tuples(
                    LABELS,
                    st.integers(1, 10**9),
                    EXTREME_FLOATS,
                    st.one_of(EXTREME_FLOATS, st.just(math.inf)),
                    st.lists(st.integers(0, 10**6), min_size=k + 1, max_size=k + 1),
                ),
                max_size=8,
            ),
        )
    )
)
def test_property_observations_csv_round_trip(case):
    iterations, fields = case
    rows = [ObservationRow(lb, n, l1, tau, tuple(s)) for lb, n, l1, tau, s in fields]
    back = parse_observations_csv(observations_to_csv(rows, iterations))

    def key(r):  # repr keeps -0.0 apart from 0.0 and matches nan with nan
        return (r.label, r.conductor, repr(r.l1), repr(r.tau), r.survivors)

    assert [key(r) for r in back] == [key(r) for r in rows]


def test_observations_csv_rejects_malformed():
    with pytest.raises(LflowError):
        parse_observations_csv("")
    with pytest.raises(LflowError):
        parse_observations_csv("nope,conductor,l1,tau,s0,s1\n")
    with pytest.raises(LflowError):
        parse_observations_csv("label,conductor,l1,tau,s0,s1\n11a1,11,0.1\n")
    with pytest.raises(LflowError, match="bad CSV row"):
        parse_observations_csv("label,conductor,l1,tau,s0,s1\n11a1,eleven,0.1,0.2,9,8\n")
    with pytest.raises(ValueError):
        observations_to_csv([ObservationRow("x1a1", 3, 0.0, 0.0, (5, 4))], iterations=5)


# ------------------------------------------------------------------ commands


def test_cmd_sample_manifest(fixture_catalog_path, tmp_path):
    from lflow.catalog import split_label

    cfg = base_cfg(fixture_catalog_path, tmp_path, size=5)
    manifest, eligible = cmd_sample(cfg)
    labels = parse_manifest(manifest)
    assert len(labels) == 5
    assert eligible >= 100
    conductors = [split_label(lb)[0] for lb in labels]
    assert conductors == sorted(conductors)


def test_parse_manifest_validates_labels():
    assert parse_manifest("11a1\n\n389a1\n") == ["11a1", "389a1"]
    with pytest.raises(LflowError, match="bad curve label 'bogus'"):
        parse_manifest("11a1\nbogus\n")


def test_cmd_observe_orders_and_threads_agree(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path)
    manifest, _ = cmd_sample(cfg)
    labels = parse_manifest(manifest)
    outputs = []
    for threads in (1, 4, 8):
        rows = cmd_observe(labels, replace(cfg, threads=threads))
        assert [r.label for r in rows] == labels
        outputs.append(observations_to_csv(rows, cfg.iterations))
    assert outputs[0] == outputs[1] == outputs[2]


def test_cmd_observe_curve_pool_wider_than_the_cpus(fixture_catalog_path, tmp_path, monkeypatch):
    # report 8 usable CPUs, so the pool really runs 2, 3, 4, 5 and 8 workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    widths = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
    cfg = base_cfg(fixture_catalog_path, tmp_path, n_seeds=120, size=9)
    labels = parse_manifest(cmd_sample(cfg)[0])
    assert len(labels) >= 8
    outputs = []
    for threads in (1, 2, 3, 4, 5, 8):
        rows = cmd_observe(labels, replace(cfg, threads=threads))
        assert [r.label for r in rows] == labels
        outputs.append(observations_to_csv(rows, cfg.iterations))
    assert widths == [1, 2, 3, 4, 5, 8]  # one worker is a pool of one
    assert outputs[1:] == outputs[:1] * 5


def test_cmd_observe_frees_each_table_when_its_curve_is_done(fixture_catalog_path, tmp_path, monkeypatch):
    cfg = base_cfg(fixture_catalog_path, tmp_path, threads=1, n_seeds=20, iterations=2, size=5)
    labels = parse_manifest(cmd_sample(cfg)[0])
    observe_one, done = pipeline._observe_one, []

    def observe_and_check(record, table, cfg):
        assert all(ref() is None for ref in done)  # the earlier curves' tables are gone
        done.append(weakref.ref(table))
        return observe_one(record, table, cfg)

    monkeypatch.setattr(pipeline, "_observe_one", observe_and_check)
    rows = cmd_observe(labels, cfg)
    monkeypatch.undo()
    assert len(done) == len(labels) == 5
    assert rows == cmd_observe(labels, cfg)


def test_cmd_observe_raises_for_the_first_failing_record_in_manifest_order(tmp_path):
    # the 11a1 model under two wrong conductors: 55 fails at p = 5 and 22
    # at p = 2, so one pass over the primes meets 22a1 first
    catalog = tmp_path / "wrong.txt"
    catalog.write_text("".join(f"{n} a 1 [0,-1,1,-10,-20] 0 5\n" for n in (11, 22, 55)))
    cfg = base_cfg(str(catalog), tmp_path, m=12, n_seeds=20, iterations=2)
    alone = {}
    for label in ("22a1", "55a1"):
        with pytest.raises(ConsistencyError) as exc:
            cmd_observe([label], cfg)
        alone[label] = str(exc.value)
    assert alone["22a1"] != alone["55a1"]
    for manifest, first in ((["11a1", "55a1", "22a1", "55a1"], "55a1"), (["22a1", "11a1", "55a1"], "22a1")):
        with pytest.raises(ConsistencyError) as exc:
            cmd_observe(manifest, cfg)
        assert str(exc.value) == alone[first], manifest
    assert not os.path.exists(cfg.cache_dir)  # a batch that raises writes no table
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("11a1\n55a1\n22a1\n")
    r = run_cli(["observe", str(manifest), "--catalog", str(catalog), "--cache-dir", str(tmp_path / "cli"),
                 "--coefficients", "12", "--n-seeds", "20", "--iterations", "2"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr == f"error: {alone['55a1']}\n"


def test_cmd_observe_unknown_label(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path)
    with pytest.raises(LflowError):
        cmd_observe(["99999zz9"], cfg)


def test_smoothed_flag_changes_l1_column(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path)
    raw = cmd_observe(["11a1"], cfg)[0]
    smo = cmd_observe(["11a1"], replace(cfg, smoothed=True))[0]
    assert raw.l1 != smo.l1
    assert raw.tau == smo.tau  # the dynamics are untouched
    assert smo.l1 == pytest.approx(0.2538418608559107, abs=1e-4)  # M=150 tail


def test_correlate_rows_excludes_infinite_tau():
    rows = [
        ObservationRow("a1a1", 3, 0.9, 0.1, (9, 8, 7)),
        ObservationRow("b1a1", 5, 0.5, 0.3, (9, 7, 5)),
        ObservationRow("c1a1", 7, 0.1, 0.9, (9, 4, 2)),
        ObservationRow("d1a1", 11, 0.0, math.inf, (9, 0, 0)),
    ]
    report, excluded = correlate_rows(rows, alpha=0.05)
    assert excluded == 1
    assert report.n == 3
    assert report.r_s == -1.0
    with pytest.raises(UndefinedCorrelationError):
        correlate_rows(rows[:2] + rows[3:], alpha=0.05)


def test_report_block_round_trip():
    rows = [
        ObservationRow("a1a1", 3, 0.9, 0.1, (9, 8)),
        ObservationRow("b1a1", 5, 0.5, 0.3, (9, 7)),
        ObservationRow("c1a1", 7, 0.1, 0.9, (9, 4)),
        ObservationRow("d1a1", 11, 0.0, math.inf, (9, 0)),
    ]
    text = cmd_correlate(observations_to_csv(rows, 1), alpha=0.05)
    block = parse_report_block(text)
    assert block["n"] == "3"
    assert block["excluded_infinite"] == "1"
    assert block["reject"] in ("true", "false")
    assert float(block["r_s"]) == -1.0
    assert float(block["t"]) == -math.inf
    assert float(block["p_one"]) == 0.0
    assert block["alpha"] == "0.05"
    assert "negative correlation" in text


# ----------------------------------------------------------------- rendering


def test_pgm_bytes_header_and_ramp():
    values = np.array([[NEVER, 1, 5], [10, 3, NEVER]], dtype=np.int32)
    values.setflags(write=False)
    field = EscapeField(values, 10)
    data = pgm_bytes(field)
    assert data.startswith(b"P5\n3 2\n255\n")
    pix = data[len(b"P5\n3 2\n255\n") :]
    assert len(pix) == 6
    assert pix[0] == 0  # never escaped: black
    assert pix[1] == 255  # fastest escape: brightest
    assert pix[3] == 55  # k = K: dimmest nonzero
    assert pix[2] == 55 + (200 * 5) // 9
    assert pix[5] == 0


def test_pgm_single_iteration_guard():
    values = np.array([[NEVER, 1]], dtype=np.int32)
    values.setflags(write=False)
    field = EscapeField(values, 1)
    data = pgm_bytes(field)
    assert data.endswith(bytes([0, 55]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_property_pgm_matches_per_pixel_formula(k_max, width, height, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, k_max + 1, size=(height, width), dtype=np.int32)
    field = EscapeField(values, k_max)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    want = bytes(0 if v == NEVER else 55 + 200 * (k_max - v) // max(k_max - 1, 1) for v in values.flat)
    assert pgm_bytes(field) == header + want


def test_pgm_rejects_values_outside_zero_to_k():
    for bad in (-1, 11, -300, 2**31 - 1):
        values = np.array([[NEVER, 1], [bad, 10]], dtype=np.int32)
        with pytest.raises(ValueError):
            pgm_bytes(EscapeField(values, 10))


def test_render_zeta_matches_field_oracle(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path, m=80, iterations=6)
    data = cmd_render("zeta", cfg, 12, 9)
    assert data.startswith(b"P5\n12 9\n255\n")
    # spot-check two pixels against scalar iteration of the same map
    spec = resolve_map_selector("zeta", cfg)
    win = Window(*cfg.window)
    dre = (win.re_max - win.re_min) / 12
    dim = (win.im_max - win.im_min) / 9
    pix = data[len(b"P5\n12 9\n255\n") :]
    for (i, j) in ((0, 0), (7, 5)):
        z = complex(win.re_min + (i + 0.5) * dre, win.im_max - (j + 0.5) * dim)
        k = escape_iterate(spec, z, cfg.radius, cfg.iterations)
        expected = 0 if k == NEVER else 55 + (200 * (cfg.iterations - k)) // (cfg.iterations - 1)
        assert pix[j * 12 + i] == expected


def test_render_deterministic(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path, m=100, iterations=5)
    renders = [cmd_render("11a1", replace(cfg, threads=t), 16, 12) for t in (1, 2, 3, 0, 1)]
    assert renders[1:] == renders[:-1]


def test_worker_count_is_capped_at_the_usable_cpus():
    cpus = worker_count(RunConfig(threads=0))
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))
    assert worker_count(RunConfig(threads=1)) == 1
    assert worker_count(RunConfig(threads=10**6)) == cpus


def test_resolve_map_selector_forms(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path, m=50)
    from lflow.dynamics import DirichletMap, PolynomialMap, ScaledExpMap

    assert isinstance(resolve_map_selector("zeta", cfg), DirichletMap)
    assert isinstance(resolve_map_selector("exp:0.5+0.25j", cfg), ScaledExpMap)
    assert isinstance(resolve_map_selector("nonic:11a1", cfg), PolynomialMap)
    assert isinstance(resolve_map_selector("11a1", cfg), DirichletMap)
    with pytest.raises(ConfigError):
        resolve_map_selector("exp:not-a-number", cfg)
    for lam in ("nan", "inf", "-inf", "1e400", "1+nanj", "infj"):
        with pytest.raises(ConfigError, match="must be finite"):
            resolve_map_selector(f"exp:{lam}", cfg)
    assert resolve_map_selector("exp:1e300+1e300j", cfg).lam == 1e300 + 1e300j
    with pytest.raises(LflowError):
        resolve_map_selector("123456z1", cfg)


def test_cmd_nonic_known_curve(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path)
    assert cmd_nonic("11a1", cfg) == [0, 0, 0, 1, 0, -1, 1, -9, -3, 11]


# ----------------------------------------------------------------- reproduce


def test_cmd_reproduce_writes_consistent_artifacts(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path, size=4, n_seeds=250)
    out = tmp_path / "out"
    result = cmd_reproduce(cfg, str(out))
    manifest = (out / "manifest.txt").read_text()
    labels = parse_manifest(manifest)
    assert len(labels) == 4
    rows = parse_observations_csv((out / "observations.csv").read_text())
    assert [r.label for r in rows] == labels
    report_text = (out / "report.txt").read_text()
    block = parse_report_block(report_text)
    assert int(block["n"]) + int(block["excluded_infinite"]) == 4
    summary = (out / "summary.txt").read_text()
    assert f"eligible_classes={result['eligible']}" in summary
    assert "wall_seconds=" in summary
    assert "master_seed=1" in summary
    # a second run into a fresh directory yields byte-identical observations
    cmd_reproduce(cfg, str(tmp_path / "out2"))
    assert (tmp_path / "out2" / "observations.csv").read_bytes() == (
        out / "observations.csv"
    ).read_bytes()
    assert (tmp_path / "out2" / "manifest.txt").read_bytes() == (
        out / "manifest.txt"
    ).read_bytes()


def test_config_summary_lists_every_field(fixture_catalog_path, tmp_path):
    cfg = base_cfg(fixture_catalog_path, tmp_path)
    text = config_summary(cfg)
    for f in dc_fields(RunConfig):
        assert f"{f.name}=" in text


# ----------------------------------------------------------------------- CLI


def run_cli(args, cwd, env_extra=None, **kwargs):
    # The child runs in ``cwd``, where a relative PYTHONPATH such as ``src``
    # resolves to nothing; put the checkout's absolute src first so the child
    # imports the same in-tree lflow as the in-process tests.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "lflow.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
        **kwargs,
    )


def test_cli_sample_and_nonic(fixture_catalog_path, tmp_path):
    r = run_cli(
        ["sample", "--catalog", fixture_catalog_path, "--size", "2"], tmp_path
    )
    assert r.returncode == 0, r.stderr
    labels = parse_manifest(r.stdout)
    assert len(labels) == 2
    assert "eligible classes:" in r.stderr

    r2 = run_cli(["nonic", "11a1", "--catalog", fixture_catalog_path], tmp_path)
    assert r2.returncode == 0, r2.stderr
    assert [int(x) for x in r2.stdout.split()] == [0, 0, 0, 1, 0, -1, 1, -9, -3, 11]


def test_cli_sample_strata_cost_nothing_beyond_the_conductor_range(fixture_catalog_path, tmp_path):
    # 990 is the width of sample1's 11..1000: from there on every conductor is
    # a stratum of its own.  The child gets 2 GB of address space, so a
    # program that allocates per stratum fails instead of exhausting memory.
    def run(strata):
        out = tmp_path / f"strata-{strata}.txt"
        argv = ["sample", "--preset", "sample1", "--catalog", fixture_catalog_path, "--strata", str(strata),
                "-o", str(out)]
        r = run_cli(argv, tmp_path, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
        assert r.returncode == 0, r.stderr
        return out.read_bytes()

    assert run(10**15) == run(990)


def test_cli_observe_correlate_round_trip(fixture_catalog_path, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("33a1\n66b1\n105a1\n")
    csv_path = tmp_path / "obs.csv"
    common = [
        "--catalog", fixture_catalog_path,
        "--cache-dir", str(tmp_path / "cache"),
        "--coefficients", "150",
        "--n-seeds", "250",
        "--iterations", "8",
    ]
    r = run_cli(["observe", str(manifest), "-o", str(csv_path), *common], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = parse_observations_csv(csv_path.read_text())
    assert [row.label for row in rows] == ["33a1", "66b1", "105a1"]

    r2 = run_cli(["correlate", str(csv_path), "--alpha", "0.05"], tmp_path)
    assert r2.returncode == 0, r2.stderr
    assert "r_s=" in r2.stdout


def test_cli_render_exp_map(tmp_path):
    out = tmp_path / "img.pgm"
    r = run_cli(
        [
            "render", "exp:0.3",
            "-o", str(out),
            "--width", "20", "--height", "10",
            "--window", "-2", "2", "-2", "2",
            "--iterations", "6",
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    data = out.read_bytes()
    assert data.startswith(b"P5\n20 10\n255\n")
    assert len(data) == len(b"P5\n20 10\n255\n") + 200


def test_cli_render_same_bytes_for_every_thread_count(fixture_catalog_path, tmp_path):
    images = []
    for threads in ("1", "2", "1"):
        out = tmp_path / f"threads{threads}.pgm"
        r = run_cli(["render", "11a1", "-o", str(out), "--width", "24", "--height", "18",
                     "--catalog", fixture_catalog_path, "--cache-dir", str(tmp_path / "cache"),
                     "--coefficients", "150", "--threads", threads], tmp_path)
        assert r.returncode == 0, r.stderr
        images.append(out.read_bytes())
    assert images[0].startswith(b"P5\n24 18\n255\n")
    assert images[1] == images[0] == images[2]


def test_cli_errors_exit_2(fixture_catalog_path, tmp_path):
    r = run_cli(["sample", "--catalog", str(tmp_path / "missing.txt")], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:")

    r2 = run_cli(["sample"], tmp_path, env_extra={"LFLOW_CATALOG": ""})
    assert r2.returncode == 2, r2.stderr
    assert "catalog" in r2.stderr

    r3 = run_cli(
        ["render", "exp:nope", "-o", str(tmp_path / "x.pgm")], tmp_path
    )
    assert r3.returncode == 2, r3.stderr
    assert "error:" in r3.stderr

    for radius in ("nan", "inf"):
        r4 = run_cli(["render", "exp:1", "--radius", radius, "-o", str(tmp_path / "x.pgm")], tmp_path)
        assert r4.returncode == 2, r4.stderr
        assert r4.stderr.startswith("error: radius must be a finite positive number")
        assert not (tmp_path / "x.pgm").exists()

    for lam in ("nan", "inf", "1e400"):  # complex() parses these; the map would be degenerate
        r5 = run_cli(["render", f"exp:{lam}", "-o", str(tmp_path / "x.pgm")], tmp_path)
        assert r5.returncode == 2, r5.stderr
        assert r5.stderr.startswith(f"error: bad lambda in 'exp:{lam}': lambda must be finite")
        assert not (tmp_path / "x.pgm").exists()

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("label,conductor,l1,tau,s0,s1\n11a1,eleven,0.1,0.2,9,8\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"11a1\n\xff\n")
    bogus_manifest = tmp_path / "bogus.txt"
    bogus_manifest.write_text("11a1\nbogus\n")
    binary_catalog = tmp_path / "binary.txt"
    binary_catalog.write_bytes(b"\xff")
    binary_cache = tmp_path / "binary-cache"
    binary_cache.mkdir()
    (binary_cache / "11a1.M12.an").write_bytes(b"\xff")
    # the 11a1 model under a conductor it does not have: good reduction at 5
    wrong_conductor = tmp_path / "wrong-conductor.txt"
    wrong_conductor.write_text("55 a 1 [0,-1,1,-10,-20] 0 5\n")
    # the wrong conductor raises on a pool thread, between two good curves
    mixed_catalog = tmp_path / "mixed.txt"
    mixed_catalog.write_text("11 a 1 [0,-1,1,-10,-20] 0 5\n" + wrong_conductor.read_text())
    mixed_manifest = tmp_path / "mixed-manifest.txt"
    mixed_manifest.write_text("11a1\n55a1\n11a1\n")
    # a NaN tau ranks nowhere, so correlate refuses it in every row order
    nan_csvs = [tmp_path / "nan-first.csv", tmp_path / "nan-third.csv"]
    good_rows = ["11a1,11,0.1,0.2,9,8", "14a1,14,0.3,0.1,9,8", "15a1,15,0.2,0.4,9,8"]
    for path, at in zip(nan_csvs, (0, 2)):
        body = good_rows[:at] + ["17a1,17,0.4,nan,9,8"] + good_rows[at:]
        path.write_text("label,conductor,l1,tau,s0,s1\n" + "\n".join(body) + "\n")
    bad_cfgs = [tmp_path / "radius.cfg", tmp_path / "window.cfg"]
    bad_cfgs[0].write_text("radius=abc\n")
    bad_cfgs[1].write_text("window=1,2,3,x\n")
    cases = [
        ["render", "exp:1", "--width", "0", "-o", str(tmp_path / "x.pgm")],
        ["correlate", str(bad_csv)],
        ["observe", str(manifest), "--catalog", fixture_catalog_path],
        ["observe", str(bogus_manifest), "--catalog", fixture_catalog_path],
        ["sample", "--catalog", str(binary_catalog)],
        ["coeffs", "11a1", "--catalog", fixture_catalog_path, "--cache-dir", str(binary_cache),
         "--coefficients", "12"],
        ["coeffs", "55a1", "--catalog", str(wrong_conductor), "--cache-dir", str(tmp_path / "cache55"),
         "--coefficients", "6"],
        ["sample", "--catalog", fixture_catalog_path, "--bad-prime", "4"],
    ] + [["correlate", str(path)] for path in nan_csvs] + [
        ["sample", "--catalog", fixture_catalog_path, "--threads", "-3"],
        ["sample", "--catalog", fixture_catalog_path, "--strata", "-2"],
    ] + [["sample", "--catalog", fixture_catalog_path, "--config", str(f)] for f in bad_cfgs]
    for argv in cases:
        r5 = run_cli(argv, tmp_path)
        assert r5.returncode == 2, (argv, r5.stderr)
        assert r5.stderr.startswith("error:"), (argv, r5.stderr)
        assert "Traceback" not in r5.stderr
    assert not (tmp_path / "x.pgm").exists()

    for threads in ("1", "2"):
        r8 = run_cli(["observe", str(mixed_manifest), "--catalog", str(mixed_catalog),
                      "--cache-dir", str(tmp_path / f"cache-mixed{threads}"),
                      "--coefficients", "6", "--n-seeds", "50", "--iterations", "3",
                      "--threads", threads], tmp_path)
        assert r8.returncode == 2, (threads, r8.stderr)
        assert r8.stderr.startswith(
            "error: p=5 divides the conductor but the reduction is smooth"), (threads, r8.stderr)
        assert "Traceback" not in r8.stderr

    # no flag abbreviations: --m must not stand in for --master-seed
    r7 = run_cli(["coeffs", "11a1", "--catalog", fixture_catalog_path, "--m", "5"], tmp_path)
    assert r7.returncode == 2, r7.stderr
    assert "unrecognized arguments: --m 5" in r7.stderr


def test_every_command_offers_the_same_config_flags():
    names = {f.name for f in dc_fields(RunConfig)}
    want = sorted(f.metadata["flag"] for f in dc_fields(RunConfig))
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(cli.COMMANDS) and len(sub.choices) == 7
    shared = None  # declared once: every command holds the same action objects
    for command, parser in sub.choices.items():
        offered = sorted(flag for a in parser._actions if a.dest in names for flag in a.option_strings)
        assert offered == want, command
        config = [a for a in parser._actions if a.dest in names | {"config", "preset"}]
        shared = shared or config
        assert len(config) == len(names) + 2 and all(a is b for a, b in zip(config, shared)), command


@pytest.mark.parametrize("argv", [["sample"], ["coeffs", "11a1"], ["observe", "manifest.txt"],
                                  ["correlate", "obs.csv"], ["nonic", "11a1"], ["reproduce"]],
                         ids=lambda argv: argv[0])
def test_escape_mode_is_a_render_argument(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--escape-mode", "final"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --escape-mode final" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_render_escape_modes(fixture_catalog_path, tmp_path):
    flags = ["--catalog", fixture_catalog_path, "--cache-dir", str(tmp_path / "cache"),
             "--coefficients", "150", "--iterations", "6", "--width", "24", "--height", "18"]
    images = {}
    for mode in ("default", "cumulative", "final"):
        out = tmp_path / f"{mode}.pgm"
        chosen = [] if mode == "default" else ["--escape-mode", mode]
        assert cli.main(["render", "11a1", "-o", str(out), *chosen, *flags]) == 0
        images[mode] = out.read_bytes()
    cfg = build_config(flag_overrides={"catalog_path": fixture_catalog_path, "m": 150, "iterations": 6,
                                       "cache_dir": str(tmp_path / "cache")}, environ={})
    spec = resolve_map_selector("11a1", cfg)
    for mode in ("cumulative", "final"):
        field = escape_time_field(spec, cfg.window, 24, 18, cfg.radius, cfg.iterations, mode=mode)
        assert images[mode] == pgm_bytes(field) == cmd_render("11a1", cfg, 24, 18, mode), mode
    assert images["default"] == images["cumulative"] != images["final"]
    # in final mode a pixel escapes at K or never
    assert set(images["final"][len(b"P5\n24 18\n255\n"):]) <= {0, 55}


def test_cli_reproduce_writes_to_lflow_out_by_default(fixture_catalog_path, tmp_path):
    r = run_cli(["reproduce", "--preset", "smoke", "--catalog", fixture_catalog_path], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "artifacts written to lflow-out" in r.stderr
    out = tmp_path / "lflow-out"
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.txt", "observations.csv", "report.txt", "summary.txt"]
    assert r.stdout == (out / "report.txt").read_text()
    summary = (out / "summary.txt").read_text()
    assert "output_dir=" not in summary and "escape_mode=" not in summary


@pytest.mark.parametrize("line", ["escape_mode=final", "output_dir=elsewhere"])
def test_command_arguments_are_not_config_keys(line, fixture_catalog_path, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    flags = ["--catalog", fixture_catalog_path, "--config", str(cfg_file)]
    for argv in (["render", "exp:1", "-o", str(tmp_path / "x.pgm")], ["reproduce", "-o", str(tmp_path / "out")]):
        assert cli.main([*argv, *flags]) == 2
        key = line.partition("=")[0]
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cli_rejects_unbounded_windows(fixture_catalog_path, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("11a1\n")
    flag_windows = [["-1", "inf", "0", "1"], ["-1", "1", "0", "nan"], ["-1" + "0" * 308, "1e308", "0", "1"],
                    ["-inf", "1", "0", "1"], ["-1e308", "1e308", "0", "1"]]
    runs = [["--window", *w] for w in flag_windows]
    for i, window in enumerate(["-1,inf,0,1", "-inf,1,0,1", "-1e308,1e308,0,1"]):
        cfg_file = tmp_path / f"window{i}.cfg"
        cfg_file.write_text(f"window={window}\n")
        runs.append(["--config", str(cfg_file)])
    for run in runs:
        common = ["--catalog", fixture_catalog_path, "--cache-dir", str(tmp_path / "cache"),
                  "--coefficients", "50", "--n-seeds", "50", *run]
        for argv in (["observe", str(manifest), "-o", str(tmp_path / "obs.csv")],
                     ["render", "11a1", "-o", str(tmp_path / "x.pgm")]):
            assert cli.main([*argv, *common]) == 2, (argv, run)
            err = capsys.readouterr().err
            assert err.startswith("error: window must have RE_MIN < RE_MAX and IM_MIN < IM_MAX "
                                  "and a finite width and height"), (argv, run, err)
    assert not (tmp_path / "obs.csv").exists() and not (tmp_path / "x.pgm").exists()


def test_cli_reads_negative_numbers_in_any_float_form(tmp_path):
    images = []
    for low in ("-2", "-2e0", "-2E+0", "-.2e1", "-2_0e-1"):
        out = tmp_path / "exp.pgm"
        argv = ["render", "exp:1", "--window", low, "2", "-2", "2", "--width", "12", "--height", "9"]
        assert cli.main([*argv, "--iterations", "4", "-o", str(out)]) == 0, low
        images.append(out.read_bytes())
    assert images == images[:1] * 5
    parser = cli.build_parser()
    protocol = parser.parse_args(["observe", "m.txt", "--window", "-1.5e0", "4.5", "0", "12"])
    assert cli._config_from(protocol).window == RunConfig().window
    assert parser.parse_args(["observe", "m.txt", "--radius", "-inf"]).radius == -math.inf
    with pytest.raises(SystemExit):  # a word float() does not read is still an option
        parser.parse_args(["observe", "m.txt", "--window", "-x", "4.5", "0", "12"])


def test_cli_coeffs_prints_cache_format(fixture_catalog_path, tmp_path):
    r = run_cli(
        [
            "coeffs", "11a1",
            "--catalog", fixture_catalog_path,
            "--cache-dir", str(tmp_path / "cache"),
            "--coefficients", "12",
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("# label=11a1 N=11 M=12 a=0,-1,1,-10,-20\n1 1\n2 -2\n3 -1\n")
    table = parse_an_table(r.stdout)
    assert table.coefficients[:10] == (1, -2, -1, 2, 1, 2, -2, 0, -2, -2)
