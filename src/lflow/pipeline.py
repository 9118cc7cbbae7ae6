"""End-to-end experiment pipeline and its file formats.

Everything a command writes (manifest, coefficient cache, observations
CSV, PGM renders, correlation report) is a pure function of the run
configuration plus the catalog bytes; reruns and different thread
counts produce byte-identical artifacts.  Only the run summary records
wall time.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import catalog as cat
from .dynamics import (
    CUMULATIVE,
    NEVER,
    DirichletMap,
    EscapeField,
    PolynomialMap,
    ScaledExpMap,
    escape_time_field,
    estimate_escape_rate,
)
from .errors import CacheError, ConfigError, LflowError, UndefinedCorrelationError, read_text
from .formal_group import nonic_integer_coefficients, nonic_polynomial
from .lseries import AnTable, build_an_table, build_an_tables, l_at_one, smoothed_l_at_one
from .stats import CorrelationReport, correlation_report

CATALOG_ENV = "LFLOW_CATALOG"
CACHE_ENV = "LFLOW_CACHE"


def _parse_window(raw: str) -> tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValueError("window needs 4 comma-separated numbers")
    return tuple(float(p) for p in parts)


def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected true or false")
    return word in ("1", "true", "yes", "on")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461  # the least strong pseudoprime to all of _MR_BASES


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test over _MR_BASES (Miller 1976, Rabin
    1980), exact below _PSI_12 (Jaeschke 1993; Sorenson and Webster 2015).
    Values from _PSI_12 up are refused: no catalog conductor comes near."""
    if not 2 <= p < _PSI_12:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):  # a^d, a^2d, ..., a^(2^(s-1) d): one of them must be -1
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _at_least(n: int):
    return lambda v: v >= n, f"be >= {n}"


def _setting(default, parse, flag, metavar=None, help=None, must=None, **cli):
    """A RunConfig field, for a setting that several commands read (one
    that a single command reads is its own argument).  `parse` reads its
    config-file value, and `must` is a (test, rule) pair that its value has
    to pass.  `flag`, offered by every command, is read by argparse with
    `type=parse` unless `cli` gives other add_argument keywords."""
    meta = dict(parse=parse, flag=flag, metavar=metavar, help=help, must=must)
    return field(default=default, metadata={**meta, "cli": cli or {"type": parse}})


@dataclass
class RunConfig:
    catalog_path: str = _setting("", str, "--catalog", metavar="PATH",
                                 help="allcurves-style catalog (or $LFLOW_CATALOG)")
    cache_dir: str = _setting("an-cache", str, "--cache-dir", metavar="DIR",
                              help="coefficient cache directory (or $LFLOW_CACHE)")
    bad_prime: int = _setting(3, int, "--bad-prime", metavar="P",
                              must=(_is_prime, "be a prime >= 2"))
    conductor_lo: int = _setting(11, int, "--conductor-min", metavar="N")
    conductor_hi: int = _setting(1000, int, "--conductor-max", metavar="N")
    size: int = _setting(30, int, "--size", metavar="COUNT", help="sample size")
    strata: int = _setting(0, int, "--strata", metavar="COUNT", must=_at_least(0),
                           help="conductor strata (default: sample size)")
    m: int = _setting(1000, int, "--coefficients", metavar="M", must=_at_least(1),
                      help="series truncation length")
    window: tuple[float, float, float, float] = _setting(
        (-1.5, 4.5, 0.0, 12.0), _parse_window, "--window", type=float, nargs=4,
        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
        must=(lambda w: 0 < w[1] - w[0] < math.inf and 0 < w[3] - w[2] < math.inf,
              "have RE_MIN < RE_MAX and IM_MIN < IM_MAX and a finite width and height"))
    n_seeds: int = _setting(25000, int, "--n-seeds", metavar="COUNT", must=_at_least(1))
    radius: float = _setting(
        100000.0, float, "--radius", metavar="R", help="escape radius",
        must=(lambda r: math.isfinite(r) and r > 0, "be a finite positive number"))
    iterations: int = _setting(10, int, "--iterations", metavar="K", must=_at_least(1))
    master_seed: int = _setting(1, int, "--master-seed", metavar="SEED")
    alpha: float = _setting(0.001, float, "--alpha", metavar="LEVEL",
                            must=(lambda a: 0 < a < 1, "lie strictly between 0 and 1"))
    threads: int = _setting(
        0, int, "--threads", metavar="COUNT", must=_at_least(0),
        help="worker threads, at most the usable CPUs (0 = all of them): "
             "observe and reproduce share out curves, render pixel orbits")
    smoothed: bool = _setting(
        False, _parse_bool, "--smoothed", action="store_const", const=True,
        help="report the exponentially smoothed L(1) instead of the raw truncation")


PRESETS: dict[str, dict] = {
    "sample1": {"conductor_lo": 11, "conductor_hi": 1000, "size": 30},
    "sample2": {"conductor_lo": 11, "conductor_hi": 10000, "size": 70},
    "sample3": {"conductor_lo": 11, "conductor_hi": 60000, "size": 325},
    "smoke": {"size": 3, "n_seeds": 100, "m": 200},
}

_FIELDS = {f.name: f for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Plain key=value lines; blank lines and #-comments are skipped."""
    overrides = {}
    for lineno, raw in enumerate(read_text(path, "utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            overrides[key] = _FIELDS[key].metadata["parse"](value)
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r} for {key}: {exc}") from None
    return overrides


def build_config(
    preset: str | None = None,
    config_file: str | None = None,
    flag_overrides: dict | None = None,
    environ=None,
) -> RunConfig:
    """Layering: defaults, then preset, then config file, then flags.  A
    path that no layer sets comes from LFLOW_CATALOG / LFLOW_CACHE when
    that variable is non-empty."""
    environ = os.environ if environ is None else environ
    settings = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        settings.update(PRESETS[preset])
    if config_file:
        settings.update(parse_config_file(config_file))
    flag_overrides = flag_overrides or {}
    unknown = set(flag_overrides) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    settings.update((k, v) for k, v in flag_overrides.items() if v is not None)
    for name, var in (("catalog_path", CATALOG_ENV), ("cache_dir", CACHE_ENV)):
        if name not in settings and environ.get(var):
            settings[name] = environ[var]
    cfg = RunConfig(**settings)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for f in fields(cfg):
        value, must = getattr(cfg, f.name), f.metadata["must"]
        if must and not must[0](value):
            raise ConfigError(f"{f.name} must {must[1]}, got {value!r}")


def load_catalog_for(cfg: RunConfig) -> list[cat.CurveRecord]:
    if not cfg.catalog_path:
        raise ConfigError(f"no catalog given (flag --catalog or ${CATALOG_ENV})")
    return cat.load_catalog(cfg.catalog_path)


def _record_by_label(records, label: str) -> cat.CurveRecord:
    for r in records:
        if r.label == label:
            return r
    raise LflowError(f"label {label!r} not found in catalog")


# --- coefficient cache ---------------------------------------------------


def cache_path(cache_dir, label: str, m: int) -> Path:
    return Path(cache_dir) / f"{label}.M{m}.an"


def serialize_an_table(table: AnTable) -> str:
    model = ",".join(map(str, table.a_invariants))
    lines = [f"# label={table.label} N={table.conductor} M={table.m} a={model}"]
    lines.extend(f"{n} {a}" for n, a in enumerate(table.coefficients, start=1))
    return "\n".join(lines) + "\n"


def parse_an_table(text: str, path="<cache>") -> AnTable:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise CacheError(f"{path}: missing header line")
    header = lines[0][2:].split()
    try:
        meta = dict(part.split("=", 1) for part in header)
        label = meta["label"]
        conductor = int(meta["N"])
        m = int(meta["M"])
        model = meta.get("a", "")  # absent in older files, which then do not match
        a_invariants = tuple(int(ai) for ai in model.split(",")) if model else ()
    except (ValueError, KeyError) as exc:
        raise CacheError(f"{path}: bad header {lines[0]!r}: {exc}") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise CacheError(f"{path}: expected {m} coefficient lines, found {len(body)}")
    coeffs = []
    for i, ln in enumerate(body, start=1):
        parts = ln.split()
        if len(parts) != 2:
            raise CacheError(f"{path}: bad coefficient line {ln!r}")
        try:
            n, a_n = int(parts[0]), int(parts[1])
        except ValueError:
            raise CacheError(f"{path}: non-integer coefficient line {ln!r}") from None
        if n != i:
            raise CacheError(f"{path}: coefficient index {n} out of order (expected {i})")
        coeffs.append(a_n)
    try:
        return AnTable(label, conductor, m, tuple(coeffs), a_invariants)
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from None


def _cached_table(record: cat.CurveRecord, m: int, cache_dir) -> AnTable | None:
    """The record's cached table, or None when there is no file or its header
    does not match (label, conductor, m, a-invariants); a corrupt body raises."""
    path = cache_path(cache_dir, record.label, m)
    table = parse_an_table(read_text(path, error=CacheError), path) if path.exists() else None
    key = (record.label, record.conductor, m, record.a_invariants)
    return table if table and (table.label, table.conductor, table.m, table.a_invariants) == key else None


def _store(table: AnTable, cache_dir) -> AnTable:
    path = cache_path(cache_dir, table.label, table.m)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp file of its own per writer, so concurrent builders of one
    # table never rename each other's file away
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(serialize_an_table(table))
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)
        raise
    return table


def get_an_table(record: cat.CurveRecord, m: int, cache_dir) -> AnTable:
    """One record's table through the cache, as in get_an_tables, but a miss
    is built by build_an_table: the per-table build that perfbench traces."""
    table = _cached_table(record, m, cache_dir)
    return table or _store(build_an_table(record.a_invariants, record.conductor, m, record.label), cache_dir)


def get_an_tables(records: list[cat.CurveRecord], m: int, cache_dir) -> list[AnTable]:
    """The records' tables, in order: each record's cache file is read once
    (see _cached_table), then all misses are built by one build_an_tables,
    which raises for the first inconsistent record, and written."""
    found = {record: _cached_table(record, m, cache_dir) for record in dict.fromkeys(records)}
    misses = [r for r, table in found.items() if table is None]
    built = build_an_tables([(r.a_invariants, r.conductor, r.label) for r in misses], m)
    found.update((r, _store(table, cache_dir)) for r, table in zip(misses, built))
    return [found[r] for r in records]


# --- observations CSV ----------------------------------------------------


@dataclass(frozen=True)
class ObservationRow:
    label: str
    conductor: int
    l1: float
    tau: float
    survivors: tuple[int, ...]


def _fmt(x: float) -> str:
    return repr(float(x))


def observations_to_csv(rows: list[ObservationRow], iterations: int) -> str:
    header = "label,conductor,l1,tau," + ",".join(f"s{k}" for k in range(iterations + 1))
    out = [header]
    for r in rows:
        if len(r.survivors) != iterations + 1:
            raise ValueError(f"row {r.label} has {len(r.survivors)} survivor counts, expected {iterations + 1}")
        out.append(
            f"{r.label},{r.conductor},{_fmt(r.l1)},{_fmt(r.tau)},"
            + ",".join(str(s) for s in r.survivors)
        )
    return "\n".join(out) + "\n"


def parse_observations_csv(text: str) -> list[ObservationRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise LflowError("empty observations CSV")
    header = lines[0].split(",")
    if header[:4] != ["label", "conductor", "l1", "tau"] or len(header) < 6:
        raise LflowError(f"unexpected CSV header {lines[0]!r}")
    n_surv = len(header) - 4
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise LflowError(f"CSV row has {len(parts)} fields, expected {len(header)}: {ln!r}")
        try:
            rows.append(
                ObservationRow(
                    label=parts[0],
                    conductor=int(parts[1]),
                    l1=float(parts[2]),
                    tau=float(parts[3]),
                    survivors=tuple(int(s) for s in parts[4 : 4 + n_surv]),
                )
            )
        except ValueError as exc:
            raise LflowError(f"bad CSV row {ln!r}: {exc}") from None
    return rows


# --- commands ------------------------------------------------------------


def cmd_sample(cfg: RunConfig) -> tuple[str, int]:
    """Returns (manifest text, eligible class count)."""
    records = load_catalog_for(cfg)
    plan = cat.SamplePlan(
        bad_prime=cfg.bad_prime,
        conductor_lo=cfg.conductor_lo,
        conductor_hi=cfg.conductor_hi,
        size=cfg.size,
        master_seed=cfg.master_seed,
        strata=cfg.strata,
    )
    sample = cat.select_sample(records, plan)
    eligible = cat.count_eligible_classes(records, plan)
    manifest = "".join(r.label + "\n" for r in sample)
    return manifest, eligible


def cmd_coeffs(label: str, cfg: RunConfig) -> str:
    """The curve's a_n table, built or read from the cache, in cache format."""
    record = _record_by_label(load_catalog_for(cfg), label)
    return serialize_an_table(get_an_table(record, cfg.m, cfg.cache_dir))


def parse_manifest(text: str) -> list[str]:
    labels = [ln.strip() for ln in text.splitlines() if ln.strip()]
    for lb in labels:
        try:
            cat.split_label(lb)
        except ValueError as exc:
            raise LflowError(f"manifest: {exc}") from None
    return labels


def _observe_one(record: cat.CurveRecord, table: AnTable, cfg: RunConfig) -> ObservationRow:
    l1 = smoothed_l_at_one(table) if cfg.smoothed else l_at_one(table)
    est = estimate_escape_rate(
        DirichletMap(table),
        cfg.window,
        n_seeds=cfg.n_seeds,
        radius=cfg.radius,
        iterations=cfg.iterations,
        master_seed=cfg.master_seed,
    )
    return ObservationRow(record.label, record.conductor, l1, est.tau, est.survivors)


def worker_count(cfg: RunConfig) -> int:
    """cfg.threads, or every usable CPU for 0, capped at the usable CPUs:
    more threads than CPUs only hand the interpreter lock around."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cfg.threads or cpus, cpus)


def cmd_observe(manifest_labels: list[str], cfg: RunConfig) -> list[ObservationRow]:
    """One observation row per manifest label, in manifest order.  The
    tables come first, from one get_an_tables on this thread; the pool
    then runs each curve's L(1) and escape iteration, and each table (with
    its Taylor cells) goes once its curve is done."""
    records = load_catalog_for(cfg)
    picked = [_record_by_label(records, lb) for lb in manifest_labels]
    tables = get_an_tables(picked, cfg.m, cfg.cache_dir)
    with ThreadPoolExecutor(worker_count(cfg)) as pool:
        rows = pool.map(_observe_one, picked, tables, [cfg] * len(picked))
        del tables
        return list(rows)


def correlate_rows(rows: list[ObservationRow], alpha: float) -> tuple[CorrelationReport, int]:
    """Correlation of l1 against tau; rows with infinite tau are excluded."""
    finite = [r for r in rows if not math.isinf(r.tau)]
    excluded = len(rows) - len(finite)
    if len(finite) < 3:
        raise UndefinedCorrelationError(
            f"only {len(finite)} rows with finite escape rate ({excluded} excluded)"
        )
    report = correlation_report([r.l1 for r in finite], [r.tau for r in finite], alpha)
    return report, excluded


def format_report(report: CorrelationReport, excluded: int) -> str:
    """Human-readable summary followed by a machine-readable key=value block."""
    direction = "negative" if report.r_s < 0 else "positive" if report.r_s > 0 else "zero"
    verdict = "rejected" if report.reject else "not rejected"
    text = [
        "Spearman rank correlation of truncated L(1) against escape rate",
        f"  {report.n} rows used, {excluded} excluded for infinite escape rate;",
        f"  {direction} correlation, independence {verdict} at level {_fmt(report.alpha)}.",
        "",
        f"n={report.n}",
        f"r_s={_fmt(report.r_s)}",
        f"t={_fmt(report.t_stat)}",
        f"df={report.df}",
        f"p_one={_fmt(report.p_one_sided)}",
        f"p_two={_fmt(report.p_two_sided)}",
        f"alpha={_fmt(report.alpha)}",
        f"excluded_infinite={excluded}",
        f"reject={'true' if report.reject else 'false'}",
    ]
    return "\n".join(text) + "\n"


def cmd_correlate(csv_text: str, alpha: float) -> str:
    rows = parse_observations_csv(csv_text)
    report, excluded = correlate_rows(rows, alpha)
    return format_report(report, excluded)


# --- rendering -----------------------------------------------------------


def pgm_bytes(field: EscapeField) -> bytes:
    """Binary PGM (P5, maxval 255): never-escaping pixels are black, an
    escape at iterate k gets gray 55 + floor(200 * (K - k) / (K - 1))."""
    values = field.values
    k_max = field.iterations
    if values.size and not (values.min() >= 0 and values.max() <= k_max):
        raise ValueError(f"escape iterates must lie in 0..{k_max}")
    gray = 55 + (200 * (k_max - np.arange(k_max + 1))) // max(k_max - 1, 1)
    gray[NEVER] = 0
    header = f"P5\n{field.width} {field.height}\n255\n".encode("ascii")
    return header + gray.astype(np.uint8)[values].tobytes()


def resolve_map_selector(selector: str, cfg: RunConfig):
    """label | nonic:<label> | exp:<lambda> | zeta."""
    if selector == "zeta":
        return DirichletMap(AnTable("zeta", 1, cfg.m, (1,) * cfg.m))
    if selector.startswith("exp:"):
        try:
            return ScaledExpMap(complex(selector[4:]))
        except ValueError as exc:
            raise ConfigError(f"bad lambda in {selector!r}: {exc}") from None
    if selector.startswith("nonic:"):
        record = _record_by_label(load_catalog_for(cfg), selector[6:])
        return PolynomialMap(nonic_polynomial(record.a_invariants))
    record = _record_by_label(load_catalog_for(cfg), selector)
    return DirichletMap(get_an_table(record, cfg.m, cfg.cache_dir))


def cmd_render(selector: str, cfg: RunConfig, width: int, height: int, mode: str = CUMULATIVE) -> bytes:
    """The escape-time PGM of a map; mode FINAL tests only the last iterate."""
    if width < 1 or height < 1:
        raise ConfigError(f"render size {width}x{height} must be positive")
    spec = resolve_map_selector(selector, cfg)
    field = escape_time_field(
        spec, cfg.window, width, height, cfg.radius, cfg.iterations, mode=mode, workers=worker_count(cfg)
    )
    return pgm_bytes(field)


def cmd_nonic(label: str, cfg: RunConfig) -> list[int]:
    records = load_catalog_for(cfg)
    return nonic_integer_coefficients(_record_by_label(records, label).a_invariants)


# --- reproduce -----------------------------------------------------------


def config_summary(cfg: RunConfig) -> str:
    parts = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, (tuple, list)):
            v = ",".join(_fmt(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = _fmt(v)
        parts.append(f"{f.name}={v}")
    return "\n".join(parts) + "\n"


def cmd_reproduce(cfg: RunConfig, output_dir) -> dict:
    """Full pipeline: sample, observe, correlate.  Writes manifest.txt,
    observations.csv, report.txt and summary.txt into output_dir."""
    t0 = time.monotonic()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest, eligible = cmd_sample(cfg)
    (out / "manifest.txt").write_text(manifest, encoding="ascii")
    rows = cmd_observe(parse_manifest(manifest), cfg)
    csv_text = observations_to_csv(rows, cfg.iterations)
    (out / "observations.csv").write_text(csv_text, encoding="ascii")
    report, excluded = correlate_rows(rows, cfg.alpha)
    report_text = format_report(report, excluded)
    (out / "report.txt").write_text(report_text, encoding="ascii")
    wall = time.monotonic() - t0
    summary = (
        config_summary(cfg)
        + f"eligible_classes={eligible}\n"
        + f"wall_seconds={wall:.3f}\n"
    )
    (out / "summary.txt").write_text(summary, encoding="ascii")
    return {"report": report, "excluded": excluded, "eligible": eligible}
