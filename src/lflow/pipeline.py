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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import catalog as cat
from .dynamics import (
    CUMULATIVE,
    FINAL,
    NEVER,
    DirichletMap,
    EscapeField,
    PolynomialMap,
    ScaledExpMap,
    Window,
    escape_time_field,
    estimate_escape_rate,
)
from .errors import CacheError, ConfigError, LflowError, UndefinedCorrelationError
from .formal_group import nonic_integer_coefficients, nonic_polynomial
from .lseries import AnTable, build_an_table, l_at_one, smoothed_l_at_one
from .stats import CorrelationReport, correlation_report

CATALOG_ENV = "LFLOW_CATALOG"
CACHE_ENV = "LFLOW_CACHE"


@dataclass
class RunConfig:
    catalog_path: str = ""
    cache_dir: str = "an-cache"
    output_dir: str = "lflow-out"
    bad_prime: int = 3
    conductor_lo: int = 11
    conductor_hi: int = 1000
    size: int = 30
    strata: int = 0  # 0: one stratum per sampled curve
    m: int = 1000
    window: tuple[float, float, float, float] = (-1.5, 4.5, 0.0, 12.0)
    n_seeds: int = 25000
    radius: float = 100000.0
    iterations: int = 10
    master_seed: int = 1
    alpha: float = 0.001
    threads: int = 0  # 0: auto
    smoothed: bool = False
    escape_mode: str = CUMULATIVE


PRESETS: dict[str, dict] = {
    "sample1": {"conductor_lo": 11, "conductor_hi": 1000, "size": 30},
    "sample2": {"conductor_lo": 11, "conductor_hi": 10000, "size": 70},
    "sample3": {"conductor_lo": 11, "conductor_hi": 60000, "size": 325},
    "smoke": {"size": 3, "n_seeds": 100, "m": 200},
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    if name == "window":
        parts = raw.split(",")
        if len(parts) != 4:
            raise ConfigError(f"window needs 4 comma-separated numbers, got {raw!r}")
        return tuple(float(p) for p in parts)
    if name == "smoothed":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for smoothed")
    if name in ("catalog_path", "cache_dir", "output_dir", "escape_mode"):
        return raw
    if name in ("radius", "alpha"):
        return float(raw)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for {name}: {exc}") from None


def parse_config_file(path) -> dict:
    """Plain key=value lines; blank lines and #-comments are skipped."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            overrides[key.strip()] = _coerce(key.strip(), value.strip())
    return overrides


def build_config(
    preset: str | None = None,
    config_file: str | None = None,
    flag_overrides: dict | None = None,
    environ=None,
) -> RunConfig:
    """Layering: defaults, then preset, then config file, then flags.
    LFLOW_CATALOG / LFLOW_CACHE fill paths not set by any layer."""
    environ = os.environ if environ is None else environ
    cfg = RunConfig()
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        cfg = replace(cfg, **PRESETS[preset])
    if config_file:
        cfg = replace(cfg, **parse_config_file(config_file))
    if flag_overrides:
        unknown = set(flag_overrides) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **{k: v for k, v in flag_overrides.items() if v is not None})
    if not cfg.catalog_path and environ.get(CATALOG_ENV):
        cfg.catalog_path = environ[CATALOG_ENV]
    if environ.get(CACHE_ENV) and "cache_dir" not in (flag_overrides or {}):
        cfg.cache_dir = environ[CACHE_ENV]
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.m < 1:
        raise ConfigError("m must be >= 1")
    if cfg.n_seeds < 1:
        raise ConfigError("n_seeds must be >= 1")
    if cfg.iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if not (math.isfinite(cfg.radius) and cfg.radius > 0):
        raise ConfigError("radius must be a finite positive number")
    if not 0 < cfg.alpha < 1:
        raise ConfigError("alpha must lie strictly between 0 and 1")
    if cfg.bad_prime < 2:
        raise ConfigError("bad_prime must be a prime >= 2")
    if cfg.escape_mode not in (CUMULATIVE, FINAL):
        raise ConfigError(f"escape_mode must be {CUMULATIVE!r} or {FINAL!r}")
    re_min, re_max, im_min, im_max = cfg.window
    if not (re_min < re_max and im_min < im_max):
        raise ConfigError(f"degenerate window {cfg.window}")


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
    lines = [f"# label={table.label} N={table.conductor} M={table.m}"]
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
        return AnTable(label, conductor, m, tuple(coeffs))
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from None


def get_an_table(record: cat.CurveRecord, m: int, cache_dir) -> AnTable:
    """Cache lookup keyed by (label, conductor, m); a header that does not
    match the request is silently rebuilt, a corrupt body raises."""
    path = cache_path(cache_dir, record.label, m)
    if path.exists():
        table = parse_an_table(path.read_text(encoding="ascii"), path)
        if table.label == record.label and table.conductor == record.conductor and table.m == m:
            return table
    table = build_an_table(record.a_invariants, record.conductor, m, record.label)
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
        rows.append(
            ObservationRow(
                label=parts[0],
                conductor=int(parts[1]),
                l1=float(parts[2]),
                tau=float(parts[3]),
                survivors=tuple(int(s) for s in parts[4 : 4 + n_surv]),
            )
        )
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


def parse_manifest(text: str) -> list[str]:
    labels = [ln.strip() for ln in text.splitlines() if ln.strip()]
    for lb in labels:
        cat.split_label(lb)
    return labels


def _observe_one(record: cat.CurveRecord, cfg: RunConfig) -> ObservationRow:
    table = get_an_table(record, cfg.m, cfg.cache_dir)
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


def cmd_observe(manifest_labels: list[str], cfg: RunConfig) -> list[ObservationRow]:
    """One observation row per manifest label, in manifest order."""
    records = load_catalog_for(cfg)
    picked = [_record_by_label(records, lb) for lb in manifest_labels]
    workers = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    if workers == 1 or len(picked) <= 1:
        return [_observe_one(r, cfg) for r in picked]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: _observe_one(r, cfg), picked))


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


def parse_report_block(text: str) -> dict:
    out = {}
    for ln in text.splitlines():
        if "=" in ln and " " not in ln.strip():
            key, _, value = ln.strip().partition("=")
            out[key] = value
    return out


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


def resolve_map_selector(selector: str, cfg: RunConfig, records=None):
    """label | nonic:<label> | exp:<lambda> | zeta."""
    if selector == "zeta":
        return DirichletMap(AnTable("zeta", 1, cfg.m, (1,) * cfg.m))
    if selector.startswith("exp:"):
        try:
            lam = complex(selector[4:])
        except ValueError as exc:
            raise ConfigError(f"bad lambda in {selector!r}: {exc}") from None
        return ScaledExpMap(lam)
    if selector.startswith("nonic:"):
        label = selector[6:]
        records = load_catalog_for(cfg) if records is None else records
        return PolynomialMap(nonic_polynomial(_record_by_label(records, label).a_invariants))
    records = load_catalog_for(cfg) if records is None else records
    record = _record_by_label(records, selector)
    return DirichletMap(get_an_table(record, cfg.m, cfg.cache_dir))


def cmd_render(selector: str, cfg: RunConfig, width: int, height: int) -> bytes:
    spec = resolve_map_selector(selector, cfg)
    field = escape_time_field(
        spec, cfg.window, width, height, cfg.radius, cfg.iterations, mode=cfg.escape_mode
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
        if f.name == "window":
            v = ",".join(_fmt(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = _fmt(v)
        parts.append(f"{f.name}={v}")
    return "\n".join(parts) + "\n"


def cmd_reproduce(cfg: RunConfig) -> dict:
    """Full pipeline: sample, observe, correlate.  Writes manifest.txt,
    observations.csv, report.txt and summary.txt into output_dir."""
    t0 = time.monotonic()
    out = Path(cfg.output_dir)
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
    return {
        "report": report,
        "excluded": excluded,
        "eligible": eligible,
        "rows": rows,
        "output_dir": str(out),
        "wall_seconds": wall,
    }
