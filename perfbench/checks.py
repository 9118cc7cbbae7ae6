"""Correctness checks, artifact digests and work counts for one repetition.

The checks read only the files a repetition wrote and re-derive what
they test without importing lflow, so they stay independent of the code
under measurement.  An operation (one curve, one image or one table)
fails when its artifact is missing or malformed or breaks an invariant;
a malformed report fails every curve of the run it summarises.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl


@dataclass
class Outcome:
    ops: int
    failed: int = 0
    digest: str | None = None
    work: int = 0  # map evaluations, or tables for tables_sample2
    notes: list[str] = field(default_factory=list)


def _digest(named_blobs) -> str:
    h = hashlib.sha256()
    for name, blob in named_blobs:
        h.update(name.encode("ascii") + b"\0" + len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()


def fit_rate(s: list[int]) -> float:
    """Escape rate from survivor counts, written out independently of
    lflow.dynamics.fit_decay with the same conventions."""
    if s[-1] == s[0]:
        return 0.0
    if s[1] == 0:
        return math.inf
    points = [(k, math.log(s[k])) for k in range(1, len(s)) if s[k] > 0]
    if len(points) < 2:
        k, _ = points[0]
        return math.log(s[0] / s[k]) / k
    n = len(points)
    mk = sum(k for k, _ in points) / n
    my = sum(y for _, y in points) / n
    slope = sum((k - mk) * (y - my) for k, y in points) / sum((k - mk) ** 2 for k, _ in points)
    return 0.0 if slope == 0.0 else -slope


def _same(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _report_ok(report: str, rows: int, infinite: int) -> bool:
    block = dict(
        ln.split("=", 1) for ln in report.splitlines() if "=" in ln and " " not in ln.strip()
    )
    try:
        n, excluded = int(block["n"]), int(block["excluded_infinite"])
        r_s = float(block["r_s"])
        p_one, p_two = float(block["p_one"]), float(block["p_two"])
        ok = block["reject"] in ("true", "false") and float(block["alpha"]) == 0.001
    except (KeyError, ValueError):
        return False
    return (
        ok and n + excluded == rows and excluded == infinite and int(block["df"]) == n - 2
        and -1.0 <= r_s <= 1.0 and 0.0 <= p_one <= 1.0 and 0.0 <= p_two <= 1.0
    )


def check_reproduce(out: Path, size: str) -> Outcome:
    n_seeds = wl.SIZES[size]["reproduce_seeds"]
    res = Outcome(ops=wl.op_count("reproduce_sample1", size))
    try:
        blobs = [(n, (out / n).read_bytes()) for n in ("manifest.txt", "observations.csv", "report.txt")]
        stdout = (out / "stdout.txt").read_bytes()
    except OSError as exc:
        res.failed, res.notes = res.ops, [f"missing artifact: {exc}"]
        return res
    res.digest = _digest(blobs)
    labels = blobs[0][1].decode("ascii").split()
    lines = blobs[1][1].decode("ascii").splitlines()
    expected_header = ["label", "conductor", "l1", "tau"] + [f"s{k}" for k in range(wl.K + 1)]
    if len(labels) != res.ops or len(lines) != res.ops + 1 or lines[0].split(",") != expected_header:
        res.failed, res.notes = res.ops, ["manifest or CSV shape is wrong"]
        return res
    infinite = 0
    for label, line in zip(labels, lines[1:]):
        parts = line.split(",")
        try:
            l1, tau = float(parts[2]), float(parts[3])
            s = [int(x) for x in parts[4:]]
        except (ValueError, IndexError):
            res.failed += 1
            continue
        infinite += math.isinf(tau)
        res.work += sum(s[:-1])
        ok = (
            parts[0] == label and len(s) == wl.K + 1 and s[0] == n_seeds and math.isfinite(l1)
            and all(0 <= b <= a for a, b in zip(s, s[1:])) and _same(tau, fit_rate(s))
        )
        if not ok:
            res.failed += 1
            res.notes.append(f"bad observation row {line!r}")
    report = blobs[2][1]
    if stdout != report or not _report_ok(report.decode("ascii"), res.ops, infinite):
        res.failed, res.notes = res.ops, res.notes + ["report is malformed or differs from stdout"]
    return res


def gray_levels(k_max: int) -> dict[int, int]:
    """Gray value -> evaluations spent on that pixel (escape at k took k)."""
    levels = {0: k_max}
    for k in range(1, k_max + 1):
        levels[55 + (200 * (k_max - k)) // max(k_max - 1, 1)] = k
    return levels


def check_images(out: Path, workload: str, size: str) -> Outcome:
    images = wl.images(workload, size)
    res = Outcome(ops=wl.op_count(workload, size))
    levels = gray_levels(wl.K)
    blobs = []
    for i, (selector, _, _, w, h) in enumerate(images):
        try:
            data = (out / wl.image_file(i)).read_bytes()
        except OSError as exc:
            res.failed += 1
            res.notes.append(f"{selector}: {exc}")
            continue
        blobs.append((selector, data))
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        body = data[len(header):]
        counts = {g: body.count(bytes([g])) for g in levels}
        if not data.startswith(header) or len(body) != w * h or sum(counts.values()) != w * h:
            res.failed += 1
            res.notes.append(f"{selector}: bad PGM header, length or gray level")
            continue
        res.work += sum(levels[g] * c for g, c in counts.items())
    res.digest = _digest(blobs)
    return res


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return [p for p in range(n + 1) if sieve[p]]


def _table_ok(text: str, label: str, primes: list[int]) -> bool:
    try:
        return _table_invariants(text, label, primes)
    except (ValueError, AttributeError):
        return False


def _table_invariants(text: str, label: str, primes: list[int]) -> bool:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        return False
    meta = dict(part.split("=", 1) for part in lines[0][2:].split() if "=" in part)
    conductor = int(re.match(r"\d+", label).group())
    if meta.get("label") != label or meta.get("N") != str(conductor) or meta.get("M") != str(wl.TABLE_M):
        return False
    body = lines[1:]
    if len(body) != wl.TABLE_M:
        return False
    a = [0]
    for n, ln in enumerate(body, start=1):
        parts = ln.split()
        if len(parts) != 2 or parts[0] != str(n):
            return False
        a.append(int(parts[1]))
    if a[1] != 1:
        return False
    for p in primes:
        if conductor % p:
            if a[p] * a[p] > 4 * p:
                return False
        elif a[p] not in (-1, 0, 1):
            return False
    return True


def check_tables(out: Path, size: str) -> Outcome:
    count = wl.op_count("tables_sample2", size)
    res = Outcome(ops=count)
    try:
        manifest = (out / "manifest.txt").read_text(encoding="ascii")
    except OSError as exc:
        res.failed, res.notes = count, [f"missing manifest: {exc}"]
        return res
    labels = wl.pick_labels(manifest, count)
    if len(manifest.split()) != wl.SAMPLE2_SIZE or len(labels) != count:
        res.failed, res.notes = count, ["sample2 manifest has the wrong size"]
        return res
    primes = _primes_up_to(wl.TABLE_M)
    blobs = [("manifest.txt", manifest.encode("ascii"))]
    for label in labels:
        try:
            cold = (out / "cold" / f"{label}.an").read_bytes()
            warm = (out / "warm" / f"{label}.an").read_bytes()
        except OSError as exc:
            res.failed += 1
            res.notes.append(f"{label}: {exc}")
            continue
        blobs.append((label, cold))
        if cold != warm or not _table_ok(cold.decode("ascii"), label, primes):
            res.failed += 1
            res.notes.append(f"{label}: table malformed or cold and warm passes differ")
            continue
        res.work += 1
    res.digest = _digest(blobs)
    return res


def check(workload: str, out: Path, size: str) -> Outcome:
    try:
        if workload == "reproduce_sample1":
            return check_reproduce(out, size)
        if workload == "tables_sample2":
            return check_tables(out, size)
        return check_images(out, workload, size)
    except (UnicodeDecodeError, ValueError, IndexError) as exc:
        ops = wl.op_count(workload, size)
        return Outcome(ops=ops, failed=ops, notes=[f"malformed artifact: {exc}"])
