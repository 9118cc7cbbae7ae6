"""Weierstrass curve catalogs: parsing, eligibility, stratified sampling.

Catalog lines follow the Cremona "allcurves" layout::

    11 a 1 [0,-1,1,-10,-20] 0 5

i.e. conductor, isogeny class code, curve index within the class, the
five a-invariants, Mordell-Weil rank, torsion order.  Conductor, rank
and torsion are trusted as given; the discriminant is recomputed from
the a-invariants so singular tuples are rejected at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CatalogError, SamplingError, SingularCurveError, read_text
from .rng import unit_uniform

_LABEL_RE = re.compile(r"^(\d+)([a-z]+)(\d+)$")
_AINVS_RE = re.compile(r"^\[(-?\d+),(-?\d+),(-?\d+),(-?\d+),(-?\d+)\]$")
AInvariants = tuple[int, int, int, int, int]  # (a1, a2, a3, a4, a6) of a Weierstrass model


@dataclass(frozen=True)
class CurveRecord:
    conductor: int
    isogeny_class: str
    curve_index: int
    a_invariants: AInvariants
    rank: int
    torsion: int

    @property
    def label(self) -> str:
        return f"{self.conductor}{self.isogeny_class}{self.curve_index}"


def b_invariants(a: AInvariants) -> tuple[int, int, int, int]:
    """(b2, b4, b6, b8), exact: b2*b6 - b4^2 = 4(a1^2 a6 + 4a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2)."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    return b2, b4, b6, (b2 * b6 - b4 * b4) // 4


def c_invariants(a: AInvariants) -> tuple[int, int]:
    """(c4, c6) of a Weierstrass model."""
    b2, b4, b6, _ = b_invariants(a)
    return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6


def discriminant(a: AInvariants) -> int:
    b2, b4, b6, b8 = b_invariants(a)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def class_code_to_int(code: str) -> int:
    """Cremona class code to ordinal: a=0 .. z=25, ba=26, bb=27, ..."""
    if not code or not code.isascii() or not code.islower() or not code.isalpha():
        raise ValueError(f"bad isogeny class code {code!r}")
    if len(code) > 1 and code[0] == "a":
        raise ValueError(f"bad isogeny class code {code!r} (leading 'a')")
    n = 0
    for ch in code:
        n = n * 26 + (ord(ch) - ord("a"))
    return n


def int_to_class_code(n: int) -> str:
    if n < 0:
        raise ValueError("class ordinal must be nonnegative")
    if n == 0:
        return "a"
    digits = []
    while n:
        n, r = divmod(n, 26)
        digits.append(chr(ord("a") + r))
    return "".join(reversed(digits))


def split_label(label: str) -> tuple[int, str, int]:
    """'11a1' -> (11, 'a', 1)."""
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"bad curve label {label!r}")
    class_code_to_int(m.group(2))
    return int(m.group(1)), m.group(2), int(m.group(3))


def parse_catalog(text: str) -> list[CurveRecord]:
    """Parse allcurves-style text; blank lines are skipped.

    Raises CatalogError (with line number) on malformed lines, duplicate
    (conductor, class, index) triples, or singular a-invariant tuples.
    """
    records: list[CurveRecord] = []
    seen: set[tuple[int, str, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise CatalogError(f"expected 6 fields, got {len(fields)}", lineno, raw)
        try:
            conductor = int(fields[0])
            cls = fields[1]
            class_code_to_int(cls)
            index = int(fields[2])
            rank = int(fields[4])
            torsion = int(fields[5])
        except ValueError as exc:
            raise CatalogError(str(exc), lineno, raw) from None
        m = _AINVS_RE.match(fields[3])
        if not m:
            raise CatalogError(f"bad a-invariant list {fields[3]!r}", lineno, raw)
        a = tuple(int(g) for g in m.groups())
        if conductor < 1:
            raise CatalogError(f"conductor must be positive, got {conductor}", lineno, raw)
        if index < 1:
            raise CatalogError(f"curve index must be >= 1, got {index}", lineno, raw)
        if torsion < 1:
            raise CatalogError(f"torsion order must be >= 1, got {torsion}", lineno, raw)
        if rank < 0:
            raise CatalogError(f"rank must be >= 0, got {rank}", lineno, raw)
        if discriminant(a) == 0:
            raise SingularCurveError("singular curve (discriminant is zero)", lineno, raw)
        key = (conductor, cls, index)
        if key in seen:
            raise CatalogError(f"duplicate curve {conductor}{cls}{index}", lineno, raw)
        seen.add(key)
        records.append(CurveRecord(conductor, cls, index, a, rank, torsion))
    return records


def serialize_catalog(records: list[CurveRecord]) -> str:
    """Inverse of parse_catalog: one allcurves-style line per record."""
    lines = []
    for r in records:
        ainvs = "[" + ",".join(str(x) for x in r.a_invariants) + "]"
        lines.append(f"{r.conductor} {r.isogeny_class} {r.curve_index} {ainvs} {r.rank} {r.torsion}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_catalog(path) -> list[CurveRecord]:
    return parse_catalog(read_text(path))


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 2
    return True


def is_eligible(record: CurveRecord, bad_prime: int) -> bool:
    """Semi-stable (squarefree conductor) with bad reduction at bad_prime."""
    return record.conductor % bad_prime == 0 and is_squarefree(record.conductor)


@dataclass(frozen=True)
class SamplePlan:
    bad_prime: int
    conductor_lo: int
    conductor_hi: int
    size: int
    master_seed: int
    strata: int = 0  # 0 means one stratum per requested curve


def _eligible_in_range(records: list[CurveRecord], plan: SamplePlan):
    """The records eligible under `plan` with conductor in its range."""
    for r in records:
        if plan.conductor_lo <= r.conductor <= plan.conductor_hi and is_eligible(r, plan.bad_prime):
            yield r


def select_sample(records: list[CurveRecord], plan: SamplePlan) -> list[CurveRecord]:
    """Stratified sample of eligible isogeny classes, one curve per class.

    Eligible classes in [conductor_lo, conductor_hi] are binned into
    equal-width conductor strata.  Bins are visited cyclically; each
    visit removes one class drawn uniformly (counter-based RNG, counter
    advancing once per draw) until `size` classes are chosen.  The
    curve with index 1 represents its class.  Output is sorted by
    conductor, then class code.
    """
    if plan.conductor_lo > plan.conductor_hi:
        raise SamplingError("empty conductor range")
    if plan.size < 0:
        raise SamplingError("sample size must be nonnegative")

    by_class: dict[tuple[int, int], CurveRecord] = {}
    eligible_classes: set[tuple[int, int]] = set()
    for r in _eligible_in_range(records, plan):
        key = (r.conductor, class_code_to_int(r.isogeny_class))
        eligible_classes.add(key)
        if r.curve_index == 1:
            by_class[key] = r

    missing = sorted(eligible_classes - set(by_class))
    if missing:
        n, c = missing[0]
        raise SamplingError(f"class {n}{int_to_class_code(c)} has no curve with index 1")
    if len(by_class) < plan.size:
        raise SamplingError(
            f"need {plan.size} eligible isogeny classes in "
            f"[{plan.conductor_lo}, {plan.conductor_hi}], catalog has {len(by_class)}"
        )

    strata = plan.strata if plan.strata > 0 else max(1, plan.size)
    width = plan.conductor_hi - plan.conductor_lo + 1
    bins: dict[int, list[tuple[int, int]]] = {}  # only strata that hold a class, ascending as keys come sorted
    for key in sorted(by_class):
        bins.setdefault(min(strata - 1, (key[0] - plan.conductor_lo) * strata // width), []).append(key)

    chosen: list[tuple[int, int]] = []
    counter = 0
    while len(chosen) < plan.size:  # until then some bin holds a class, and a sweep pops from each
        for keys in bins.values():
            if len(chosen) >= plan.size:
                break
            if not keys:
                continue
            u = unit_uniform(plan.master_seed, counter)
            counter += 1
            idx = int(u * len(keys))
            chosen.append(keys.pop(idx))

    return [by_class[key] for key in sorted(chosen)]


def count_eligible_classes(records: list[CurveRecord], plan: SamplePlan) -> int:
    return len({(r.conductor, r.isogeny_class) for r in _eligible_in_range(records, plan)})
