"""The formal group expansion of a curve and the nonic polynomial it defines.

Solving w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3 as a power
series gives w(z) = z^3(1 + A1 z + ... + A6 z^6) with integer A_i.  The
degree-9 truncation is itself a polynomial map worth iterating.

Run from the repository root:  python3 demos/05_formal_group_nonic.py
"""

from lflow.catalog import load_catalog
from lflow.dynamics import PolynomialMap, escape_time_field
from lflow.formal_group import (
    defining_relation_residual,
    expand_formal_group,
    nonic_integer_coefficients,
)
from lflow.pipeline import pgm_bytes

records = load_catalog("data/fixture_allcurves.txt")

for label in ("11a1", "37a1", "389a1"):
    rec = next(r for r in records if r.label == label)
    A = expand_formal_group(rec.a_invariants)
    residual = defining_relation_residual(rec.a_invariants, A)
    print(f"{label}: A1..A6 = {A}   residual through degree 9: {set(residual)}")

rec = next(r for r in records if r.label == "11a1")
coeffs = nonic_integer_coefficients(rec.a_invariants)
terms = " + ".join(
    f"{'' if c == 1 else '-' if c == -1 else c}x^{k}" for k, c in enumerate(coeffs) if c
).replace("+ -", "- ")
print(f"\nnonic for 11a1: P(x) = {terms}")

K = 12
field = escape_time_field(
    PolynomialMap([complex(c) for c in coeffs]), (-1.3, 1.3, -1.3, 1.3), 64, 48, 100.0, K
)
with open("11a1_nonic.pgm", "wb") as fh:
    fh.write(pgm_bytes(field, K))
never = int((field == 0).sum())
print(f"wrote 11a1_nonic.pgm; {never}/{field.size} pixels never escape")
print("(near the origin P(x) ~ x^3, so a basin of attraction survives)")
