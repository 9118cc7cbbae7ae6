"""Dirichlet coefficients of a curve and values of the truncated series.

Run from the repository root:  python3 demos/02_series_coefficients.py
"""

import math

from lflow.catalog import load_catalog
from lflow.lseries import (
    AnTable,
    build_an_table,
    eval_truncated_l,
    l_at_one,
    smoothed_l_at_one,
    trace_of_frobenius,
)

records = load_catalog("data/fixture_allcurves.txt")
rec = next(r for r in records if r.label == "11a1")

# traces at small primes; at the bad prime a_p is 1, -1 or 0 for split,
# nonsplit or additive reduction
for p in (2, 3, 5, 7, 11, 13):
    a_p = trace_of_frobenius(rec.a_invariants, p, rec.conductor)
    mark = "  (bad prime)" if rec.conductor % p == 0 else ""
    print(f"  a_{p:<2} = {a_p:+d}{mark}")

table = build_an_table(rec.a_invariants, rec.conductor, 1000, rec.label)
print(f"\nfirst ten a_n: {table.coefficients[:10]}")

sigma0 = [sum(n % d == 0 for d in range(1, n + 1)) for n in range(1, table.m + 1)]
worst = max(abs(a) / (s0 * math.sqrt(n)) for n, (a, s0) in enumerate(zip(table.coefficients, sigma0), 1))
print(f"divisor bound |a_n| <= sigma0(n) sqrt(n): worst ratio {worst:.3f} (must be <= 1)")

print(f"\ntruncated L(1)  (M=1000): {l_at_one(table):+.12f}")
print(f"smoothed  L(1)  (M=1000): {smoothed_l_at_one(table):+.12f}")
print("(the smoothed estimator converges to the classical L(11a1,1) = 0.253841860856)")

print("\nvalues along the line Re s = 1.5 (the map being iterated):")
for im in (0.0, 3.0, 6.0, 9.0, 12.0):
    v = eval_truncated_l(table, complex(1.5, im))
    print(f"  L_M(1.5 + {im:>4}i) = {v.real:+.6f} {v.imag:+.6f}i  |.| = {abs(v):.6f}")

# a rank-1 curve for contrast: the raw truncation hovers near zero
rec37 = next(r for r in records if r.label == "37a1")
t37 = build_an_table(rec37.a_invariants, rec37.conductor, 1000, rec37.label)
print(f"\n37a1 (rank 1): truncated L(1) = {l_at_one(t37):+.6f}")
print(f"11a1 (rank 0): truncated L(1) = {l_at_one(table):+.6f}")
print("rank-0 curves sit far from zero, rank-1 curves close; the correlation")
print("experiment exploits exactly this contrast through the dynamics.")

zeta = AnTable("zeta", 1, 1000, (1,) * 1000)
h1000 = math.fsum(1.0 / n for n in range(1, 1001))
print(f"\nsanity: all-ones table at s=1 gives {l_at_one(zeta):.9f}")
print(f"        1000th harmonic number    {h1000:.9f}")
