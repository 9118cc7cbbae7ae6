"""Survivor decay and the escape rate tau for two contrasting curves.

A rank-0 curve (truncated L(1) far from zero) keeps orbits alive; a curve
with L(1) near zero drains the seed cloud geometrically.  tau is the decay
constant fitted to ln S_k.

Run from the repository root:  python3 demos/04_escape_rate_decay.py
"""

import math

from lflow.catalog import load_catalog
from lflow.dynamics import DirichletMap, estimate_escape_rate
from lflow.lseries import build_an_table, l_at_one

WINDOW = (-1.5, 4.5, 0.0, 12.0)
N_SEEDS = 5000
RADIUS = 1e5
ITERATIONS = 10

records = load_catalog("data/fixture_allcurves.txt")

for label in ("105a1", "201b1"):
    rec = next(r for r in records if r.label == label)
    table = build_an_table(rec.a_invariants, rec.conductor, 1000, rec.label)
    est = estimate_escape_rate(
        DirichletMap(table), WINDOW, N_SEEDS, RADIUS, ITERATIONS, master_seed=1
    )
    print(f"{label}  (rank {rec.rank}):  truncated L(1) = {l_at_one(table):+.4f}")
    print(f"  survivors: {est.survivors}")
    print(f"  tau = {est.tau:.4f}   r^2 = {est.r_squared:.4f}")
    if est.tau > 0 and math.isfinite(est.tau):
        print(f"  (half the cloud gone every {math.log(2) / est.tau:.1f} iterations)")
    print()

print("the experiment: across a sample of curves, rank L(1) against tau and")
print("test for a (negative) monotone association; see demo 06.")
