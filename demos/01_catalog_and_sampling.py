"""Walk through the curve catalog: invariants, eligibility, stratified sampling.

Run from the repository root:  python3 demos/01_catalog_and_sampling.py
"""

from lflow.catalog import (
    SamplePlan,
    b_invariants,
    c_invariants,
    count_eligible_classes,
    discriminant,
    is_eligible,
    load_catalog,
    select_sample,
)

CATALOG = "data/fixture_allcurves.txt"

records = load_catalog(CATALOG)
print(f"catalog: {len(records)} curves, conductors {records[0].conductor}..{records[-1].conductor}")

r = next(rec for rec in records if rec.label == "11a1")
print(f"\n{r.label}: a = {r.a_invariants}, rank {r.rank}, torsion {r.torsion}")
print(f"  b-invariants {b_invariants(r.a_invariants)}")
print(f"  c-invariants {c_invariants(r.a_invariants)}")
print(f"  discriminant {discriminant(r.a_invariants)}  (= -11^5)")

# the experiment population: squarefree conductor divisible by the bad prime 3
eligible = [rec for rec in records if rec.curve_index == 1 and is_eligible(rec, 3)]
print(f"\neligible optimal curves (3 | N, N squarefree): {len(eligible)}")
print("  first few:", ", ".join(rec.label for rec in eligible[:8]))

plan = SamplePlan(
    bad_prime=3, conductor_lo=11, conductor_hi=1000, size=10, master_seed=1
)
sample = select_sample(records, plan)
print(f"\nstratified sample of {plan.size} (seed {plan.master_seed}) from "
      f"{count_eligible_classes(records, plan)} eligible classes:")
for rec in sample:
    print(f"  {rec.label:>7}  N={rec.conductor:<4} rank {rec.rank} torsion {rec.torsion}")

# the draw is a pure function of (catalog bytes, plan): rerunning reproduces it
assert [x.label for x in select_sample(records, plan)] == [x.label for x in sample]
print("\nredraw with the same plan reproduces the sample exactly")
