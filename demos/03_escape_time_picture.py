"""Render the escape-time picture of an iterated truncated L-series.

Writes 11a1.pgm (and an ASCII preview to stdout).  The bright fingers are
seeds that diverge quickly under z -> L_M(z); black regions never escape.

Run from the repository root:  python3 demos/03_escape_time_picture.py
"""

from lflow.catalog import load_catalog
from lflow.dynamics import DirichletMap, escape_time_field
from lflow.lseries import build_an_table
from lflow.pipeline import pgm_bytes

WINDOW = (-1.5, 4.5, 0.0, 12.0)  # the standard seed window
RADIUS = 1e5
ITERATIONS = 10

records = load_catalog("data/fixture_allcurves.txt")
rec = next(r for r in records if r.label == "11a1")
table = build_an_table(rec.a_invariants, rec.conductor, 1000, rec.label)

field = escape_time_field(DirichletMap(table), WINDOW, 96, 64, RADIUS, ITERATIONS)
with open("11a1.pgm", "wb") as fh:
    fh.write(pgm_bytes(field, ITERATIONS))
height, width = field.shape
print(f"wrote 11a1.pgm ({width}x{height}, radius {RADIUS:g}, K={ITERATIONS})")

# coarse ASCII preview: darker character = survives longer
CHARS = " .:-=+*#%@"
step_y = height // 24
step_x = width // 72
print()
for j in range(0, height, step_y):
    row = ""
    for i in range(0, width, step_x):
        k = int(field[j, i])
        row += "@" if k == 0 else CHARS[min(9, 9 - (9 * (ITERATIONS - k)) // ITERATIONS)]
    print(row)
print("\n('@' marks seeds that never escape within K iterations)")

never = int((field == 0).sum())
total = field.size
print(f"{never}/{total} pixels never escape ({100.0 * never / total:.1f}%)")
