"""Truncated elliptic-curve L-series as complex dynamical systems.

Parses Weierstrass curve catalogs, builds Dirichlet coefficient tables
from finite-field point counts, iterates the truncated series (and a
few reference maps) to escape-time fields and escape rates, and tests
the rank correlation between the truncated L(1) value and the escape
rate over stratified curve samples.
"""

__version__ = "0.1.0"
