"""Truncated elliptic-curve L-series as complex dynamical systems.

Parses Weierstrass curve catalogs, builds Dirichlet coefficient tables
from finite-field point counts, iterates the truncated series (and a
few reference maps) to escape-time fields and escape rates, and tests
the rank correlation between the truncated L(1) value and the escape
rate over stratified curve samples.
"""

from .catalog import (
    CurveRecord, SamplePlan, b_invariants, c_invariants, count_eligible_classes, discriminant,
    is_eligible, is_squarefree, load_catalog, parse_catalog, select_sample, serialize_catalog,
    split_label,
)
from .dynamics import (
    CUMULATIVE, FINAL, NEVER, DirichletMap, EscapeField, EscapeRateEstimate, PolynomialMap,
    ScaledExpMap, Window, apply_map, escape_iterate, escape_time_field, estimate_escape_rate,
    fit_decay, seed_cloud,
)
from .errors import (
    CacheError, CatalogError, ConfigError, ConsistencyError, LflowError, NumericError,
    SamplingError, SingularCurveError, UndefinedCorrelationError,
)
from .formal_group import (
    defining_relation_residual, expand_formal_group, nonic_integer_coefficients,
    nonic_polynomial,
)
from .lseries import (
    AnTable, build_an_table, count_points, count_points_fast, eval_truncated_l,
    eval_truncated_l_many, l_at_one, sigma0_sqrt_bound, smoothed_l_at_one, trace_of_frobenius,
)
from .pipeline import (
    ObservationRow, RunConfig, build_config, cmd_coeffs, cmd_correlate, cmd_nonic, cmd_observe,
    cmd_render, cmd_reproduce, cmd_sample, observations_to_csv, parse_observations_csv,
    pgm_bytes,
)
from .rng import splitmix64, unit_uniform, unit_uniform_array
from .stats import (
    CorrelationReport, average_ranks, correlation_report, critical_rs,
    regularized_incomplete_beta, spearman_rho, student_t_sf,
)

__version__ = "0.1.0"
