"""Exact combinatorics of Fano complete intersections.

The package computes the Hodge number h^{1,N-1} of a smooth Fano complete
intersection from its degrees, counts the irreducible components of the
central fiber of the compactified mirror Landau-Ginzburg model by stratum
enumeration and resolution counting, verifies that the two numbers agree, and
checks the period condition of the mirror Laurent polynomial by exact series
expansion.  All arithmetic is exact integer arithmetic.
"""

from .exactmath import BudgetExceeded, binomial, convolution_identity_sides
from .givental import (
    LaurentPolynomial,
    PeriodReport,
    PowerSeries,
    build_fx,
    i_series,
    phi_series,
    verify_period,
)
from .jacobian_ring import (
    HodgeReport,
    alt_dim_formula,
    count_monomials_oracle,
    delta_j,
    dim_R_1,
    dim_R_prime_1,
    hodge_h1,
    hypersurface_corollary,
)
from .lg_count import (
    KlgReport,
    StratumContribution,
    TheoremReport,
    enumerate_strata,
    k_lg,
    k_lg_closed,
    verify_main_theorem,
)
from .resolution import (
    ChartEdge,
    ChartType,
    ResolutionTrace,
    TraceEdge,
    TraceNode,
    chart_children,
    f_closed,
    fg_rec,
    g_closed,
    resolution_trace,
)
from .varieties import CompleteIntersection, fano_sweep

__version__ = "0.1.0"

__all__ = [
    "CompleteIntersection",
    "fano_sweep",
    "BudgetExceeded",
    "binomial",
    "convolution_identity_sides",
    "delta_j",
    "dim_R_prime_1",
    "count_monomials_oracle",
    "dim_R_1",
    "alt_dim_formula",
    "hodge_h1",
    "hypersurface_corollary",
    "HodgeReport",
    "LaurentPolynomial",
    "PowerSeries",
    "PeriodReport",
    "build_fx",
    "phi_series",
    "i_series",
    "verify_period",
    "ChartType",
    "ChartEdge",
    "TraceNode",
    "TraceEdge",
    "ResolutionTrace",
    "fg_rec",
    "f_closed",
    "g_closed",
    "chart_children",
    "resolution_trace",
    "StratumContribution",
    "KlgReport",
    "TheoremReport",
    "enumerate_strata",
    "k_lg",
    "k_lg_closed",
    "verify_main_theorem",
    "__version__",
]
