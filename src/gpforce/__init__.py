"""Exact forcing numbers, forcing polynomials, and matching orbits of
generalized Petersen graphs GP(n,k)."""

from .forcing import (
    AltCycle,
    EngineMismatch,
    ForcingResult,
    compute_forcing,
    enumerate_alternating_cycles,
    forcing_number_by_hitting_set,
    forcing_number_by_subset_search,
    forcing_numbers_map,
    is_forcing,
    max_disjoint_alternating_cycles,
)
from .graphs import (
    DomainError,
    Graph,
    build_gp,
    validate,
)
from .matchings import (
    count_matchings_containing,
    enumerate_perfect_matchings,
    is_perfect_matching,
    matching_text,
    parse_matching,
)
from .polynomial import (
    ForcingPolynomial,
    Orbit,
    OrbitInconsistency,
    OrbitTable,
    PolyStats,
    analyze,
    matching_orbits,
    orbit_polynomial,
    poly_stats,
)
from .tables import (
    PUBLISHED_MATCHING_COUNTS,
    PUBLISHED_ORBIT_ROWS,
    PUBLISHED_POLYNOMIALS,
    PUBLISHED_RANGE,
    verify_published_tables,
)

__version__ = "0.1.0"

__all__ = [
    "AltCycle",
    "DomainError",
    "EngineMismatch",
    "ForcingPolynomial",
    "ForcingResult",
    "Graph",
    "Orbit",
    "OrbitInconsistency",
    "OrbitTable",
    "PolyStats",
    "PUBLISHED_MATCHING_COUNTS",
    "PUBLISHED_ORBIT_ROWS",
    "PUBLISHED_POLYNOMIALS",
    "PUBLISHED_RANGE",
    "analyze",
    "build_gp",
    "compute_forcing",
    "count_matchings_containing",
    "enumerate_alternating_cycles",
    "enumerate_perfect_matchings",
    "forcing_number_by_hitting_set",
    "forcing_number_by_subset_search",
    "forcing_numbers_map",
    "is_forcing",
    "is_perfect_matching",
    "matching_orbits",
    "matching_text",
    "max_disjoint_alternating_cycles",
    "orbit_polynomial",
    "parse_matching",
    "poly_stats",
    "validate",
    "verify_published_tables",
]
