"""Published forcing polynomials and orbit tables of GP(n,2) for n = 5..15.

These constants are transcribed reference values, embedded as data on purpose:
the verification harness has to catch regressions against the published
tables, never against its own recomputation. Orbit rows are (PMC, FN) pairs;
their order is presentation only, so comparisons treat them as multisets.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .forcing import _fan_out
from .graphs import DomainError, build_gp
from .polynomial import (
    ForcingPolynomial,
    analyze,
    matching_orbits,
    orbit_polynomial,
    polynomial_text,
)

PUBLISHED_RANGE = range(5, 16)

PUBLISHED_POLYNOMIALS: dict[int, dict[int, int]] = {
    5: {2: 6},
    6: {2: 10},
    7: {2: 15},
    8: {3: 8, 2: 9},
    9: {3: 1, 2: 21},
    10: {3: 36},
    11: {3: 34, 2: 11},
    12: {3: 51, 2: 3},
    13: {4: 1, 3: 78},
    14: {4: 57, 3: 56},
    15: {4: 91, 3: 53},
}

PUBLISHED_ORBIT_ROWS: dict[int, tuple[tuple[int, int], ...]] = {
    5: ((5, 2), (1, 2)),
    6: ((6, 2), (1, 2), (3, 2)),
    7: ((7, 2), (1, 2), (7, 2)),
    8: ((4, 3), (8, 2), (1, 2), (4, 3)),
    9: ((9, 2), (9, 2), (1, 3), (3, 2)),
    10: ((10, 3), (5, 3), (10, 3), (1, 3), (10, 3)),
    11: ((11, 3), (11, 3), (11, 3), (1, 3), (11, 2)),
    12: ((4, 3), (12, 3), (12, 3), (6, 3), (12, 3), (1, 3), (4, 3), (3, 2)),
    13: ((13, 3), (13, 3), (13, 3), (13, 3), (13, 3), (1, 4), (13, 3)),
    14: (
        (14, 4), (14, 4), (14, 3), (14, 3), (14, 4),
        (7, 3), (14, 4), (1, 4), (14, 3), (7, 3),
    ),
    15: (
        (15, 4), (15, 4), (15, 4), (5, 3), (15, 3), (15, 3),
        (15, 4), (15, 4), (15, 4), (1, 4), (15, 3), (3, 3),
    ),
}

PUBLISHED_MATCHING_COUNTS: dict[int, int] = {
    n: sum(coeffs.values()) for n, coeffs in PUBLISHED_POLYNOMIALS.items()
}


class TableCheck(NamedTuple):
    """Outcome of re-deriving one published table; check_table attaches
    dihedral_rows to a failed check with _replace."""

    n: int
    expected_poly: dict[int, int]
    computed_poly: dict[int, int]
    expected_rows: tuple[tuple[int, int], ...]
    computed_rows: tuple[tuple[int, int], ...]
    dihedral_rows: tuple[tuple[int, int], ...] | None = None

    @property
    def poly_ok(self) -> bool:
        return self.expected_poly == self.computed_poly

    @property
    def rows_ok(self) -> bool:
        return Counter(self.expected_rows) == Counter(self.computed_rows)

    @property
    def ok(self) -> bool:
        return self.poly_ok and self.rows_ok

    def diff_lines(self) -> list[str]:
        lines = []
        if not self.poly_ok:
            lines.append(
                f"polynomial: expected {polynomial_text(self.expected_poly)},"
                f" computed {polynomial_text(self.computed_poly)}"
            )
        if not self.rows_ok:
            exp, got = Counter(self.expected_rows), Counter(self.computed_rows)
            missing = sorted((exp - got).elements())
            extra = sorted((got - exp).elements())
            lines.append(f"orbit rows (pmc, fn): missing {missing}, extra {extra}")
            if self.dihedral_rows is not None:
                lines.append(
                    "dihedral-group rows for comparison: "
                    f"{sorted(self.dihedral_rows)}"
                )
        return lines

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "pass": self.ok,
            "polynomial_expected": ForcingPolynomial(self.expected_poly).to_json_dict(),
            "polynomial_computed": ForcingPolynomial(self.computed_poly).to_json_dict(),
            "rows_expected": sorted(list(r) for r in self.expected_rows),
            "rows_computed": sorted(list(r) for r in self.computed_rows),
        }
        if self.dihedral_rows is not None:
            d["rows_dihedral"] = sorted(list(r) for r in self.dihedral_rows)
        return d


def check_table(n: int, engine: str = "hitting_set") -> TableCheck:
    """Recompute GP(n,2) and diff it against one published table.

    When the rotation-group orbit rows disagree with the published ones, the
    dihedral-group rows are attached to the report so a symmetry-convention
    mismatch is visible instead of silently chosen.
    """
    g = build_gp(n, 2)
    dihedral = analyze(g, engine)
    orbits = matching_orbits(g, dihedral, group="rotation")
    check = TableCheck(
        n=n,
        expected_poly=dict(PUBLISHED_POLYNOMIALS[n]),
        computed_poly=orbit_polynomial(dihedral).coeffs,
        expected_rows=PUBLISHED_ORBIT_ROWS[n],
        computed_rows=tuple((o.size, o.forcing_number) for o in orbits),
    )
    if not check.rows_ok:
        check = check._replace(
            dihedral_rows=tuple((o.size, o.forcing_number) for o in dihedral)
        )
    return check


def verify_published_tables(
    ns=None, engine: str = "hitting_set", jobs: int = 1
) -> list[TableCheck]:
    """Re-derive every requested table, by default all published ones.

    jobs > 1 hands whole tables out to that many processes, this one
    included; each table is computed in one process. Raises DomainError,
    before any table is computed, for an n without a published table.
    """
    ns = PUBLISHED_RANGE if ns is None else list(ns)
    if any(n not in PUBLISHED_RANGE for n in ns):
        first, last = PUBLISHED_RANGE[0], PUBLISHED_RANGE[-1]
        raise DomainError(f"published tables cover n = {first}..{last}")
    return _fan_out(lambda n: check_table(n, engine), ns, jobs)
