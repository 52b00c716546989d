"""Forcing polynomials, their derived statistics, and matching orbits.

The forcing polynomial collects x^{f(G,M)} over all perfect matchings M, so
its coefficient at x^i counts matchings with forcing number i. Evaluating at
1 gives the matching count, the log-derivative at 1 the average forcing
number, and the support the forcing spectrum.

Orbits partition the matchings of a GP graph under the cyclic rotations
u_i -> u_{i+j}, v_i -> v_{i+j} (optionally the full dihedral group); every
member of an orbit shares one forcing number because the maps are graph
automorphisms. So analyze computes one forcing number per dihedral orbit and
hands it to every member; a graph without gp_params has only the identity
map, and each of its matchings is an orbit of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forcing import forcing_numbers_map
from .graphs import DomainError, Graph, symmetry_edge_permutations
from .matchings import (
    edge_indices,
    enumerate_perfect_matchings,
    matching_text,
    permute_edge_set,
)


class OrbitInconsistency(RuntimeError):
    """Members of one orbit disagree on data that automorphisms preserve."""


@dataclass
class ForcingPolynomial:
    """Map from forcing number i to the count of matchings attaining it."""

    coeffs: dict[int, int]

    def __str__(self) -> str:
        return polynomial_text(self.coeffs)

    def to_json_dict(self) -> dict[str, int]:
        """Coefficients keyed by the exponent's decimal string."""
        return {str(e): c for e, c in sorted(self.coeffs.items())}


def polynomial_text(coeffs: dict[int, int]) -> str:
    """ASCII form with descending exponents: "91x^4+53x^3", "x^3+21x^2", "1"."""
    if not coeffs:
        return "0"
    terms = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        if e == 0:
            terms.append(str(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms)


@dataclass(frozen=True)
class PolyStats:
    pm_count: int
    average_forcing: Fraction
    spectrum: tuple[int, ...]
    min_forcing: int
    max_forcing: int

    def as_json_dict(self) -> dict:
        avg = self.average_forcing
        return {
            "pm_count": self.pm_count,
            "average_forcing": f"{avg.numerator}/{avg.denominator}",
            "average_forcing_decimal": f"{avg.numerator / avg.denominator:.6f}",
            "spectrum": list(self.spectrum),
            "min_forcing": self.min_forcing,
            "max_forcing": self.max_forcing,
        }


def poly_stats(p: ForcingPolynomial) -> PolyStats:
    """Matching count, exact average forcing number, spectrum, extremes."""
    if not p.coeffs:
        raise DomainError("empty polynomial: the graph has no perfect matching")
    total = sum(p.coeffs.values())
    weighted = sum(e * c for e, c in p.coeffs.items())
    spectrum = tuple(sorted(p.coeffs))
    return PolyStats(
        pm_count=total,
        average_forcing=Fraction(weighted, total),
        spectrum=spectrum,
        min_forcing=spectrum[0],
        max_forcing=spectrum[-1],
    )


def _orbits(matchings: list[int], perms):
    """Partition the ascending `matchings` into orbits of the group of edge
    permutations `perms`.

    Yields each orbit as the ascending tuple of its members, in ascending
    order of its smallest member. Raises OrbitInconsistency if an image falls
    outside `matchings`.
    """
    unseen = set(matchings)
    for m in matchings:
        if m not in unseen:
            continue
        orbit = {permute_edge_set(m, p) for p in perms}
        stray = orbit - unseen
        if stray:
            raise OrbitInconsistency(
                f"orbit image {min(stray):#x} of {m:#x} is not a known perfect matching"
            )
        unseen -= orbit
        yield tuple(sorted(orbit))


def analyze(
    g: Graph, engine: str = "hitting_set", jobs: int = 1
) -> tuple[list[int], list[int], ForcingPolynomial]:
    """Enumerate g's perfect matchings, compute their forcing numbers with the
    chosen engine ("both" cross-checks) and tally them into the polynomial.

    The engine runs once per dihedral orbit, on its smallest member, and
    `jobs` processes, this one included, share those representatives; every
    other member gets the representative's forcing number. A graph without gp_params gets the
    identity group, so each of its matchings is its own representative.

    Returns the sorted matchings, their aligned forcing numbers and the
    polynomial.
    """
    matchings = enumerate_perfect_matchings(g)
    identity = [tuple(range(g.num_edges))]
    perms = symmetry_edge_permutations(g, "dihedral") if g.gp_params else identity
    orbits = list(_orbits(matchings, perms))
    results = forcing_numbers_map(g, [o[0] for o in orbits], engine=engine, jobs=jobs)
    fn_of: dict[int, int] = {}
    coeffs: dict[int, int] = {}
    for orbit, r in zip(orbits, results):
        f = r.forcing_number
        fn_of.update(dict.fromkeys(orbit, f))
        coeffs[f] = coeffs.get(f, 0) + len(orbit)
    return matchings, [fn_of[m] for m in matchings], ForcingPolynomial(coeffs)


def report_json(g: Graph, poly: ForcingPolynomial, orbits=None) -> dict:
    """The JSON report of a polynomial: n, k, coefficients and statistics,
    plus one row per orbit when `orbits` is given."""
    n, k = g.gp_params if g.gp_params else (None, None)
    report = {
        "n": n,
        "k": k,
        "polynomial": poly.to_json_dict(),
        "stats": poly_stats(poly).as_json_dict(),
    }
    if orbits is not None:
        report["orbits"] = [
            {
                "representative_edges": edge_indices(o.representative),
                "pmc": o.size,
                "fn": o.forcing_number,
            }
            for o in orbits
        ]
    return report


@dataclass(frozen=True)
class Orbit:
    """A symmetry-equivalence class of perfect matchings.

    representative is the smallest bit-encoding over the whole orbit; size is
    the matching count of the class (the PMC table column) and forcing_number
    its common forcing number (the FN column).
    """

    representative: int
    size: int
    forcing_number: int
    members: tuple[int, ...]


def matching_orbits(
    g: Graph,
    matchings: list[int],
    forcing_numbers: list[int],
    group: str = "rotation",
) -> list[Orbit]:
    """Partition matchings into orbits of the chosen symmetry group.

    `forcing_numbers` gives each matching's forcing number, aligned with
    `matchings`. Orbits come back sorted by representative: the smallest
    matching not yet seen is the smallest of its orbit. Raises
    OrbitInconsistency if an orbit's members disagree on the forcing number
    or fall outside the matching list, both of which would mean a bug
    somewhere upstream.
    """
    perms = symmetry_edge_permutations(g, group)
    fn_of = dict(zip(matchings, forcing_numbers))
    orbits = []
    for members in _orbits(sorted(fn_of), perms):
        fns = {fn_of[m] for m in members}
        if len(fns) != 1:
            raise OrbitInconsistency(
                f"orbit of {members[0]:#x} carries forcing numbers {sorted(fns)}"
            )
        orbits.append(
            Orbit(
                representative=members[0],
                size=len(members),
                forcing_number=fns.pop(),
                members=members,
            )
        )
    return orbits


def orbit_polynomial(orbits: list[Orbit]) -> ForcingPolynomial:
    """Reassemble the forcing polynomial from orbit sizes."""
    coeffs: dict[int, int] = {}
    for o in orbits:
        coeffs[o.forcing_number] = coeffs.get(o.forcing_number, 0) + o.size
    return ForcingPolynomial(coeffs)


@dataclass(frozen=True)
class OrbitTable:
    """Orbit rows (NO, PMC, FN, representative) plus the polynomial footer."""

    g: Graph
    orbits: tuple[Orbit, ...]

    @property
    def polynomial(self) -> ForcingPolynomial:
        return orbit_polynomial(list(self.orbits))

    def rows(self) -> list[tuple[int, int, int, str]]:
        return [
            (no, o.size, o.forcing_number, matching_text(self.g, o.representative))
            for no, o in enumerate(self.orbits, start=1)
        ]

    def to_text(self) -> str:
        lines = ["NO  PMC  FN  representative"]
        for no, pmc, fn, rep in self.rows():
            lines.append(f"{no:<3d} {pmc:<4d} {fn:<3d} {rep}")
        lines.append(f"polynomial: {self.polynomial}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return report_json(self.g, self.polynomial, self.orbits)

    def to_csv(self) -> str:
        lines = ["no,pmc,fn,representative"]
        for no, pmc, fn, rep in self.rows():
            lines.append(f"{no},{pmc},{fn},{rep}")
        return "\n".join(lines) + "\n"
