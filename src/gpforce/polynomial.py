"""Forcing polynomials, their derived statistics, and matching orbits.

The forcing polynomial collects x^{f(G,M)} over all perfect matchings M, so
its coefficient at x^i counts matchings with forcing number i. Evaluating at
1 gives the matching count, the log-derivative at 1 the average forcing
number, and the support the forcing spectrum.

analyze partitions the matchings of a GP graph once, under the dihedral
group (the rotations u_i -> u_{i+j}, v_i -> v_{i+j} and the reflections
u_i -> u_{j-i}, v_i -> v_{j-i}), and returns those orbits. Every member of an
orbit shares one forcing number because the maps are graph automorphisms, so
the engine runs once per orbit. A graph without gp_params has only the
identity map, and each of its matchings is an orbit of its own. Rotation
orbit tables split each dihedral orbit from its smallest member alone.

The records (ForcingPolynomial, PolyStats, Orbit, OrbitTable) are
NamedTuples, and poly_stats alone imports fractions, so importing this
module loads neither dataclasses nor fractions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .forcing import forcing_numbers_map
from .graphs import DomainError, Graph, symmetry_images
from .matchings import edge_indices, matching_text, perfect_matchings

# unused here since analyze reads the memo, but bench/tracing.py patches it
from .matchings import enumerate_perfect_matchings  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction


class OrbitInconsistency(RuntimeError):
    """An orbit's symmetry images leave the matchings it was taken from."""


class ForcingPolynomial(NamedTuple):
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


class PolyStats(NamedTuple):
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
    from fractions import Fraction  # only the statistics use it

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


def _orbits(matchings, images):
    """Partition the ascending `matchings` into orbits of a symmetry group,
    given as `images`, the function from an edge set to the list of its images
    under every group element (see graphs.symmetry_images).

    Yields each orbit as (smallest member, size), in ascending order: the
    first unseen matching is its orbit's minimum, as the matchings ascend.
    Raises OrbitInconsistency if an image falls outside `matchings`.
    """
    unseen = set(matchings)
    for m in matchings:
        if m not in unseen:
            continue
        orbit = set(images(m))
        stray = orbit - unseen
        if stray:
            raise OrbitInconsistency(
                f"symmetry image {min(stray):#x} of {m:#x} is not among the"
                " matchings partitioned"
            )
        unseen -= orbit
        yield m, len(orbit)


def analyze(g: Graph, engine: str = "hitting_set", jobs: int = 1) -> list[Orbit]:
    """Enumerate g's perfect matchings, partition them into dihedral orbits
    and compute each orbit's forcing number with the chosen engine ("both"
    cross-checks).

    The matchings are memoized on g (matchings.perfect_matchings) before
    the fan-out, so the subset search in every process reads this list.

    The engine runs once per orbit, on its smallest member, and `jobs`
    processes, this one included, share those representatives. A graph
    without gp_params gets the identity group, so each of its matchings is
    its own orbit. Returns the orbits, without members, sorted by
    representative; orbit_polynomial tallies them into the polynomial.
    """
    matchings = perfect_matchings(g)
    images = symmetry_images(g) if g.gp_params else lambda m: [m]
    orbits = list(_orbits(matchings, images))
    results = forcing_numbers_map(g, [m for m, _ in orbits], engine=engine, jobs=jobs)
    return [Orbit(m, size, r.forcing_number) for (m, size), r in zip(orbits, results)]


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


class Orbit(NamedTuple):
    """A symmetry-equivalence class of perfect matchings.

    representative is the smallest bit-encoding over the whole orbit; size is
    the matching count of the class (the PMC table column) and
    forcing_number its common forcing number (the FN column).
    """

    representative: int
    size: int
    forcing_number: int


def matching_orbits(
    g: Graph, orbits: list[Orbit], group: str = "rotation"
) -> list[Orbit]:
    """The orbits of the chosen symmetry group, from analyze's dihedral orbits.

    "dihedral" returns `orbits` unchanged. "rotation" splits each from its
    representative r: the rotations have index 2, so a dihedral orbit is one
    rotation orbit, or two equal ones that a reflection swaps. The reflection
    images of r form one rotation orbit; its minimum, the mirror, is r or the
    other piece's representative. Pieces keep the forcing number, sorted by
    representative. DomainError: a non-GP graph or an unknown group.
    OrbitInconsistency: a piece's size differs from r's rotation orbit.
    """
    images = symmetry_images(g)
    if group not in ("rotation", "dihedral"):
        raise DomainError(f"unknown symmetry group {group!r}")
    if group == "dihedral":
        return orbits
    n = g.gp_params[0]
    pieces = []
    for o in orbits:
        r_images = images(o.representative)
        mirror = min(r_images[n:])
        reps = {o.representative, mirror}
        if len(set(r_images[:n])) * len(reps) != o.size:  # orbit-stabilizer
            raise OrbitInconsistency(f"{o} does not split into rotation orbits of {g}")
        pieces += [Orbit(r, o.size // len(reps), o.forcing_number) for r in reps]
    return sorted(pieces, key=lambda o: o.representative)


def orbit_polynomial(orbits: list[Orbit]) -> ForcingPolynomial:
    """Reassemble the forcing polynomial from orbit sizes."""
    coeffs: dict[int, int] = {}
    for o in orbits:
        coeffs[o.forcing_number] = coeffs.get(o.forcing_number, 0) + o.size
    return ForcingPolynomial(coeffs)


class OrbitTable(NamedTuple):
    """Orbit rows (NO, PMC, FN, representative) plus the polynomial footer."""

    g: Graph
    orbits: tuple[Orbit, ...]

    @property
    def polynomial(self) -> ForcingPolynomial:
        return orbit_polynomial(self.orbits)

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
