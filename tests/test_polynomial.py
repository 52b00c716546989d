"""Forcing polynomials, derived statistics, and rotation orbits."""

import io
import json
import os
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    assert_no_children,
    cycle_graph,
    reference_images,
    reference_orbits,
)
from gpforce.cli import main as cli_main
from gpforce.forcing import EngineMismatch, ForcingResult, forcing_numbers_map
from gpforce.graphs import DomainError, Graph, build_gp
from gpforce.matchings import enumerate_perfect_matchings
from gpforce.polynomial import (
    ForcingPolynomial,
    Orbit,
    OrbitInconsistency,
    OrbitTable,
    analyze,
    matching_orbits,
    orbit_polynomial,
    poly_stats,
    polynomial_text,
    report_json,
)


def test_polynomial_gp5(gp52):
    assert orbit_polynomial(analyze(gp52)).coeffs == {2: 6}


def test_polynomial_gp9_both_engines():
    p = orbit_polynomial(analyze(build_gp(9, 2), engine="both"))
    assert p.coeffs == {3: 1, 2: 21}


def test_polynomial_gp14():
    p = orbit_polynomial(analyze(build_gp(14, 2)))
    assert p.coeffs == {4: 57, 3: 56}


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ({4: 57, 3: 56}, "57x^4+56x^3"),
        ({3: 1, 2: 21}, "x^3+21x^2"),
        ({2: 6}, "6x^2"),
        ({0: 1}, "1"),
        ({1: 3}, "3x"),
        ({1: 1, 0: 2}, "x+2"),
        ({}, "0"),
    ],
)
def test_polynomial_rendering(coeffs, text):
    assert polynomial_text(coeffs) == text
    assert str(ForcingPolynomial(coeffs)) == text


def test_poly_stats_arithmetic():
    # derivative of 8x^3 + 9x^2 at 1 is 42, value is 17
    stats = poly_stats(ForcingPolynomial({3: 8, 2: 9}))
    assert stats.pm_count == 17
    assert stats.average_forcing == Fraction(42, 17)
    assert stats.spectrum == (2, 3)
    assert (stats.min_forcing, stats.max_forcing) == (2, 3)
    d = stats.as_json_dict()
    assert d["average_forcing"] == "42/17"
    assert d["average_forcing_decimal"] == "2.470588"


def test_poly_stats_single_term():
    stats = poly_stats(ForcingPolynomial({3: 36}))
    assert stats.pm_count == 36
    assert stats.average_forcing == 3
    assert stats.spectrum == (3,)


def test_poly_stats_trivial_graph(k2):
    stats = poly_stats(orbit_polynomial(analyze(k2)))
    assert stats.pm_count == 1
    assert stats.average_forcing == 0


def test_poly_stats_rejects_empty():
    with pytest.raises(DomainError):
        poly_stats(ForcingPolynomial({}))


def test_engine_mismatch_aborts(gp52, monkeypatch):
    import gpforce.forcing as forcing_mod

    real = forcing_mod.forcing_number_by_subset_search

    def skewed(g, m):
        r = real(g, m)
        return ForcingResult(r.forcing_number + 1, r.witness)

    monkeypatch.setattr(forcing_mod, "forcing_number_by_subset_search", skewed)
    with pytest.raises(EngineMismatch):
        analyze(gp52, engine="both")


def test_gp5_orbits(gp52):
    orbits = matching_orbits(gp52, analyze(gp52), group="rotation")
    assert sorted(o.size for o in orbits) == [1, 5]
    assert all(o.forcing_number == 2 for o in orbits)
    # the singleton orbit is the all-spokes matching
    singleton = next(o for o in orbits if o.size == 1)
    assert singleton.representative == sum(1 << (5 + i) for i in range(5))


def test_gp9_orbits():
    g = build_gp(9, 2)
    orbits = matching_orbits(g, analyze(g), group="rotation")
    assert sorted(o.size for o in orbits) == [1, 3, 9, 9]
    assert next(o for o in orbits if o.size == 1).forcing_number == 3


def test_gp12_orbit_multiset():
    g = build_gp(12, 2)
    orbits = matching_orbits(g, analyze(g), group="rotation")
    rows = sorted((o.size, o.forcing_number) for o in orbits)
    assert rows == sorted(
        [(4, 3), (12, 3), (12, 3), (6, 3), (12, 3), (1, 3), (4, 3), (3, 2)]
    )


def orbit_members(g, orbit, group):
    """The members of an orbit, rebuilt from its representative by the
    vertex-map reference (conftest.reference_images)."""
    return set(reference_images(g, group, orbit.representative))


@pytest.mark.parametrize(
    "n,k",
    [
        pytest.param(n, k, id=str(n) if k == 2 else f"{n}-{k}")  # GP(n,2) ids stay bare
        for n in range(5, 15)
        for k in range(1, n)
        if 2 * k != n
    ],
)
def test_orbit_invariants(n, k):
    g = build_gp(n, k)
    matchings = enumerate_perfect_matchings(g)
    dihedral = analyze(g)
    orbits = matching_orbits(g, dihedral, group="rotation")
    # orbit sizes divide n, members partition the matchings, and each orbit
    # is the rotation orbit of its representative, which is its smallest member
    assert sum(o.size for o in orbits) == len(matchings)
    seen = set()
    for o in orbits:
        members = orbit_members(g, o, "rotation")
        assert n % o.size == 0 and len(members) == o.size
        assert o.representative == min(members)
        assert not seen & members
        seen.update(members)
    assert seen == set(matchings)
    reference = reference_orbits(g, matchings, [0] * len(matchings), group="rotation")
    assert [(o.representative, o.size) for o in orbits] == [
        (o.representative, o.size) for o in reference
    ]
    # per-exponent orbit sizes reassemble the polynomial
    assert orbit_polynomial(orbits).coeffs == orbit_polynomial(dihedral).coeffs


def test_orbits_require_gp_graph(k2, gp52):
    with pytest.raises(DomainError):
        matching_orbits(k2, analyze(k2), group="rotation")
    with pytest.raises(DomainError):
        matching_orbits(gp52, analyze(gp52), group="mirror")


def test_analyze_detects_a_dropped_matching(gp52, monkeypatch):
    # the images of the other members of its orbit now land outside the
    # enumerated matchings
    import gpforce.polynomial as polynomial_mod

    (big,) = [o for o in analyze(gp52) if o.size == 5]
    dropped = sorted(orbit_members(gp52, big, "dihedral"))[2]
    real = polynomial_mod.perfect_matchings

    def dropping(g):
        return [m for m in real(g) if m != dropped]

    monkeypatch.setattr(polynomial_mod, "perfect_matchings", dropping)
    with pytest.raises(OrbitInconsistency):
        analyze(gp52)


def test_rotation_split_detects_an_orbit_not_closed_under_rotation(gp52):
    (big,) = [o for o in analyze(gp52) if o.size == 5]
    cut = Orbit(big.representative, 4, big.forcing_number)
    # size 1 divides n, so only the size of the representative's rotation
    # orbit rules it out
    for orbit in (cut, Orbit(big.representative, 1, big.forcing_number)):
        with pytest.raises(OrbitInconsistency):
            matching_orbits(gp52, [orbit], group="rotation")
    # the dihedral group is analyze's own, so its orbits pass unchanged
    assert matching_orbits(gp52, [cut], group="dihedral") == [cut]


def test_dihedral_orbits_partition(gp52):
    orbits = matching_orbits(gp52, analyze(gp52), group="dihedral")
    assert orbits == analyze(gp52)
    assert sum(o.size for o in orbits) == 6
    assert all(10 % o.size == 0 for o in orbits)


def test_orbit_table_gp5(gp52):
    table = OrbitTable(gp52, tuple(matching_orbits(gp52, analyze(gp52))))
    text = table.to_text()
    rows = table.rows()
    assert len(rows) == 2
    assert text.strip().splitlines()[-1] == "polynomial: 6x^2"
    # representative of the singleton orbit is the all-spokes matching
    assert rows[0][3] == "u0-v0,u1-v1,u2-v2,u3-v3,u4-v4"


def test_orbit_table_gp13():
    g = build_gp(13, 2)
    table = OrbitTable(g, tuple(matching_orbits(g, analyze(g))))
    rows = table.rows()
    assert len(rows) == 7
    assert sum(1 for _, pmc, fn, _ in rows if (pmc, fn) == (1, 4)) == 1
    assert str(table.polynomial) == "x^4+78x^3"


def test_orbit_table_csv_and_json(gp52):
    table = OrbitTable(gp52, tuple(matching_orbits(gp52, analyze(gp52))))
    csv = table.to_csv().splitlines()
    assert csv[0] == "no,pmc,fn,representative"
    assert len(csv) == 3
    data = table.to_json_dict()
    assert data["n"] == 5 and data["k"] == 2
    assert data["polynomial"] == {"2": 6}
    assert data["stats"]["pm_count"] == 6
    assert [o["pmc"] for o in data["orbits"]] == [1, 5]


def test_forcing_numbers_map_parallel_matches_serial():
    g = build_gp(9, 2)
    ms = enumerate_perfect_matchings(g)
    for engine in ("hitting_set", "subset_search", "both"):
        serial = forcing_numbers_map(g, ms, engine=engine, jobs=1)
        for jobs in (2, 3, len(ms) + 1):
            assert forcing_numbers_map(g, ms, engine=engine, jobs=jobs) == serial
            assert_no_children()


def test_forcing_numbers_map_starts_no_more_workers_than_matchings(monkeypatch):
    # each worker beyond the calling process is one os.fork; counting the
    # forks from this process gives the number of computing processes
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # GP(12,2) has 8 dihedral orbit representatives
    assert orbit_polynomial(analyze(build_gp(12, 2), jobs=64)).coeffs == {3: 51, 2: 3}
    assert len(forks) + 1 == 8
    forks.clear()
    g = build_gp(9, 2)
    ms = enumerate_perfect_matchings(g)
    assert forcing_numbers_map(g, ms, jobs=3) == forcing_numbers_map(g, ms)
    assert len(forks) + 1 == 3


def test_analyze_enumerates_the_matchings_once(monkeypatch):
    # the subset search reads the list that analyze memoized on the graph,
    # in this process and in the forked workers, which inherit it
    import gpforce.matchings as matchings_mod

    parent = os.getpid()
    calls = []
    real = matchings_mod.enumerate_perfect_matchings

    def counted(g):
        if os.getpid() != parent:
            raise AssertionError("a worker enumerated the matchings again")
        calls.append(g)
        return real(g)

    monkeypatch.setattr(matchings_mod, "enumerate_perfect_matchings", counted)
    for jobs in (1, 2):  # GP(12,2) has 8 representatives, so jobs=2 forks
        orbits = analyze(build_gp(12, 2), engine="both", jobs=jobs)
        assert orbit_polynomial(orbits).coeffs == {3: 51, 2: 3}
        assert_no_children()
    assert len(calls) == 2


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(8),
        # the 4-cycle with edge 1-2 doubled from test_forcing.small_graphs
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 2)]),
    ],
    ids=repr,
)
def test_analyze_without_gp_params_runs_every_matching(g, monkeypatch):
    # the identity group makes each matching the representative of its own
    # orbit, so analyze agrees with one engine call per matching
    import gpforce.polynomial as polynomial_mod

    ms = enumerate_perfect_matchings(g)
    reference = [r.forcing_number for r in forcing_numbers_map(g, ms)]
    reps = []

    def recorded(g, matchings, **kwargs):
        reps.extend(matchings)
        return forcing_numbers_map(g, matchings, **kwargs)

    monkeypatch.setattr(polynomial_mod, "forcing_numbers_map", recorded)
    orbits = analyze(g)
    assert len(ms) > 1 and reps == ms
    assert orbits == [Orbit(m, 1, f) for m, f in zip(ms, reference)]
    assert orbit_polynomial(orbits).coeffs == Counter(reference)


@pytest.fixture(scope="module")
def per_matching():
    """(g, matchings, forcing numbers) with one engine call per matching: the
    reference for the forcing numbers analyze hands across dihedral orbits."""
    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            g = build_gp(n, k)
            ms = enumerate_perfect_matchings(g)
            fns = [r.forcing_number for r in forcing_numbers_map(g, ms)]
            cache[n, k] = (g, ms, fns)
        return cache[n, k]

    return get


@pytest.mark.parametrize(
    "n,k", [(n, 2) for n in range(5, 19)] + [(7, 3), (9, 4), (11, 3)]
)
def test_analyze_copies_agree_with_per_matching_results(n, k, per_matching):
    g, ms, reference = per_matching(n, k)
    orbits = analyze(g)
    fn_of = dict(zip(ms, reference))
    covered = []
    for o in orbits:
        members = orbit_members(g, o, "dihedral")
        assert all(fn_of[m] == o.forcing_number for m in members), o
        covered += members
    assert sorted(covered) == ms
    assert orbits == reference_orbits(g, ms, reference, group="dihedral")
    assert orbit_polynomial(orbits).coeffs == Counter(reference)


def _cli(argv) -> str:
    buf = io.StringIO()
    assert cli_main(argv + ["--threads", "1"], out=buf) == 0
    return buf.getvalue()


@pytest.mark.parametrize("n", range(13, 19))
def test_orbit_reports_agree_with_per_matching_results(n, per_matching):
    # extends the golden file's byte-for-byte guard (n <= 12) to larger n
    g, ms, reference = per_matching(n, 2)
    poly = ForcingPolynomial(dict(Counter(reference)))
    rotation = reference_orbits(g, ms, reference, group="rotation")
    report = {**report_json(g, poly, rotation), "engine": "hitting_set"}
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert _cli(["poly", "--n", str(n), "--orbits", "--format", "json"]) == expected
    dihedral = OrbitTable(g, tuple(reference_orbits(g, ms, reference, group="dihedral")))
    assert _cli(["orbits", "--n", str(n), "--group", "dihedral"]) == dihedral.to_text()
