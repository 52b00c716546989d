"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
measurements once its assertions hold (run with `pytest -v -s` to watch).
Heavy shared computations live in session-scoped fixtures so the whole gate
stays inside its time budgets: the published-table sweep runs single-core,
the n=5..12 dual-engine sweep and the n=16..20 extension sweep use all
available workers.
"""

import os
import time
from collections import Counter

import pytest

from conftest import reference_orbits
from gpforce.cli import main as cli_main
from gpforce.forcing import (
    enumerate_alternating_cycles,
    forcing_number_by_hitting_set,
    forcing_number_by_subset_search,
    forcing_numbers_map,
    max_disjoint_alternating_cycles,
)
from gpforce.graphs import build_gp
from gpforce.matchings import (
    count_matchings_containing,
    enumerate_perfect_matchings,
    iter_bits,
    parse_matching,
)
from gpforce.polynomial import analyze, matching_orbits, polynomial_text
from gpforce import tables
from gpforce.tables import (
    PUBLISHED_MATCHING_COUNTS,
    PUBLISHED_ORBIT_ROWS,
    PUBLISHED_POLYNOMIALS,
    PUBLISHED_RANGE,
    verify_published_tables,
)

EXPECTED_COUNTS = (6, 10, 15, 17, 22, 36, 45, 54, 79, 113, 144)


def _ok(criterion: int, message: str):
    print(f"[criterion {criterion}] PASS  {message}")


@pytest.fixture(scope="session")
def published_checks():
    t0 = time.perf_counter()
    checks = verify_published_tables(jobs=1)
    elapsed = time.perf_counter() - t0
    return checks, elapsed


@pytest.fixture(scope="session")
def dual_engine_sweep():
    """Per-matching results of both engines for every GP(n,2), n = 5..12."""
    jobs = os.cpu_count() or 1
    sweep = {}
    t0 = time.perf_counter()
    for n in range(5, 13):
        g = build_gp(n, 2)
        ms = enumerate_perfect_matchings(g)
        hit = forcing_numbers_map(g, ms, engine="hitting_set", jobs=jobs)
        sub = forcing_numbers_map(g, ms, engine="subset_search", jobs=jobs)
        sweep[n] = (g, ms, hit, sub)
    elapsed = time.perf_counter() - t0
    return sweep, elapsed


def test_criterion_1_published_polynomials_reproduce_exactly(published_checks):
    checks, elapsed = published_checks
    assert [c.n for c in checks] == list(PUBLISHED_RANGE)
    for c in checks:
        assert c.computed_poly == PUBLISHED_POLYNOMIALS[c.n], (
            f"n={c.n}: computed {polynomial_text(c.computed_poly)}"
        )
    assert elapsed < 60.0, f"single-core sweep took {elapsed:.1f}s, budget 60s"
    _ok(1, f"11/11 polynomials exact, single-core sweep {elapsed:.2f}s (< 60s)")


def test_criterion_2_matching_counts(published_checks):
    checks, _ = published_checks
    computed = tuple(sum(c.computed_poly.values()) for c in checks)
    assert computed == EXPECTED_COUNTS
    assert tuple(PUBLISHED_MATCHING_COUNTS[n] for n in PUBLISHED_RANGE) == EXPECTED_COUNTS
    _ok(2, f"matching counts {computed}")


def test_criterion_3_orbit_multisets_under_rotation(published_checks, monkeypatch):
    checks, _ = published_checks
    for c in checks:
        assert Counter(c.computed_rows) == Counter(PUBLISHED_ORBIT_ROWS[c.n]), (
            f"n={c.n}: rotation orbits {sorted(c.computed_rows)} vs "
            f"published {sorted(PUBLISHED_ORBIT_ROWS[c.n])}"
        )
    # the discrepancy path must be loud, never silent: a tampered table has
    # to come back with a structured diff plus the dihedral-group view
    monkeypatch.setitem(tables.PUBLISHED_ORBIT_ROWS, 5, ((5, 2), (1, 9)))
    tampered = verify_published_tables(ns=[5])[0]
    assert not tampered.rows_ok
    assert tampered.dihedral_rows is not None
    assert any("missing" in line for line in tampered.diff_lines())
    assert any("dihedral" in line for line in tampered.diff_lines())
    n12 = next(c for c in checks if c.n == 12)
    assert Counter(n12.computed_rows) == Counter(
        [(4, 3), (12, 3), (12, 3), (6, 3), (12, 3), (1, 3), (4, 3), (3, 2)]
    )
    _ok(3, "orbit (PMC, FN) multisets match all 11 tables; discrepancy path loud")


def test_criterion_4_gp5_forcing_exceeds_packing():
    g = build_gp(5, 2)
    ms = enumerate_perfect_matchings(g)
    assert len(ms) == 6
    for m in ms:
        f = forcing_number_by_hitting_set(g, m).forcing_number
        c = len(max_disjoint_alternating_cycles(enumerate_alternating_cycles(g, m)))
        assert f == 2 and c == 1 and f > c
    _ok(4, "GP(5,2): f=2 and C=1 for all 6 matchings, so f > C")


def test_criterion_5_dual_engine_agreement(dual_engine_sweep):
    sweep, elapsed = dual_engine_sweep
    total = 0
    for n, (g, ms, hit, sub) in sweep.items():
        for m, rh, rs in zip(ms, hit, sub):
            assert rh.forcing_number == rs.forcing_number, (n, m)
            cycles = enumerate_alternating_cycles(g, m)
            for r in (rh, rs):
                w = r.witness
                assert w & m == w and w.bit_count() == r.forcing_number
                assert count_matchings_containing(g, w, limit=2) == 1
                assert all(c.matched_edges & w for c in cycles)
            total += 1
    assert total == sum(EXPECTED_COUNTS[:8])
    assert elapsed < 120.0, f"dual sweep took {elapsed:.1f}s, budget 120s"
    _ok(5, f"both engines agree on {total} matchings (n=5..12) in {elapsed:.1f}s (< 120s)")


def test_criterion_6_gp5_m1_cycle_golden():
    g = build_gp(5, 2)
    m1 = parse_matching(g, "u0-u2,u1-u3,u4-v4,v0-v1,v2-v3")
    published = {
        (frozenset({0, 1, 10, 12}), frozenset({0, 1, 2, 3, 5, 6, 7, 8})),
        (frozenset({0, 1, 9, 12}), frozenset({0, 1, 2, 3, 4, 7, 8, 9})),
        (frozenset({0, 9, 10, 12}), frozenset({0, 2, 4, 5, 6, 7, 8, 9})),
        (frozenset({0, 1, 9, 10}), frozenset({0, 1, 2, 3, 4, 5, 6, 9})),
        (frozenset({1, 9, 10, 12}), frozenset({1, 3, 4, 5, 6, 7, 8, 9})),
    }
    cycles = enumerate_alternating_cycles(g, m1)
    got = {
        (frozenset(iter_bits(c.matched_edges)), frozenset(iter_bits(c.vertex_set)))
        for c in cycles
    }
    assert len(cycles) == 5 and got == published
    _ok(6, "GP(5,2) m1 alternating cycles match the published list edge-for-edge")


def test_criterion_7_structural_properties(published_checks, dual_engine_sweep):
    checks, _ = published_checks
    sweep, _ = dual_engine_sweep
    # packing never exceeds the forcing number
    for n, (g, ms, hit, _) in sweep.items():
        for m, rh in zip(ms, hit):
            cycles = enumerate_alternating_cycles(g, m)
            assert len(max_disjoint_alternating_cycles(cycles)) <= rh.forcing_number
    # the rotation orbits agree with a vertex-map partition that checks each
    # member's own forcing number; orbit sizes divide n; PMC sums reproduce
    # the polynomial per exponent
    for n, (g, ms, hit, _) in sweep.items():
        fns = [r.forcing_number for r in hit]
        orbits = matching_orbits(g, analyze(g), group="rotation")
        assert orbits == reference_orbits(g, ms, fns, group="rotation")
        per_fn = Counter()
        for o in orbits:
            assert n % o.size == 0
            per_fn[o.forcing_number] += o.size
        poly = Counter()
        for r in hit:
            poly[r.forcing_number] += 1
        assert per_fn == poly
        assert sum(o.size for o in orbits) == len(ms)
    # byte-identical reports across worker counts; GP(16,2) has 14 dihedral
    # orbit representatives, enough for forcing_numbers_map to start a pool
    import io

    for argv in (
        ["poly", "--n", "9", "--orbits"],
        ["poly", "--n", "16", "--orbits", "--group", "dihedral"],
        ["verify-paper", "--min", "5", "--max", "7", "--format", "json"],
    ):
        outs = []
        for threads in ("1", "2"):
            buf = io.StringIO()
            assert cli_main(argv + ["--threads", threads], out=buf) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
    _ok(7, "C<=f, orbit divisibility, PMC/coefficient identities, thread determinism")


def test_criterion_8_extension_dual_engine_smoke():
    jobs = os.cpu_count() or 1
    t0 = time.perf_counter()
    new_polys = {}
    for n in range(16, 21):
        g = build_gp(n, 2)
        ms = enumerate_perfect_matchings(g)
        results = forcing_numbers_map(g, ms, engine="both", jobs=jobs)
        coeffs = Counter(r.forcing_number for r in results)
        new_polys[n] = polynomial_text(dict(coeffs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"extension sweep took {elapsed:.1f}s, budget 300s"
    summary = "; ".join(f"n={n}: {p}" for n, p in new_polys.items())
    _ok(8, f"n=16..20 dual-engine agreement in {elapsed:.1f}s (< 300s): {summary}")
