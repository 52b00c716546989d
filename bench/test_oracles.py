"""The benchmark's oracles against brute force on small GP(n,2).

Run from the repository root:  python3 -m pytest bench/test_oracles.py -q
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

import oracles as o


def brute_matchings(n: int) -> list[int]:
    """Every n-edge subset of GP(n,2) that covers all 2n vertices."""
    ends = [o.edge_endpoints(n, e) for e in range(3 * n)]
    out = []
    for combo in combinations(range(3 * n), n):
        covered = {v for e in combo for v in ends[e]}
        if len(covered) == 2 * n:
            out.append(sum(1 << e for e in combo))
    return sorted(out)


def brute_forcing_number(matchings: list[int], m: int) -> int:
    medges = o.bits(m)
    for k in range(len(medges) + 1):
        for combo in combinations(medges, k):
            s = sum(1 << e for e in combo)
            if not any(x != m and x & s == s for x in matchings):
                return k
    raise AssertionError("a matching always forces itself")


def brute_cycle_count(n: int, d: int) -> int:
    """Connected components of the edge set d (each vertex has degree 2)."""
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for e in o.bits(d):
        a, b = o.edge_endpoints(n, e)
        parent[find(a)] = find(b)
    return len({find(v) for v in parent})


def brute_orbit_rows(n: int, matchings: list[int], fn: dict[int, int]) -> list[tuple]:
    """Rotation orbits found by relabelling vertex names, not by bit shifts."""

    def shifted(m: int, j: int) -> int:
        out = 0
        for e in o.bits(m):
            a, b = (f"{v[0]}{(int(v[1:]) + j) % n}" for v in o.edge_endpoints(n, e))
            out |= 1 << o.edge_between(n, a, b)
        return out

    rows, seen = [], set()
    for m in matchings:
        if m not in seen:
            orbit = {shifted(m, j) for j in range(n)}
            seen |= orbit
            rows.append((len(orbit), fn[m]))
    return sorted(rows)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_transfer_matrix_matches_brute_force(n):
    brute = brute_matchings(n)
    assert o.count_matchings(n) == len(brute)
    assert o.enumerate_matchings(n) == brute


def test_transfer_matrix_counts():
    assert [o.count_matchings(n) for n in (5, 6, 7)] == [6, 10, 15]
    assert o.count_matchings(16) == 193
    assert o.count_matchings(24) == 2414


@pytest.mark.parametrize("n", range(5, 21))
def test_enumeration_is_complete_and_valid(n):
    ms = o.enumerate_matchings(n)
    assert len(set(ms)) == len(ms) == o.count_matchings(n)
    assert all(o.is_perfect_matching(n, m) for m in ms)


def test_count_rejects_degenerate_n():
    with pytest.raises(ValueError):
        o.count_matchings(4)


@pytest.mark.parametrize("n", range(5, 13))
def test_containment_search_matches_brute_force(n):
    ms = o.enumerate_matchings(n)
    for m in ms:
        assert o.containment_forcing_number(ms, m) == brute_forcing_number(ms, m)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_single_cycle_partners_matches_brute_force(n):
    ms = o.enumerate_matchings(n)
    for m in ms:
        brute = sum(1 for x in ms if x != m and brute_cycle_count(n, x ^ m) == 1)
        assert o.single_cycle_partners(n, ms, m) == brute


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_transcription_matches_brute_force(n):
    ms = brute_matchings(n) if n <= 7 else o.enumerate_matchings(n)
    fn = {m: brute_forcing_number(ms, m) for m in ms}
    assert dict(Counter(fn.values())) == o.PAPER_POLYNOMIALS[n]
    assert brute_orbit_rows(n, ms, fn) == sorted(o.PAPER_ORBIT_ROWS[n])


@pytest.mark.parametrize("n", o.PAPER_RANGE)
def test_transcription_is_self_consistent(n):
    poly, rows = o.PAPER_POLYNOMIALS[n], o.PAPER_ORBIT_ROWS[n]
    assert sum(poly.values()) == o.count_matchings(n)
    tally: Counter = Counter()
    for size, f in rows:
        assert n % size == 0
        tally[f] += size
    assert dict(tally) == poly
    assert len(rows) == len(o.rotation_orbits(n, o.enumerate_matchings(n)))


def test_rotation_orbits_partition_the_matchings():
    n = 12
    ms = o.enumerate_matchings(n)
    orbits = o.rotation_orbits(n, ms)
    assert sorted(m for orbit in orbits for m in orbit) == ms
    assert all(o.rotate(n, orbit[0], n) == orbit[0] for orbit in orbits)


def test_edge_lookup_round_trips():
    n = 9
    for e in range(3 * n):
        a, b = o.edge_endpoints(n, e)
        assert o.edge_between(n, a, b) == o.edge_between(n, b, a) == e
    assert o.edge_between(n, "u0", "u1") is None
