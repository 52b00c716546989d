"""Perfect-matching enumeration and the forced-subset counting primitive."""

import pytest

from conftest import brute_force_matchings, cycle_graph, path_graph
from gpforce.graphs import DomainError, Graph, build_gp
from gpforce.matchings import (
    count_matchings_containing,
    covered_vertices,
    edge_indices,
    edge_set,
    enumerate_perfect_matchings,
    is_perfect_matching,
    matching_text,
    parse_matching,
)
from gpforce.polynomial import analyze


def test_gp52_has_exactly_the_six_published_matchings(gp52, gp52_matchings):
    ms = enumerate_perfect_matchings(gp52)
    assert ms == sorted(gp52_matchings.values())
    assert len(ms) == 6


def test_gp15_matching_count():
    assert len(enumerate_perfect_matchings(build_gp(15, 2))) == 144


def test_single_edge_graph(k2):
    assert enumerate_perfect_matchings(k2) == [1]


def test_no_perfect_matching_cases():
    assert enumerate_perfect_matchings(path_graph(3)) == []
    assert enumerate_perfect_matchings(cycle_graph(5)) == []


@pytest.mark.parametrize(
    "g_factory",
    [
        lambda: path_graph(2),
        lambda: cycle_graph(4),
        lambda: cycle_graph(6),
        lambda: path_graph(6),
        lambda: build_gp(5, 2),
        lambda: build_gp(6, 2),
        lambda: build_gp(7, 2),
        lambda: build_gp(7, 3),
    ],
)
def test_enumeration_matches_brute_force(g_factory):
    g = g_factory()
    assert enumerate_perfect_matchings(g) == brute_force_matchings(g)


def test_every_enumerated_matching_is_perfect(gp52):
    for m in enumerate_perfect_matchings(build_gp(9, 2)):
        assert is_perfect_matching(build_gp(9, 2), m)
    for m in enumerate_perfect_matchings(gp52):
        assert is_perfect_matching(gp52, m)


def test_enumeration_is_deterministic():
    g = build_gp(10, 2)
    assert enumerate_perfect_matchings(g) == enumerate_perfect_matchings(g)


def test_count_published_memberships(gp52):
    # each edge of m1 lies in exactly one other matching
    for name in ("u0-u2", "u1-u3", "u4-v4", "v0-v1", "v2-v3"):
        s = parse_matching(gp52, name)
        assert count_matchings_containing(gp52, s) == 2
    # the published minimum forcing sets are contained in one matching only
    assert count_matchings_containing(gp52, parse_matching(gp52, "u0-u2,u1-u3")) == 1
    assert count_matchings_containing(gp52, parse_matching(gp52, "u0-v0,u1-v1")) == 1
    # spokes are shared between m6 and one rotated partner each
    for i in range(5):
        assert count_matchings_containing(gp52, edge_set([5 + i])) == 2


def test_count_with_empty_set_is_total(gp52):
    assert count_matchings_containing(gp52, 0) == 6
    assert count_matchings_containing(gp52, 0, limit=4) == 4
    assert count_matchings_containing(gp52, 0, limit=2) == 2


def test_count_rejects_overlapping_edges(gp52):
    s = edge_set([gp52.find_edge(0, 2), gp52.find_edge(2, 4)])  # share u2
    with pytest.raises(DomainError):
        count_matchings_containing(gp52, s)


def test_count_rejects_bad_limit(gp52):
    with pytest.raises(DomainError):
        count_matchings_containing(gp52, 0, limit=0)


def test_count_agrees_with_enumeration_per_edge():
    # membership counted by deletion equals membership in the enumerated list
    for n in (5, 6, 7):
        g = build_gp(n, 2)
        ms = enumerate_perfect_matchings(g)
        for eid in range(g.num_edges):
            expected = sum(1 for m in ms if m >> eid & 1)
            assert count_matchings_containing(g, 1 << eid) == expected


# Perfect-matching counts of GP(n,2), n = 16..32, from the transfer-matrix
# count in the benchmark's oracles (bench/oracles.py), which shares no code
# with gpforce; brute force stops at n = 7.
GP_N2_COUNTS = dict(
    zip(
        range(16, 33),
        (193, 273, 370, 495, 684, 942, 1277, 1749, 2414, 3306, 4525, 6232,
         8577, 11775, 16200, 22321, 30721),
    )
)


@pytest.mark.parametrize("n", sorted(GP_N2_COUNTS))
def test_enumeration_count_beyond_brute_force(n):
    assert len(enumerate_perfect_matchings(build_gp(n, 2))) == GP_N2_COUNTS[n]


@pytest.mark.parametrize("n", [16, 24])
def test_count_with_empty_set_beyond_brute_force(n):
    assert count_matchings_containing(build_gp(n, 2), 0) == GP_N2_COUNTS[n]


def test_count_needs_no_recursion():
    # 1500 matched edges deep: a recursive search overflows the stack here
    assert count_matchings_containing(build_gp(1500, 2), 0, limit=1) == 1


def test_is_perfect_matching_edges(gp52, gp52_matchings):
    assert is_perfect_matching(gp52, gp52_matchings["m6"])
    assert not is_perfect_matching(gp52, edge_set([0]))  # u0-u2 leaves gaps
    overlapping = edge_set([gp52.find_edge(0, 2), gp52.find_edge(2, 4)])
    assert not is_perfect_matching(gp52, overlapping)
    assert not is_perfect_matching(gp52, gp52_matchings["m6"] | 1 << 15)  # no edge 15


@pytest.mark.parametrize("edges", [[(-1, 0), (0, 1)], [(0, 5), (0, 1)]])
def test_endpoint_out_of_range_is_a_domain_error(edges):
    # validate reports such an edge; the matching checks must not crash on it
    g = Graph.from_edges(2, edges)
    with pytest.raises(DomainError, match="out of range"):
        covered_vertices(g, 1)
    with pytest.raises(DomainError, match="out of range"):
        count_matchings_containing(g, 1)
    assert not is_perfect_matching(g, 1)
    assert is_perfect_matching(g, 2)


def test_a_self_loop_is_never_a_matching_edge():
    # validate reports the loop; a vertex must not be matched to itself
    g = Graph.from_edges(3, [(0, 0), (1, 2)])
    assert enumerate_perfect_matchings(g) == []
    assert not is_perfect_matching(g, 3)
    for call in (covered_vertices, count_matchings_containing):
        with pytest.raises(DomainError, match="self-loop at vertex 0"):
            call(g, 1)
    assert count_matchings_containing(g, 2) == 0
    assert analyze(g) == []
    # next to a real edge at the same vertex, the loop is skipped
    assert enumerate_perfect_matchings(Graph.from_edges(2, [(0, 0), (0, 1)])) == [2]


@pytest.mark.parametrize("s", [1 << 15, 1 << 100, -1, -(1 << 15)], ids=hex)
def test_edge_set_outside_the_graph_is_a_domain_error(gp52, s):
    # GP(5,2) has edges 0..14; a negative int has infinitely many set bits
    for call in (covered_vertices, count_matchings_containing, matching_text):
        with pytest.raises(DomainError, match="not a set of g's 15 edges"):
            call(gp52, s)
    assert not is_perfect_matching(gp52, s)


def test_text_forms_roundtrip(gp52, gp52_matchings):
    m1 = gp52_matchings["m1"]
    text = matching_text(gp52, m1)
    assert text == "u0-u2,u1-u3,u4-v4,v0-v1,v2-v3"
    assert parse_matching(gp52, text) == m1
    assert edge_indices(m1) == [0, 1, 9, 10, 12]


def test_parse_rejects_garbage(gp52):
    with pytest.raises(DomainError):
        parse_matching(gp52, "u0-u1")  # not an edge of GP(5,2)
    with pytest.raises(DomainError):
        parse_matching(gp52, "u0u2")
    with pytest.raises(DomainError):
        parse_matching(gp52, "u0-u2,u0-u2")
