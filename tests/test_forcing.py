"""Both forcing engines, alternating-cycle enumeration, cycle packings, and
the fork-and-pipe fan-out that shares items out to worker processes."""

import errno
import os
import signal
import subprocess
import sys
import time
from itertools import combinations

import pytest

from conftest import (
    GP24_MANY_CYCLES,
    assert_no_children,
    brute_force_matchings,
    brute_forcing_number,
    brute_max_packing,
    brute_single_cycle_partners,
    cycle_graph,
    reference_alternating_cycle_walker,
    reference_min_transversal,
    reference_orbits,
)
from gpforce import forcing
from gpforce.forcing import (
    AltCycle,
    _alternating_cycle_walker,
    _fan_out,
    alternating_cycle_keys,
    compute_forcing,
    cycles_of_keys,
    enumerate_alternating_cycles,
    forcing_number_by_hitting_set,
    forcing_number_by_subset_search,
    is_forcing,
    max_disjoint_alternating_cycles,
    max_disjoint_sets,
)
from gpforce.graphs import DomainError, Graph, build_gp
from gpforce.matchings import (
    count_matchings_containing,
    edge_indices,
    edge_set,
    enumerate_perfect_matchings,
    iter_bits,
    parse_matching,
    perfect_matchings,
)

# The five m1-alternating cycles of GP(5,2), straight from the published
# worked example, as (matched edge indices, vertex ids). Vertex v_i is 5+i.
M1_CYCLES = {
    (frozenset({0, 1, 10, 12}), frozenset({0, 1, 2, 3, 5, 6, 7, 8})),
    (frozenset({0, 1, 9, 12}), frozenset({0, 1, 2, 3, 4, 7, 8, 9})),
    (frozenset({0, 9, 10, 12}), frozenset({0, 2, 4, 5, 6, 7, 8, 9})),
    (frozenset({0, 1, 9, 10}), frozenset({0, 1, 2, 3, 4, 5, 6, 9})),
    (frozenset({1, 9, 10, 12}), frozenset({1, 3, 4, 5, 6, 7, 8, 9})),
}


def canonical_cycles(cycles):
    return {
        (frozenset(iter_bits(c.matched_edges)), frozenset(iter_bits(c.vertex_set)))
        for c in cycles
    }


def test_m1_alternating_cycles_match_published_list(gp52, gp52_matchings):
    cycles = enumerate_alternating_cycles(gp52, gp52_matchings["m1"])
    assert len(cycles) == 5
    assert canonical_cycles(cycles) == M1_CYCLES


def test_m6_alternating_cycles_match_published_family(gp52, gp52_matchings):
    # for the all-spokes matching: one 8-cycle per i, using spokes i..i+3
    # and omitting u_{i+4}, v_{i+4}
    expected = set()
    for i in range(5):
        matched = frozenset(5 + (i + d) % 5 for d in range(4))
        vertices = frozenset(range(10)) - {(i + 4) % 5, 5 + (i + 4) % 5}
        expected.add((matched, vertices))
    cycles = enumerate_alternating_cycles(gp52, gp52_matchings["m6"])
    assert len(cycles) == 5
    assert canonical_cycles(cycles) == expected


def test_cycles_are_even_and_alternating(gp52):
    for m in enumerate_perfect_matchings(build_gp(8, 2)):
        g = build_gp(8, 2)
        for c in enumerate_alternating_cycles(g, m):
            assert len(c.vertices) >= 4 and len(c.vertices) % 2 == 0
            assert c.matched_edges.bit_count() == len(c.vertices) // 2
            assert c.matched_edges & m == c.matched_edges
            assert c.edges & m == c.matched_edges
            # walk the stored sequence: edges must alternate in/out of m
            verts = list(c.vertices)
            walked = 0
            for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
                eid = g.find_edge(a, b)
                walked |= 1 << eid
                assert bool(m >> eid & 1) == (i % 2 == 0)
            assert walked == c.edges


def recursive_alternating_cycles(g, m):
    # reference enumerator: a recursive walk that carries the path, the edge
    # mask and the matched mask at every node, in the same canonical order
    partner = [-1] * g.num_vertices
    matched_edge_at = [-1] * g.num_vertices
    for eid in iter_bits(m):
        a, b = g.edges[eid]
        partner[a], partner[b] = b, a
        matched_edge_at[a] = matched_edge_at[b] = eid
    cycles = []

    for e0 in iter_bits(m):
        a, b = g.edges[e0]

        def walk(v, vmask, path, emask, mmask):
            for eid, w in g.incident[v]:
                if m >> eid & 1:
                    continue
                if w == a:
                    cycles.append(AltCycle(tuple(path), emask | 1 << eid, mmask, vmask))
                    continue
                if vmask >> w & 1:
                    continue
                ew = matched_edge_at[w]
                if ew <= e0:
                    continue
                x = partner[w]
                if vmask >> x & 1:
                    continue
                walk(
                    x,
                    vmask | (1 << w) | (1 << x),
                    path + [w, x],
                    emask | (1 << eid) | (1 << ew),
                    mmask | (1 << ew),
                )

        walk(b, (1 << a) | (1 << b), [a, b], 1 << e0, 1 << e0)

    cycles.sort(key=lambda c: (len(c.vertices), tuple(sorted(c.vertices)), c.edges))
    return cycles


def small_graphs():
    graphs = [build_gp(n, 2) for n in range(5, 15)]
    graphs += [build_gp(7, 3), build_gp(9, 4), build_gp(11, 3)]
    # a 4-cycle with edge 1-2 doubled: two of its cycles share one vertex
    # sequence, and the doubled pair is a cycle of two vertices
    graphs.append(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 2)]))
    # two disjoint 4-cycles: a seed in one cannot reach the other at all
    graphs.append(
        Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    )
    return graphs


def test_alternating_cycles_match_recursive_walker():
    # full AltCycle equality: vertex sequence and its orientation, edges,
    # matched edges, vertex set, and the order of the list
    for g in small_graphs():
        for m in enumerate_perfect_matchings(g):
            reference = recursive_alternating_cycles(g, m)
            assert enumerate_alternating_cycles(g, m) == reference, (g, m)


def test_cycle_enumeration_rejects_non_matching(gp52):
    with pytest.raises(DomainError):
        enumerate_alternating_cycles(gp52, edge_set([0, 1]))


def test_c4_has_one_alternating_cycle():
    g = cycle_graph(4)
    for m in enumerate_perfect_matchings(g):
        cycles = enumerate_alternating_cycles(g, m)
        assert len(cycles) == 1
        assert cycles[0].vertex_set == 0b1111


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_cycle_count_equals_single_cycle_partners(n):
    # each m-alternating cycle C pairs with the distinct perfect matching
    # m XOR C, so the cycle list must biject with single-cycle partners
    g = build_gp(n, 2)
    ms = enumerate_perfect_matchings(g)
    for m in ms:
        cycles = enumerate_alternating_cycles(g, m)
        partners = brute_single_cycle_partners(g, m, ms)
        assert len(cycles) == len(partners)
        assert {m ^ c.edges for c in cycles} == set(partners)


def canonical_fields(g, key):
    # (vertex count, sorted vertex tuple, edge set) of the key's cycle, the
    # vertices read from the endpoints of its edges rather than from the key
    edges = key & ((1 << g.num_edges) - 1)
    vertices = tuple(sorted({v for eid in iter_bits(edges) for v in g.edges[eid]}))
    return len(vertices), vertices, edges


def test_ascending_keys_give_the_canonical_order():
    # the walk's own keys sort as ints into the order that sorting their
    # cycles by (length, sorted vertex tuple, edge set) gives; the key's
    # count and vertex-set fields agree with the cycle's edges
    for g in small_graphs():
        n, e = g.num_vertices, g.num_edges
        for m in enumerate_perfect_matchings(g):
            keys = list(_alternating_cycle_walker(g, m)())
            for key in keys:
                count, vertices, _ = canonical_fields(g, key)
                assert key >> (n + e) == count, (g, m, key)
                reversed_set = sum(1 << (n - 1 - v) for v in vertices)
                assert key >> e & ((1 << n) - 1) == reversed_set ^ ((1 << n) - 1)
            by_fields = sorted(keys, key=lambda k: canonical_fields(g, k))
            assert sorted(keys) == by_fields, (g, m)


def walk_cases():
    # every matching of small_graphs(), and the three GP(24,2) matchings
    # with the most alternating cycles
    cases = [(g, enumerate_perfect_matchings(g)) for g in small_graphs()]
    g24 = build_gp(24, 2)
    cases.append((g24, [parse_matching(g24, text) for text in GP24_MANY_CYCLES.values()]))
    return cases


@pytest.mark.parametrize(
    "g, ms", [pytest.param(g, ms, id=repr(g)) for g, ms in walk_cases()]
)
def test_capped_walker_matches_filtered_full_list(g, ms):
    # every cap, with nothing avoided, with the witness (which leaves no
    # cycle) and with each of its edges alone (which leaves some); the walk
    # yields the reference walker's keys in its order
    shift = g.num_vertices + g.num_edges  # a key shifted by this is its length
    for m in ms:
        full = enumerate_alternating_cycles(g, m)
        keys = alternating_cycle_keys(g, m)  # keys[i] is the key of full[i]
        walk = _alternating_cycle_walker(g, m)
        reference = reference_alternating_cycle_walker(g, m)
        witness = forcing_number_by_hitting_set(g, m, keys).witness
        for avoid in (0, witness, *(1 << e for e in iter_bits(witness))):
            in_walk_order = list(walk(avoid=avoid))
            assert in_walk_order == list(reference(avoid=avoid)), (g, m, avoid)
            for cap in range(0, g.num_vertices + 3):
                capped = list(walk(cap, avoid))
                assert capped == list(reference(cap, avoid)), (g, m, avoid, cap)
                expected = [
                    key
                    for key, c in zip(keys, full)
                    if len(c.vertices) <= cap and not c.matched_edges & avoid
                ]
                assert sorted(capped) == expected, (g, m, avoid, cap)
                # a cap only cuts subtrees: the uncapped walk's order, filtered
                assert capped == [
                    k for k in in_walk_order if k >> shift <= cap
                ], (g, m, avoid, cap)
            uncapped = [k for k, c in zip(keys, full) if not c.matched_edges & avoid]
            assert sorted(in_walk_order) == uncapped


def key_of(g, cycle):
    # the canonical key of an AltCycle, from its vertex set and edges
    n = g.num_vertices
    reversed_set = sum(1 << (n - 1 - v) for v in cycle.vertices)
    head = len(cycle.vertices) << n | ((1 << n) - 1) ^ reversed_set
    return head << g.num_edges | cycle.edges


@pytest.mark.parametrize("n", [22, 24])
def test_capped_walk_matches_uncapped_order_on_orbit_representatives(n):
    # the distance bound and the per-seed level cap only drop paths that
    # cannot close within the cap: every even cap, with nothing avoided and
    # with the witness avoided, yields the reference walker's keys in its
    # order, the uncapped walk's keys of at most that length, in its order,
    # and the recursive walk's cycles. The witness comes from the full key
    # list, because the deepening never ends if a capped walk drops a cycle
    g = build_gp(n, 2)
    shift = g.num_vertices + g.num_edges
    ms = enumerate_perfect_matchings(g)
    for orbit in reference_orbits(g, ms, [0] * len(ms), group="dihedral"):
        m = orbit.representative
        walk = _alternating_cycle_walker(g, m)
        reference_walk = reference_alternating_cycle_walker(g, m)
        reference = recursive_alternating_cycles(g, m)
        witness = forcing_number_by_hitting_set(g, m, sorted(walk())).witness
        for avoid in (0, witness):
            in_walk_order = list(walk(avoid=avoid))
            keys = [key_of(g, c) for c in reference if not c.matched_edges & avoid]
            for cap in range(0, g.num_vertices + 1, 2):
                capped = list(walk(cap, avoid))
                assert capped == list(reference_walk(cap, avoid)), (m, avoid, cap)
                assert capped == [k for k in in_walk_order if k >> shift <= cap], (m, cap)
                assert sorted(capped) == [k for k in keys if k >> shift <= cap], (m, cap)


def test_deepening_matches_full_cycle_list():
    # forcing number and witness both: the deepening, over the walk and over
    # the key list, must pick the witness the search over every cycle picks
    for g in small_graphs():
        for m in enumerate_perfect_matchings(g):
            keys = alternating_cycle_keys(g, m)
            full = forcing_number_by_hitting_set(g, m, keys)
            assert full == reference_min_transversal(m, [k & m for k in keys]), (g, m)
            assert forcing_number_by_hitting_set(g, m) == full, (g, m)


def test_walk_meets_each_seeds_cycles_shortest_first():
    # a key's seed is the lowest matched edge of its cycle; in walk order,
    # the keys of one seed never get shorter (small_graphs holds GP(n,2)
    # for n = 5..14)
    for g in small_graphs():
        shift = g.num_vertices + g.num_edges
        for m in enumerate_perfect_matchings(g):
            last = {}  # seed -> length of its last key so far
            for key in _alternating_cycle_walker(g, m)():
                matched = key & m
                seed, length = matched & -matched, key >> shift
                assert length >= last.get(seed, 0), (g, m, key)
                last[seed] = length


def test_deepening_starts_one_capped_walk_per_round(monkeypatch):
    # each round walks the cycles up to one cap, and only the uncapped
    # checks look for an unhit cycle: no probe walks
    real = forcing._alternating_cycle_walker
    capped, uncapped = [], []

    def counted(g, m):
        walk = real(g, m)

        def counted_walk(cap=None, avoid=0):
            (uncapped if cap is None else capped).append(cap)
            return walk(cap, avoid)

        return counted_walk

    monkeypatch.setattr(forcing, "_alternating_cycle_walker", counted)
    for n in range(5, 16):
        g = build_gp(n, 2)
        for m in enumerate_perfect_matchings(g):
            capped.clear()
            uncapped.clear()
            forcing_number_by_hitting_set(g, m)
            assert len(capped) == len(uncapped) - 1, (n, m, capped)
            assert capped == sorted(set(capped)), (n, m, capped)  # caps rise


def test_cycles_of_keys_rejects_keys_that_are_not_cycles_of_m():
    # the keys of another matching's cycles, keys with no matched edge to
    # start from or no closing edge, and a cycle plus an edge off it raise
    # instead of walking forever or returning a wrong cycle
    g = build_gp(7, 2)
    ms = perfect_matchings(g)
    keys = alternating_cycle_keys(g, ms[5])
    assert cycles_of_keys(g, ms[5], keys)  # the keys of its own cycles rebuild
    with pytest.raises(DomainError):
        cycles_of_keys(g, ms[0], keys)
    for key, cycle in zip(keys, cycles_of_keys(g, ms[5], keys)):
        edges = key & ((1 << g.num_edges) - 1)
        off_cycle = [
            e for e, ends in enumerate(g.edges) if not set(ends) & set(cycle.vertices)
        ]
        strays = [edges & ~ms[5], edges & ms[5], *(key | 1 << e for e in off_cycle)]
        for stray in strays:
            with pytest.raises(DomainError):
                cycles_of_keys(g, ms[5], [stray])


def test_cycles_of_keys_rejects_a_vertex_field_that_is_not_the_paths():
    # the edges rebuild the path; a key whose vertex set or vertex count
    # disagrees with it raises instead of giving a cycle whose vertex_set is
    # not that of its vertices
    g = build_gp(7, 2)
    m = perfect_matchings(g)[5]
    first = alternating_cycle_keys(g, m)[0]
    (cycle,) = cycles_of_keys(g, m, [first])
    assert cycle.vertex_set == sum(1 << v for v in cycle.vertices)
    n, e = g.num_vertices, g.num_edges
    for flip in (*(1 << e + v for v in range(n)), 1 << e + n):
        with pytest.raises(DomainError):
            cycles_of_keys(g, m, [first ^ flip])


def test_cycles_of_keys_rejects_a_path_that_repeats_a_vertex():
    # matched 0-1, 2-3, 4-5, 6-7: from 1 the path goes 2, 3, back through 1
    # to 0, then 4, 5 and closes at 0 in the four steps that the key's four
    # matched edges allow; its 8 edges are the key's 8 edges, but vertices 0
    # and 1 come twice
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (3, 1), (0, 4), (5, 0)])
    m = 0b1111
    reversed_set = sum(1 << (7 - v) for v in range(6))
    key = (8 << 8 | 0xFF ^ reversed_set) << 8 | 0xFF
    with pytest.raises(DomainError):
        cycles_of_keys(g, m, [key])


def test_hitting_set_rejects_a_key_with_no_matched_edge():
    # no edge set can meet an empty mask, so the search would never end; and
    # the keys of a perfect matching given with an m that is not one
    g = build_gp(7, 2)
    m = perfect_matchings(g)[0]
    keys = alternating_cycle_keys(g, m)
    m5 = perfect_matchings(g)[5]
    cases = [(m, [1 << 200]), (m, keys + [keys[0] & ~m])]
    cases.append((m5 & (m5 - 1), alternating_cycle_keys(g, m5)))  # less its lowest edge
    for m, bad in cases:
        with pytest.raises(DomainError):
            forcing_number_by_hitting_set(g, m, bad)
        with pytest.raises(DomainError):
            compute_forcing(g, m, "hitting_set", bad)


def test_hitting_set_rejects_keys_that_do_not_ascend(deadline):
    # the round on the prefix up to the first unhit key's length misses that
    # key when longer keys come first, so the same witness leaves it unhit
    # and the deepening repeated that round forever
    g = build_gp(6, 2)
    m = 0x12264
    k = alternating_cycle_keys(g, m)
    assert forcing_number_by_hitting_set(g, m, k) == forcing_number_by_hitting_set(g, m)
    shuffled = [k[0], k[1], k[4], k[5], k[2], k[3], k[6]]
    with pytest.raises(DomainError, match="do not ascend"):
        forcing_number_by_hitting_set(g, m, shuffled)
    with pytest.raises(DomainError, match="do not ascend"):
        compute_forcing(g, m, "hitting_set", shuffled)


def test_hitting_set_checks_the_matching_once(monkeypatch, gp52, gp52_matchings):
    # without keys the walker checks m, with keys the hitting set does; a
    # set that is not a perfect matching gets the same error either way
    calls = []
    real = forcing.is_perfect_matching
    monkeypatch.setattr(
        forcing, "is_perfect_matching", lambda g, m: calls.append(m) or real(g, m)
    )
    m = gp52_matchings["m1"]
    keys = alternating_cycle_keys(gp52, m)
    for given in (None, keys):
        calls.clear()
        forcing_number_by_hitting_set(gp52, m, given)
        assert calls == [m], given
    four_spokes = edge_set([5, 6, 7, 8])
    for given in (None, []):
        with pytest.raises(DomainError, match="^not a perfect matching of this graph$"):
            forcing_number_by_hitting_set(gp52, four_spokes, given)


@pytest.mark.parametrize("n", range(15, 21))
def test_deepening_matches_full_cycle_list_on_orbit_representatives(n):
    g = build_gp(n, 2)
    ms = enumerate_perfect_matchings(g)
    for orbit in reference_orbits(g, ms, [0] * len(ms), group="dihedral"):
        m = orbit.representative
        keys = alternating_cycle_keys(g, m)
        full = forcing_number_by_hitting_set(g, m, keys)
        # both paths deepen, so the anchor is the search over the full list
        assert full == reference_min_transversal(m, [k & m for k in keys]), m
        assert forcing_number_by_hitting_set(g, m) == full, m


@pytest.mark.parametrize(
    "n, k", [*((n, 2) for n in range(21, 27)), (7, 3), (9, 4), (11, 3), (13, 5), (14, 3)]
)
def test_transversal_matches_incumbent_reference(monkeypatch, n, k):
    # every (masks, start k) that the deepenings over the walk and over the
    # key list hand the transversal on a dihedral orbit representative: the
    # same f and witness as the incumbent search, and no start above f; and
    # both deepenings give the incumbent search's answer on the full list.
    # Each round over the key list searches the cycles up to one length, and
    # some stop short of the longest, so that path deepens too
    calls = []
    transversal = forcing._min_transversal

    def recorded(masks, start):
        result = transversal(masks, start)
        calls.append((masks, start, result))
        return result

    monkeypatch.setattr(forcing, "_min_transversal", recorded)
    g = build_gp(n, k)
    shift = g.num_vertices + g.num_edges  # a key shifted by this is its length
    ms = enumerate_perfect_matchings(g)
    highest_start = short_rounds = 0
    for orbit in reference_orbits(g, ms, [0] * len(ms), group="dihedral"):
        m = orbit.representative
        keys = alternating_cycle_keys(g, m)
        full = [key & m for key in keys]
        calls.clear()
        listed = forcing_number_by_hitting_set(g, m, keys)
        for masks, _, _ in calls:
            end = len(masks)
            assert masks == full[:end], m
            assert end == len(keys) or keys[end] >> shift > keys[end - 1] >> shift, m
            short_rounds += end < len(keys)
        deepened = forcing_number_by_hitting_set(g, m)
        assert deepened == listed == reference_min_transversal(m, full), m
        for masks, start, (f, witness) in calls:
            assert (f, witness) == reference_min_transversal(m, masks), (m, start)
            assert witness.bit_count() == f
            assert start <= f, (m, start)
            highest_start = max(highest_start, start)
    assert highest_start > 0  # some round starts at the last round's f
    assert short_rounds > 0


def test_gp52_forcing_numbers_published(gp52, gp52_matchings):
    for m in gp52_matchings.values():
        assert forcing_number_by_hitting_set(gp52, m).forcing_number == 2
        assert forcing_number_by_subset_search(gp52, m).forcing_number == 2


def test_published_minimum_forcing_sets_are_found(gp52, gp52_matchings):
    r1 = forcing_number_by_hitting_set(gp52, gp52_matchings["m1"])
    assert edge_indices(r1.witness) == [0, 1]  # u0-u2, u1-u3
    r6 = forcing_number_by_hitting_set(gp52, gp52_matchings["m6"])
    assert edge_indices(r6.witness) == [5, 6]  # u0-v0, u1-v1
    s6 = forcing_number_by_subset_search(gp52, gp52_matchings["m6"])
    assert edge_indices(s6.witness) == [5, 6]


def test_unique_matching_forces_itself_with_nothing(k2):
    m = enumerate_perfect_matchings(k2)[0]
    for engine in (forcing_number_by_hitting_set, forcing_number_by_subset_search):
        result = engine(k2, m)
        assert result.forcing_number == 0
        assert result.witness == 0
    assert enumerate_alternating_cycles(k2, m) == []


def test_is_forcing_criteria_on_published_sets(gp52, gp52_matchings):
    m1 = gp52_matchings["m1"]
    single = parse_matching(gp52, "u0-u2")
    pair = parse_matching(gp52, "u0-u2,u1-u3")
    for criterion in ("uniqueness", "cycles"):
        assert not is_forcing(gp52, m1, single, criterion)
        assert is_forcing(gp52, m1, pair, criterion)
        assert is_forcing(gp52, m1, m1, criterion)


def test_is_forcing_rejects_non_subset(gp52, gp52_matchings):
    with pytest.raises(DomainError):
        is_forcing(gp52, gp52_matchings["m1"], edge_set([2]))
    with pytest.raises(DomainError):
        is_forcing(gp52, gp52_matchings["m1"], edge_set([0]), "nonsense")
    # four spokes u0-v0..u3-v3 are not a perfect matching, even of themselves
    four_spokes = edge_set([5, 6, 7, 8])
    for criterion in ("uniqueness", "cycles"):
        with pytest.raises(DomainError, match="not a perfect matching of this graph"):
            is_forcing(gp52, four_spokes, four_spokes, criterion)


def test_witnesses_are_minimal_and_forcing():
    for n in (5, 6, 7, 8):
        g = build_gp(n, 2)
        for m in enumerate_perfect_matchings(g):
            for result in (
                forcing_number_by_hitting_set(g, m),
                forcing_number_by_subset_search(g, m),
            ):
                w = result.witness
                assert w & m == w
                assert w.bit_count() == result.forcing_number
                assert is_forcing(g, m, w, "uniqueness")
                assert is_forcing(g, m, w, "cycles")


def test_engines_agree_with_brute_force():
    for build in (lambda: build_gp(5, 2), lambda: build_gp(6, 2), lambda: build_gp(7, 2)):
        g = build()
        ms = brute_force_matchings(g)
        for m in ms:
            expected = brute_forcing_number(g, m, ms)
            assert forcing_number_by_hitting_set(g, m).forcing_number == expected
            assert forcing_number_by_subset_search(g, m).forcing_number == expected


def count_based_subset_search(g, m):
    # reference search: lexicographic k-subsets, each tested by counting the
    # perfect matchings that contain it; shares no code with the scan
    medges = list(iter_bits(m))
    for k in range(len(medges) + 1):
        for combo in combinations(medges, k):
            s = edge_set(combo)
            if count_matchings_containing(g, s, limit=2) == 1:
                return k, s
    raise AssertionError("unreachable: a matching always forces itself")


def test_subset_search_matches_count_based_search():
    graphs = [build_gp(n, 2) for n in range(5, 15)]
    graphs += [build_gp(7, 3), build_gp(9, 4), build_gp(11, 3)]
    for g in graphs:
        for m in enumerate_perfect_matchings(g):
            result = forcing_number_by_subset_search(g, m)
            assert (result.forcing_number, result.witness) == count_based_subset_search(
                g, m
            ), (g, m)


def overlap_scan(g, m):
    # reference search: every k-subset of m in lexicographic order, tested
    # against the inclusion-maximal overlaps of the other matchings with m,
    # with no cut and no lower bound on k
    overlaps = {o & m for o in enumerate_perfect_matchings(g) if o != m}
    maximal = [q for q in overlaps if not any(q != p and q & ~p == 0 for p in overlaps)]
    medges = [1 << e for e in iter_bits(m)]
    for k in range(len(medges) + 1):
        for combo in combinations(medges, k):
            s = sum(combo)
            if all(s & ~q for q in maximal):
                return k, s
    raise AssertionError("unreachable: a matching always forces itself")


@pytest.mark.parametrize("n, k", [(n, 2) for n in range(15, 19)] + [(13, 5), (14, 3)])
def test_subset_search_matches_overlap_scan_on_orbit_representatives(n, k):
    # f and witness: the pruned search must stop at the scan's first success
    g = build_gp(n, k)
    ms = enumerate_perfect_matchings(g)
    for orbit in reference_orbits(g, ms, [0] * len(ms), group="dihedral"):
        m = orbit.representative
        result = forcing_number_by_subset_search(g, m)
        assert (result.forcing_number, result.witness) == overlap_scan(g, m), m


def rescanning_packing(cycles):
    # reference packing: the same branch and bound, but every node rescans the
    # whole cycle list from its start index against the chosen vertex union
    best = []

    def grow(start, used, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        candidates = [
            i for i in range(start, len(cycles)) if not cycles[i].vertex_set & used
        ]
        if len(chosen) + len(candidates) <= len(best):
            return
        for i in candidates:
            chosen.append(cycles[i])
            grow(i + 1, used | cycles[i].vertex_set, chosen)
            chosen.pop()

    grow(0, 0, [])
    return tuple(best)


def test_cycles_share_a_vertex_exactly_when_they_share_a_matched_edge():
    # the packing reads matched edges in place of vertex sets: each vertex
    # lies on its own matched edge, so both give the same disjoint pairs, and
    # a cycle has twice as many vertices as matched edges
    for g in small_graphs():
        for m in enumerate_perfect_matchings(g):
            cycles = enumerate_alternating_cycles(g, m)
            for c in cycles:
                assert c.vertex_set.bit_count() == 2 * c.matched_edges.bit_count()
            for c, d in combinations(cycles, 2):
                assert bool(c.vertex_set & d.vertex_set) == bool(
                    c.matched_edges & d.matched_edges
                ), (g, m, c, d)


def test_packing_rejects_an_empty_set():
    # the size bound divides by a set's size; no cycle has no matched edge
    with pytest.raises(DomainError):
        max_disjoint_sets([0b11, 0])


def test_packing_matches_rescanning_packing():
    graphs = [build_gp(n, 2) for n in range(5, 15)]
    graphs += [build_gp(7, 3), build_gp(9, 4), build_gp(11, 3)]
    for g in graphs:
        for m in enumerate_perfect_matchings(g):
            cycles = enumerate_alternating_cycles(g, m)
            packing = max_disjoint_alternating_cycles(cycles)
            assert packing == rescanning_packing(cycles), (g, m)


def node_bound_packing(cycles):
    # reference packing: the same branch and bound with one bound per node,
    # on all of its candidates, instead of one bound per branch
    best = ()

    def grow(candidates, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        if not candidates:
            return
        union = 0
        for c in candidates:
            union |= c.vertex_set
        room = union.bit_count() // len(candidates[0].vertices)
        if len(chosen) + min(len(candidates), room) <= len(best):
            return
        for j, c in enumerate(candidates):
            rest = [d for d in candidates[j + 1 :] if not d.vertex_set & c.vertex_set]
            grow(rest, chosen + (c,))

    grow(cycles, ())
    return best


def test_packing_stopped_at_the_forcing_number_is_the_unbounded_packing():
    # C <= f, and only a strictly larger family replaces the incumbent, so a
    # search that stops once it holds f sets returns the unbounded search's
    # family; some matchings have C = f, where the bound does stop it
    g24 = build_gp(24, 2)
    cases = [(g, m) for g in small_graphs() for m in enumerate_perfect_matchings(g)]
    cases += [(g24, parse_matching(g24, text)) for text in GP24_MANY_CYCLES.values()]
    stopped = 0
    for g, m in cases:
        keys = alternating_cycle_keys(g, m)
        masks = [key & m for key in keys]
        f = forcing_number_by_hitting_set(g, m, keys).forcing_number
        packing = max_disjoint_sets(masks)
        assert max_disjoint_sets(masks, f) == packing, (g, m)
        stopped += len(packing) == f > 0
    assert stopped > 0


@pytest.mark.parametrize("n_cycles", sorted(GP24_MANY_CYCLES))
def test_packing_matches_node_bound_packing_on_long_cycle_lists(n_cycles):
    g = build_gp(24, 2)
    cycles = enumerate_alternating_cycles(g, parse_matching(g, GP24_MANY_CYCLES[n_cycles]))
    assert len(cycles) == n_cycles
    assert max_disjoint_alternating_cycles(cycles) == node_bound_packing(cycles)


def test_gp52_packing_is_one_everywhere(gp52):
    for m in enumerate_perfect_matchings(gp52):
        packing = max_disjoint_alternating_cycles(enumerate_alternating_cycles(gp52, m))
        assert len(packing) == 1
        # and the packing really is disjoint
        used = 0
        for c in packing:
            assert not c.vertex_set & used
            used |= c.vertex_set


def test_k2_packing_empty(k2):
    m = enumerate_perfect_matchings(k2)[0]
    cycles = enumerate_alternating_cycles(k2, m)
    assert len(max_disjoint_alternating_cycles(cycles)) == 0


def test_gp10_spokes_packing_matches_exhaustive_oracle():
    g = build_gp(10, 2)
    spokes = edge_set(range(10, 20))
    cycles = enumerate_alternating_cycles(g, spokes)
    assert len(max_disjoint_alternating_cycles(cycles)) == brute_max_packing(cycles)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_packing_matches_exhaustive_oracle_everywhere(n):
    g = build_gp(n, 2)
    for m in enumerate_perfect_matchings(g):
        cycles = enumerate_alternating_cycles(g, m)
        assert len(max_disjoint_alternating_cycles(cycles)) == brute_max_packing(cycles)


def test_compute_forcing_dispatch(gp52, gp52_matchings):
    m = gp52_matchings["m1"]
    hit = forcing_number_by_hitting_set(gp52, m)
    assert compute_forcing(gp52, m, "hitting_set") == hit
    sub = forcing_number_by_subset_search(gp52, m)
    assert compute_forcing(gp52, m, "subset_search") == sub
    both = compute_forcing(gp52, m, "both")
    assert both == hit and both.forcing_number == 2
    with pytest.raises(DomainError):
        compute_forcing(gp52, m, "oracle")


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError instead of hanging past 60 s; the
    error interrupts a blocked read, so a fan-out still reaps its children."""

    def expire(signum, frame):
        raise TimeoutError("the test did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("jobs", [1, 2, 3, 20])
def test_fan_out_returns_the_serial_results_in_input_order(jobs, deadline):
    assert _fan_out(lambda x: (x, x * x), range(10), jobs) == [(x, x * x) for x in range(10)]
    assert _fan_out(str, [], jobs) == []
    assert_no_children()


@pytest.mark.parametrize("jobs", [1, 2, 3, 5])
def test_fan_out_raises_the_first_failing_item_in_input_order(jobs, deadline):
    # the shares are items[p::jobs]: at jobs 2 this process itself fails
    # first (item 4) while a child fails too (item 5); at 3 and 5 item 4
    # belongs to a child
    def fn(x):
        if x in (4, 5, 7):
            raise DomainError(f"item {x}")
        return x

    with pytest.raises(DomainError, match="^item 4$") as info:
        _fan_out(fn, range(10), jobs)
    if jobs in (3, 5):
        assert "DomainError: item 4" in str(info.value.__cause__)
    assert_no_children()


def test_fan_out_reports_a_child_killed_by_a_signal(deadline):
    caller = os.getpid()

    def fn(x):
        if x == 1 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match="killed by signal 9 before sending its results"):
        _fan_out(fn, range(6), 3)
    assert_no_children()


def test_fan_out_closes_the_pipe_when_a_fork_fails(monkeypatch, deadline):
    # the first fork succeeds and its child is killed and reaped; the second
    # raises, and neither end of its pipe stays open
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/dev/fd"))
    with pytest.raises(OSError):
        _fan_out(lambda x: x, range(10), 3)
    assert len(os.listdir("/dev/fd")) == open_fds
    assert_no_children()


def test_fan_out_without_fork_runs_serially(monkeypatch, deadline):
    monkeypatch.delattr(os, "fork")
    assert _fan_out(lambda x: (x, x * x), range(10), 3) == [(x, x * x) for x in range(10)]
    assert_no_children()


def test_fan_out_kills_the_children_when_its_own_share_is_interrupted(deadline):
    class Interrupt(BaseException):
        pass

    caller = os.getpid()

    def fn(x):
        if os.getpid() == caller:
            raise Interrupt
        time.sleep(50)

    start = time.monotonic()
    with pytest.raises(Interrupt):
        _fan_out(fn, range(4), 4)
    assert time.monotonic() - start < 20
    assert_no_children()


def modules_added(snippet: str) -> set[str]:
    """The modules that running `snippet` adds to sys.modules in a fresh
    interpreter; those that site loaded at start-up are not counted."""
    code = (
        "import sys; before = set(sys.modules)\n"
        f"{snippet}\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def assert_none_loaded(added: set[str], names: list[str]):
    assert sorted(m for m in added if m.split(".")[0] in names) == []


def test_import_loads_no_process_pool():
    # nor any module that only the fan-out, a crash, the statistics or a
    # JSON rendering uses; the gpforce submodules all load eagerly
    added = modules_added("import gpforce")
    assert_none_loaded(
        added,
        ["multiprocessing", "concurrent", "dataclasses", "inspect", "pickle",
         "signal", "traceback", "fractions", "json", "argparse"],
    )
    assert sorted(m for m in added if m.split(".")[0] == "gpforce") == [
        "gpforce", "gpforce.forcing", "gpforce.graphs", "gpforce.matchings",
        "gpforce.polynomial", "gpforce.tables",
    ]


def test_force_command_loads_only_what_it_runs():
    added = modules_added(
        "import io, gpforce.cli\n"
        "assert gpforce.cli.main(['force', '--n', '5', '--matching',"
        " 'u0-v0,u1-v1,u2-v2,u3-v3,u4-v4'], io.StringIO()) == 0"
    )
    assert_none_loaded(
        added,
        ["dataclasses", "inspect", "pickle", "signal", "traceback", "fractions"],
    )
    assert "gpforce.cli" in added
