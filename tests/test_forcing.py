"""Both forcing engines, alternating-cycle enumeration, cycle packings, and
the fork-and-pipe fan-out that shares items out to worker processes."""

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
    reference_orbits,
)
from gpforce.forcing import (
    AltCycle,
    _alternating_cycle_walker,
    _fan_out,
    alternating_cycle_keys,
    compute_forcing,
    enumerate_alternating_cycles,
    forcing_number_by_hitting_set,
    forcing_number_by_subset_search,
    is_forcing,
    max_disjoint_alternating_cycles,
)
from gpforce.graphs import DomainError, Graph, build_gp
from gpforce.matchings import (
    count_matchings_containing,
    edge_indices,
    edge_set,
    enumerate_perfect_matchings,
    iter_bits,
    parse_matching,
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


@pytest.mark.parametrize("g", small_graphs(), ids=repr)
def test_capped_walker_matches_filtered_full_list(g):
    # every cap, with nothing avoided, with the witness (which leaves no
    # cycle) and with each of its edges alone (which leaves some)
    for m in enumerate_perfect_matchings(g):
        full = enumerate_alternating_cycles(g, m)
        keys = alternating_cycle_keys(g, m)  # keys[i] is the key of full[i]
        walk = _alternating_cycle_walker(g, m)
        witness = forcing_number_by_hitting_set(g, m, keys).witness
        for avoid in (0, witness, *(1 << e for e in iter_bits(witness))):
            for cap in range(0, g.num_vertices + 3):
                expected = [
                    key
                    for key, c in zip(keys, full)
                    if len(c.vertices) <= cap and not c.matched_edges & avoid
                ]
                assert sorted(walk(cap, avoid)) == expected, (g, m, avoid, cap)
            uncapped = [k for k, c in zip(keys, full) if not c.matched_edges & avoid]
            assert sorted(walk(avoid=avoid)) == uncapped


def test_deepening_matches_full_cycle_list():
    # forcing number and witness both: the deepening must pick the witness
    # the search over every cycle picks
    for g in small_graphs():
        for m in enumerate_perfect_matchings(g):
            full = forcing_number_by_hitting_set(g, m, alternating_cycle_keys(g, m))
            assert forcing_number_by_hitting_set(g, m) == full, (g, m)


@pytest.mark.parametrize("n", range(15, 21))
def test_deepening_matches_full_cycle_list_on_orbit_representatives(n):
    g = build_gp(n, 2)
    ms = enumerate_perfect_matchings(g)
    for orbit in reference_orbits(g, ms, [0] * len(ms), group="dihedral"):
        m = orbit.representative
        full = forcing_number_by_hitting_set(g, m, alternating_cycle_keys(g, m))
        assert forcing_number_by_hitting_set(g, m) == full, m


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
    error interrupts a blocked read, so the fan-out still reaps its children."""

    def expire(signum, frame):
        raise TimeoutError("the fan-out did not return within 60 s")

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
