"""Property tests: engine equivalences and structural invariants.

The headline property: a subset of a matching is forcing under the
uniqueness criterion exactly when it hits every alternating cycle. A seeded
bulk test drives that through ten thousand random subsets, and hypothesis
shrinks any counterexample it finds on the smaller cases.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_orbits
from gpforce.forcing import (
    enumerate_alternating_cycles,
    forcing_number_by_hitting_set,
    forcing_number_by_subset_search,
    is_forcing,
    max_disjoint_alternating_cycles,
)
from gpforce.graphs import build_gp, symmetry_images
from gpforce.matchings import (
    count_matchings_containing,
    enumerate_perfect_matchings,
    is_perfect_matching,
    iter_bits,
)

_GRAPH_CACHE = {}


def graph_and_matchings(n, k=2):
    if (n, k) not in _GRAPH_CACHE:
        g = build_gp(n, k)
        _GRAPH_CACHE[n, k] = (g, enumerate_perfect_matchings(g))
    return _GRAPH_CACHE[n, k]


def random_subset(rng, m):
    s = 0
    for eid in iter_bits(m):
        if rng.random() < 0.5:
            s |= 1 << eid
    return s


def test_forcing_criteria_agree_on_ten_thousand_random_subsets():
    rng = random.Random(20240517)
    cycles_cache = {}
    trials_per_n = 10_000 // 6
    for n in range(5, 11):
        g, ms = graph_and_matchings(n)
        for _ in range(trials_per_n):
            m = ms[rng.randrange(len(ms))]
            s = random_subset(rng, m)
            if (n, m) not in cycles_cache:
                cycles_cache[(n, m)] = enumerate_alternating_cycles(g, m)
            by_cycles = all(c.matched_edges & s for c in cycles_cache[(n, m)])
            by_uniqueness = count_matchings_containing(g, s, limit=2) == 1
            assert by_cycles == by_uniqueness, (n, m, s)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=5, max_value=8))
def test_forcing_criteria_agree_hypothesis(data, n):
    g, ms = graph_and_matchings(n)
    m = data.draw(st.sampled_from(ms))
    edges = list(iter_bits(m))
    chosen = data.draw(st.sets(st.sampled_from(edges)))
    s = sum(1 << e for e in chosen)
    assert is_forcing(g, m, s, "uniqueness") == is_forcing(g, m, s, "cycles")


@pytest.mark.parametrize("n", range(5, 11))
def test_packing_bounds_forcing_number_below(n):
    g, ms = graph_and_matchings(n)
    for m in ms:
        c = len(max_disjoint_alternating_cycles(enumerate_alternating_cycles(g, m)))
        f = forcing_number_by_hitting_set(g, m).forcing_number
        assert c <= f


@pytest.mark.parametrize("n", range(5, 9))
def test_engines_agree(n):
    g, ms = graph_and_matchings(n)
    for m in ms:
        assert (
            forcing_number_by_hitting_set(g, m).forcing_number
            == forcing_number_by_subset_search(g, m).forcing_number
        )


@pytest.mark.parametrize("n", range(5, 9))
def test_no_smaller_subset_forces(n):
    # scanning all (f-1)-subsets in lexicographic order must find nothing
    from itertools import combinations

    g, ms = graph_and_matchings(n)
    for m in ms:
        f = forcing_number_by_hitting_set(g, m).forcing_number
        if f == 0:
            continue
        edges = list(iter_bits(m))
        for combo in combinations(edges, f - 1):
            s = sum(1 << e for e in combo)
            assert not is_forcing(g, m, s, "uniqueness")


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    nk=st.sampled_from(
        [(5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (7, 3), (7, 5), (9, 4), (11, 7), (13, 8)]
    ),
    j=st.integers(min_value=0, max_value=25),
)
def test_rotation_preserves_matchings_and_forcing(data, nk, j):
    # every dihedral image, the rotations (j < n) and the reflections (j >= n)
    g, ms = graph_and_matchings(*nk)
    m = data.draw(st.sampled_from(ms))
    image = symmetry_images(g)(m)[j % (2 * nk[0])]
    assert is_perfect_matching(g, image)
    assert image in set(ms)
    assert (
        forcing_number_by_hitting_set(g, m).forcing_number
        == forcing_number_by_hitting_set(g, image).forcing_number
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=5, max_value=8))
def test_count_containing_matches_list_scan(data, n):
    g, ms = graph_and_matchings(n)
    m = data.draw(st.sampled_from(ms))
    edges = list(iter_bits(m))
    chosen = data.draw(st.sets(st.sampled_from(edges)))
    s = sum(1 << e for e in chosen)
    expected = sum(1 for mm in ms if mm & s == s)
    assert count_matchings_containing(g, s) == expected


def test_counting_beyond_64_vertices():
    # 64 vertices: masks wider than a machine word; containing every spoke
    # pins the unique matching
    g = build_gp(32, 2)
    assert g.num_vertices == 64
    spokes = sum(1 << (32 + i) for i in range(32))
    assert count_matchings_containing(g, spokes, limit=2) == 1
    assert is_forcing(g, spokes, spokes, "uniqueness")
    almost = spokes & ~(1 << 32)  # drop spoke u0-v0
    assert count_matchings_containing(g, almost, limit=2) == 1


@pytest.mark.parametrize("n,k", [(7, 3), (9, 4), (11, 3)])
def test_engines_and_orbits_for_other_skips(n, k):
    # nothing published to compare against off the k=2 family, so agreement
    # of the two engines and the orbit identities carry the whole check
    g = build_gp(n, k)
    ms = enumerate_perfect_matchings(g)
    assert ms
    from gpforce.polynomial import analyze, matching_orbits, orbit_polynomial

    fns = []
    for m in ms:
        hit = forcing_number_by_hitting_set(g, m)
        sub = forcing_number_by_subset_search(g, m)
        assert hit.forcing_number == sub.forcing_number
        fns.append(hit.forcing_number)
    orbits = matching_orbits(g, analyze(g), group="rotation")
    assert orbits == reference_orbits(g, ms, fns, group="rotation")
    assert sum(o.size for o in orbits) == len(ms)
    assert all(n % o.size == 0 for o in orbits)
    per_fn = orbit_polynomial(orbits).coeffs
    assert sum(per_fn.values()) == len(ms)


@pytest.mark.parametrize("n", range(5, 10))
def test_alternating_cycles_bounded_by_matching_count(n):
    # each cycle flips to a distinct other perfect matching
    g, ms = graph_and_matchings(n)
    for m in ms:
        cycles = enumerate_alternating_cycles(g, m)
        assert len(cycles) <= len(ms) - 1
        flipped = {m ^ c.edges for c in cycles}
        assert len(flipped) == len(cycles)
        assert flipped <= set(ms)
