"""Graph construction, validation, and the rotation/reflection symmetries."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    reference_images,
    symmetry_edge_permutations,
    vertex_map_edge_permutation,
)
from gpforce.graphs import DomainError, Graph, build_gp, symmetry_images, validate
from gpforce.matchings import enumerate_perfect_matchings
from gpforce.polynomial import matching_orbits


def test_gp52_shape(gp52):
    assert gp52.num_vertices == 10
    assert gp52.num_edges == 15
    assert all(gp52.degree(v) == 3 for v in range(10))
    assert gp52.gp_params == (5, 2)


def test_gp12_shape():
    g = build_gp(12, 2)
    assert g.num_vertices == 24
    assert g.num_edges == 36
    assert all(g.degree(v) == 3 for v in range(24))


def test_canonical_edge_layout(gp52):
    n = 5
    # inner block, then spokes, then outer ring
    assert gp52.edges[0] == (0, 2)          # u0-u2
    assert gp52.edges[3] == (0, 3)          # u3-u0 stored sorted
    assert gp52.edges[n + 4] == (4, 9)      # u4-v4
    assert gp52.edges[2 * n] == (5, 6)      # v0-v1
    assert gp52.edges[2 * n + 4] == (5, 9)  # v4-v0 wraps


@pytest.mark.parametrize(
    "n,k", [(4, 1), (3, 2), (6, 3), (8, 4), (5, 0), (5, 5), (5, -1)]
)
def test_build_gp_rejects_bad_params(n, k):
    with pytest.raises(DomainError):
        build_gp(n, k)


def test_validate_clean_graphs(gp52):
    assert validate(gp52) == []
    assert validate(build_gp(15, 2)) == []
    assert validate(build_gp(7, 3)) == []


def test_validate_reports_parallel_edge():
    g = Graph.from_edges(4, [(0, 1), (0, 1), (2, 3)])
    problems = validate(g)
    assert any("parallel edge" in p for p in problems)


def test_validate_reports_self_loop():
    g = Graph.from_edges(3, [(0, 0), (1, 2)])
    assert any("self-loop" in p for p in validate(g))


def test_vertex_names_and_parsing(gp52):
    assert gp52.vertex_name(0) == "u0"
    assert gp52.vertex_name(7) == "v2"
    assert gp52.parse_vertex("v4") == 9
    with pytest.raises(DomainError):
        gp52.parse_vertex("w1")
    with pytest.raises(DomainError):
        gp52.parse_vertex("u7")


@pytest.mark.parametrize("name", ["u\u00b2", "v\u0663"])
def test_vertex_names_take_ascii_digits_only(gp52, name):
    # "\u00b2" (superscript two) passes str.isdigit but not int, and "\u0663"
    # (Arabic-Indic three) passes both; neither names a vertex
    with pytest.raises(DomainError):
        gp52.parse_vertex(name)
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DomainError):
        g.parse_vertex(name[1:])


def test_edge_names(gp52):
    assert gp52.edge_name(0) == "u0-u2"
    assert gp52.edge_name(9) == "u4-v4"
    assert gp52.edge_name(14) == "v0-v4"


def arithmetic_rotation(n: int, eid: int, j: int) -> int:
    """Reference: the image of an edge index under the rotation by j, by index
    arithmetic on the [inner | spokes | outer] layout."""
    cls, i = divmod(eid, n)
    return cls * n + (i + j) % n


def group_images(g: Graph, group: str):
    """symmetry_images(g) cut to the group: the rotations are its first n
    images."""
    images = symmetry_images(g)
    if group == "rotation":
        n = g.gp_params[0]
        return lambda s: images(s)[:n]
    return images


def image_tables(g: Graph, group: str) -> list[tuple[int, ...]]:
    """The edge permutation of each group element, read off the images of
    single edges under symmetry_images."""
    images = group_images(g, group)
    columns = [images(1 << e) for e in range(g.num_edges)]
    assert all(x.bit_count() == 1 for col in columns for x in col)
    return [
        tuple(col[p].bit_length() - 1 for col in columns) for p in range(len(columns[0]))
    ]


def test_rotation_identity_and_shift(gp52):
    rotations = group_images(gp52, "rotation")
    assert rotations(1 << 7)[0] == 1 << 7
    assert rotations(1 << 0)[1] == 1 << 1     # inner i=0 -> i=1
    assert rotations(1 << 14)[1] == 1 << 10   # outer i=4 wraps to i=0
    assert rotations(1 << 9)[2] == 1 << 6     # spoke i=4 -> i=1


def test_rotation_requires_gp(k2):
    with pytest.raises(DomainError, match="only defined for GP graphs"):
        symmetry_images(k2)


def test_rotations_match_index_arithmetic():
    for n in range(5, 17):
        for k in range(1, n):
            if 2 * k == n:
                continue
            g = build_gp(n, k)
            expected = [
                tuple(arithmetic_rotation(n, e, j) for e in range(g.num_edges))
                for j in range(n)
            ]
            assert image_tables(g, "rotation") == expected, (n, k)


@given(
    n=st.integers(min_value=5, max_value=12),
    k=st.integers(min_value=1, max_value=11),
    j1=st.integers(min_value=0, max_value=11),
    j2=st.integers(min_value=0, max_value=11),
)
def test_rotation_bijection_and_composition(n, k, j1, j2):
    if not 1 <= k <= n - 1 or 2 * k == n:
        return
    g = build_gp(n, k)
    j1, j2 = j1 % n, j2 % n
    rotations = image_tables(g, "rotation")
    p1 = rotations[j1]
    assert sorted(p1) == list(range(g.num_edges))
    composed = tuple(rotations[j2][p1[e]] for e in range(g.num_edges))
    assert composed == rotations[(j1 + j2) % n]


@pytest.mark.parametrize("n,k", [(5, 2), (8, 2), (9, 2), (7, 3), (11, 4)])
def test_rotation_is_an_automorphism(n, k):
    # each rotation's vertex map carries every edge to an edge (the reference
    # raises otherwise), and the block images move edges exactly as it does
    g = build_gp(n, k)
    rotations = image_tables(g, "rotation")
    for j in range(n):
        vmap = [(v + j) % n if v < n else n + ((v - n) + j) % n for v in range(2 * n)]
        assert vertex_map_edge_permutation(g, vmap) == rotations[j]


def test_reflection_is_an_automorphism(gp52):
    reflections = image_tables(gp52, "dihedral")[5:]
    assert len(reflections) == 5
    assert reflections == symmetry_edge_permutations(gp52, "dihedral")[5:]
    for perm in reflections:
        assert sorted(perm) == list(range(15))
        # reflecting twice is the identity
        assert tuple(perm[perm[e]] for e in range(15)) == tuple(range(15))


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (12, 2), (13, 5)])
def test_dihedral_group_is_closed(n, k):
    g = build_gp(n, k)
    perms = image_tables(g, "dihedral")
    assert len(perms) == len(set(perms)) == 2 * n
    assert perms[:n] == image_tables(g, "rotation")
    group = set(perms)
    for p in perms:
        for q in perms:
            assert tuple(q[p[e]] for e in range(g.num_edges)) in group


@pytest.mark.parametrize("group", ["rotation", "dihedral"])
@pytest.mark.parametrize(
    "n,k", [(5, 1), (5, 2), (7, 3), (7, 5), (9, 4), (11, 7), (12, 5), (13, 8), (16, 9)]
)
def test_block_images_match_vertex_maps(n, k, group):
    g = build_gp(n, k)
    images = group_images(g, group)
    rng = random.Random(n * 100 + k)
    ms = enumerate_perfect_matchings(g)
    sample = [0, (1 << g.num_edges) - 1, *rng.sample(ms, min(len(ms), 8))]
    sample += [rng.getrandbits(g.num_edges) for _ in range(8)]
    for s in sample:
        assert images(s) == reference_images(g, group, s), (s, group)


def test_non_automorphism_vertex_map_raises(gp52):
    vmap = list(range(10))
    vmap[0], vmap[5] = 5, 0  # swap u0 and v0: u0-u2 would go to v0-u2
    with pytest.raises(DomainError):
        vertex_map_edge_permutation(gp52, vmap)


def test_symmetry_group_sizes(gp52):
    assert len(symmetry_images(gp52)(1)) == 10
    assert len(image_tables(gp52, "rotation")) == 5
    assert len(set(image_tables(gp52, "dihedral"))) == 10
    # matching_orbits is the one function that still takes a group
    with pytest.raises(DomainError, match="unknown symmetry group 'frieze'"):
        matching_orbits(gp52, [], group="frieze")


def test_dot_export(gp52):
    dot = gp52.to_dot()
    lines = dot.strip().splitlines()
    assert lines[0] == "graph gp_5_2 {"
    assert "  u0 -- u2;" in lines
    assert "  v0 -- v4;" in lines
    assert len([ln for ln in lines if "--" in ln]) == 15


def test_json_dump_roundtrip(gp52):
    data = gp52.to_json_dict()
    assert data["n"] == 5 and data["k"] == 2
    assert len(data["edges"]) == 15
    assert data["edges"][0] == ["u0", "u2"]
    assert json.loads(json.dumps(data)) == data
