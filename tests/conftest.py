"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's search code: matchings are
enumerated by scanning raw edge combinations, and forcing numbers are derived
by testing subset containment against that full matching list. They are slow
and only used at small sizes, which is exactly the point.
"""

import os
from itertools import combinations

import pytest

from gpforce.graphs import Graph, build_gp
from gpforce.matchings import iter_bits, parse_matching
from gpforce.polynomial import Orbit


@pytest.fixture(scope="session")
def gp52():
    return build_gp(5, 2)


@pytest.fixture(scope="session")
def gp52_matchings(gp52):
    """The six perfect matchings of GP(5,2), in published naming (m1..m6)."""
    texts = {
        "m1": "u0-u2,u1-u3,u4-v4,v0-v1,v2-v3",
        "m2": "u1-u3,u2-u4,u0-v0,v1-v2,v3-v4",
        "m3": "u2-u4,u0-u3,u1-v1,v2-v3,v0-v4",
        "m4": "u0-u3,u1-u4,u2-v2,v3-v4,v0-v1",
        "m5": "u1-u4,u0-u2,u3-v3,v0-v4,v1-v2",
        "m6": "u0-v0,u1-v1,u2-v2,u3-v3,u4-v4",
    }
    return {name: parse_matching(gp52, text) for name, text in texts.items()}


# the three dihedral orbit representatives of GP(24,2) with the most
# alternating cycles, where the per-branch bound cuts the most
GP24_MANY_CYCLES = {
    2407: "u1-u3,u4-u6,u7-u9,u10-u12,u13-u15,u16-u18,u19-u21,u0-u22,u2-v2,u5-v5,"
    "u8-v8,u11-v11,u14-v14,u17-v17,u20-v20,u23-v23,v0-v1,v3-v4,v6-v7,v9-v10,"
    "v12-v13,v15-v16,v18-v19,v21-v22",
    2406: "u1-u3,u2-u4,u5-u7,u6-u8,u9-u11,u10-u12,u13-u15,u14-u16,u17-u19,u18-u20,"
    "u21-u23,u0-u22,v0-v1,v2-v3,v4-v5,v6-v7,v8-v9,v10-v11,v12-v13,v14-v15,"
    "v16-v17,v18-v19,v20-v21,v22-v23",
    1726: "u1-u3,u2-u4,u5-u7,u6-u8,u9-u11,u10-u12,u13-u15,u16-u18,u19-u21,u0-u22,"
    "u14-v14,u17-v17,u20-v20,u23-v23,v0-v1,v2-v3,v4-v5,v6-v7,v8-v9,v10-v11,"
    "v12-v13,v15-v16,v18-v19,v21-v22",
}


def assert_no_children():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture(scope="session")
def k2():
    return path_graph(2)


def brute_force_matchings(g: Graph) -> list[int]:
    """All perfect matchings by scanning raw |V|/2-subsets of the edge set."""
    if g.num_vertices % 2:
        return []
    want = g.num_vertices // 2
    full = g.full_vertex_mask
    out = []
    for combo in combinations(range(g.num_edges), want):
        covered = 0
        ok = True
        for eid in combo:
            a, b = g.edges[eid]
            bits = (1 << a) | (1 << b)
            if covered & bits:
                ok = False
                break
            covered |= bits
        if ok and covered == full:
            out.append(sum(1 << e for e in combo))
    out.sort()
    return out


def brute_forcing_number(g: Graph, m: int, all_matchings: list[int]) -> int:
    """Smallest size of a subset of m contained in exactly one matching."""
    medges = [e for e in range(g.num_edges) if m >> e & 1]
    for k in range(len(medges) + 1):
        for combo in combinations(medges, k):
            s = sum(1 << e for e in combo)
            if sum(1 for mm in all_matchings if mm & s == s) == 1:
                return k
    raise AssertionError("a perfect matching always forces itself")


def reference_min_transversal(m: int, cycle_masks: list[int]) -> tuple[int, int]:
    """(size, mask) of the first minimum subset of m that meets every mask,
    by incumbent branch and bound: branch on the first uncovered mask's
    edges in ascending index order, and cut a node that the greedy count of
    pairwise disjoint uncovered masks shows cannot beat the best so far.
    The reference for forcing._min_transversal, which deepens instead."""
    if not cycle_masks:
        return 0, 0
    best_size = m.bit_count()
    best_mask = m

    def greedy_disjoint(masks):
        used = count = 0
        for cm in masks:
            if not cm & used:
                count += 1
                used |= cm
        return count

    def descend(chosen: int, size: int, masks: list[int]):
        nonlocal best_size, best_mask
        if not masks:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        if size + greedy_disjoint(masks) >= best_size:
            return
        for eid in range(masks[0].bit_length()):
            ebit = 1 << eid
            if masks[0] & ebit:
                descend(chosen | ebit, size + 1, [cm for cm in masks if not cm & ebit])

    descend(0, 0, cycle_masks)
    return best_size, best_mask


def reference_alternating_cycle_walker(g: Graph, m: int):
    """walk(cap=None, avoid=0) as forcing._alternating_cycle_walker gives it,
    by the walk it replaced: each level entry a tuple (last vertex, vertex
    mask, edge mask), and every seed's levels capped at cap // 2 alone.
    Keys and walk order must be the same. The reference for the kernel's
    one-int entries and per-seed level cap."""
    n = g.num_vertices
    num_edges = g.num_edges
    everyone = (1 << n) - 1
    bit = [1 << (n - 1 - v) for v in range(n)]
    partner = [-1] * n
    matched_edge_at = [-1] * n
    for eid in iter_bits(m):
        a, b = g.edges[eid]
        partner[a], partner[b] = b, a
        matched_edge_at[a] = matched_edge_at[b] = eid
    steps = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    for v, pairs in enumerate(g.incident):
        for eid, w in pairs:
            if not m >> eid & 1:
                x = partner[w]
                step_edges = 1 << eid | 1 << matched_edge_at[w]
                steps[v].append((w, x, bit[w] | bit[x], step_edges))
                into[x].append((v, bit[w] | bit[x]))
    blocked_at = {}
    blocked = everyone
    for e0 in reversed(list(iter_bits(m))):
        blocked_at[e0] = blocked
        p, q = g.edges[e0]
        blocked ^= bit[p] | bit[q]

    def distances(e0: int) -> list[int]:
        _, b = g.edges[e0]
        blocked = blocked_at[e0]
        togo = [n] * n
        frontier = [v for v, _ in into[b]]
        for v in frontier:
            togo[v] = 1
        t = 1
        while frontier:
            t += 1
            reached = []
            for x in frontier:
                for v, wx in into[x]:
                    if togo[v] > t and not wx & blocked:
                        togo[v] = t
                        reached.append(v)
            frontier = reached
        return togo

    def walk(cap=None, avoid=0):
        levels = (n if cap is None else cap) // 2
        blocked = everyone
        for e0 in reversed(list(iter_bits(m & ~avoid))):
            a, b = g.edges[e0]
            seed = bit[a] | bit[b]
            togo = distances(e0)
            level = [(b, blocked, 1 << e0)] if togo[b] <= levels else []
            left = levels - 1
            while level:
                deeper = []
                for v, vmask, edges in level:
                    for w, x, wx, step_edges in steps[v]:
                        if not vmask & wx:
                            if togo[x] <= left:
                                deeper.append((x, vmask | wx, edges | step_edges))
                        elif w == a:
                            vertex_set = vmask ^ blocked | seed
                            head = vertex_set.bit_count() << n | everyone ^ vertex_set
                            yield head << num_edges | edges | step_edges
                level = deeper
                left -= 1
            blocked ^= seed

    return walk


def brute_single_cycle_partners(g: Graph, m: int, all_matchings: list[int]) -> list[int]:
    """Matchings whose symmetric difference with m is one single cycle.

    These are in bijection with the m-alternating cycles, giving an oracle
    for the cycle enumerator that never walks a path.
    """
    partners = []
    for mm in all_matchings:
        diff = mm ^ m
        if not diff:
            continue
        verts = set()
        adj = {}
        for eid in range(g.num_edges):
            if diff >> eid & 1:
                a, b = g.edges[eid]
                verts.update((a, b))
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        if any(len(v) != 2 for v in adj.values()):
            continue
        # connected iff a walk from any vertex visits them all
        start = next(iter(verts))
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if seen == verts:
            partners.append(mm)
    return partners


def brute_max_packing(cycles) -> int:
    """Exhaustive maximum vertex-disjoint cycle family, no bounding tricks."""
    best = 0

    def grow(i, used, size):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(cycles)):
            if not cycles[j].vertex_set & used:
                grow(j + 1, used | cycles[j].vertex_set, size + 1)

    grow(0, 0, 0)
    return best


def symmetry_vertex_maps(g: Graph, group: str = "rotation") -> list[list[int]]:
    """The vertex maps of GP(n,k)'s symmetry group, in the order of
    graphs.symmetry_images: the rotations u_i -> u_{i+j}, v_i -> v_{i+j} for
    j = 0..n-1, then, for "dihedral", the reflections u_i -> u_{j-i},
    v_i -> v_{j-i}."""
    n = g.gp_params[0]
    signs = (1, -1) if group == "dihedral" else (1,)
    return [
        [ring + (sign * i + j) % n for ring in (0, n) for i in range(n)]
        for sign in signs
        for j in range(n)
    ]


def vertex_map_edge_permutation(g: Graph, vmap) -> tuple[int, ...]:
    """Edge permutation induced by a vertex bijection, by looking each image
    edge up in the edge table; DomainError when some image edge does not
    exist, so it doubles as an automorphism check."""
    return tuple(g.find_edge(vmap[a], vmap[b]) for a, b in g.edges)


def symmetry_edge_permutations(g: Graph, group: str = "rotation") -> list[tuple[int, ...]]:
    """The edge permutation of every element of the group, from its vertex map."""
    return [vertex_map_edge_permutation(g, v) for v in symmetry_vertex_maps(g, group)]


def permute_edge_set(mask: int, perm) -> int:
    """Image of an edge set under an edge-index permutation, edge by edge."""
    return sum(1 << perm[e] for e in range(len(perm)) if mask >> e & 1)


def reference_images(g: Graph, group: str, s: int) -> list[int]:
    """The images of edge set s under every group element, in group order,
    from the vertex maps alone: the reference for graphs.symmetry_images."""
    return [permute_edge_set(s, p) for p in symmetry_edge_permutations(g, group)]


def reference_orbits(g: Graph, matchings, fns, group: str = "rotation") -> list[Orbit]:
    """Orbits of GP(n,k) matchings under raw vertex maps, with their reference
    forcing numbers.

    Each map of symmetry_vertex_maps is applied to a matching's endpoint
    pairs, which are looked up in the edge table again; no symmetry or
    partition code of the library is used. Asserts that every image is in
    `matchings` and that each orbit's members agree on `fns` (aligned with
    `matchings`). Orbits come sorted by representative, as
    Orbit(representative, size, forcing number).
    """
    perms = symmetry_edge_permutations(g, group)
    fn_of = dict(zip(matchings, fns))
    seen = set()
    orbits = []
    for m in sorted(matchings):
        if m in seen:
            continue
        members = tuple(sorted({permute_edge_set(m, p) for p in perms}))
        assert set(members) <= fn_of.keys(), f"an image of {m:#x} is not a matching"
        fs = {fn_of[x] for x in members}
        assert len(fs) == 1, f"the orbit of {m:#x} carries forcing numbers {fs}"
        seen.update(members)
        orbits.append(Orbit(members[0], len(members), fs.pop()))
    return orbits
