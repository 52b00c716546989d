"""Reference computations for GP(n,2) that share no code with gpforce.

Everything here works from the graph's definition and gpforce's documented
edge indexing alone (inner edge u_i-u_{i+2} at index i, spoke u_i-v_i at
n+i, outer edge v_i-v_{i+1} at 2n+i):

  * `count_matchings` and `enumerate_matchings` walk a transfer matrix with
    8 cut states: each cut between positions i and i+1 is crossed by one
    outer edge and two inner edges;
  * `containment_forcing_number` applies the definition of the forcing
    number by brute force over subsets, testing containment in the other
    matchings with numpy;
  * `single_cycle_partners` counts the matchings whose symmetric difference
    with M is one cycle, by flood fill on the ring structure;
  * `PAPER_POLYNOMIALS` and `PAPER_ORBIT_ROWS` are the paper's tables for
    n = 5..15, transcribed here.
"""

from __future__ import annotations

from itertools import product

import numpy as np

PAPER_RANGE = range(5, 16)

# forcing polynomial of GP(n,2): {forcing number: number of perfect matchings}
PAPER_POLYNOMIALS = {
    5: {2: 6},
    6: {2: 10},
    7: {2: 15},
    8: {2: 9, 3: 8},
    9: {2: 21, 3: 1},
    10: {3: 36},
    11: {2: 11, 3: 34},
    12: {2: 3, 3: 51},
    13: {3: 78, 4: 1},
    14: {3: 56, 4: 57},
    15: {3: 53, 4: 91},
}

# rotation orbits of GP(n,2) as (PMC, FN) rows: orbit size, forcing number
PAPER_ORBIT_ROWS = {
    5: [(5, 2), (1, 2)],
    6: [(6, 2), (1, 2), (3, 2)],
    7: [(7, 2), (1, 2), (7, 2)],
    8: [(4, 3), (8, 2), (1, 2), (4, 3)],
    9: [(9, 2), (9, 2), (1, 3), (3, 2)],
    10: [(10, 3), (5, 3), (10, 3), (1, 3), (10, 3)],
    11: [(11, 3), (11, 3), (11, 3), (1, 3), (11, 2)],
    12: [(4, 3), (12, 3), (12, 3), (6, 3), (12, 3), (1, 3), (4, 3), (3, 2)],
    13: [(13, 3), (13, 3), (13, 3), (13, 3), (13, 3), (1, 4), (13, 3)],
    14: [
        (14, 4), (14, 4), (14, 3), (14, 3), (14, 4),
        (7, 3), (14, 4), (1, 4), (14, 3), (7, 3),
    ],
    15: [
        (15, 4), (15, 4), (15, 4), (5, 3), (15, 3), (15, 3),
        (15, 4), (15, 4), (15, 4), (1, 4), (15, 3), (3, 3),
    ],
}


def _steps():
    """Transfer steps at one position i.

    A state (a, b, c) says which edges cross the cut in front of position i:
    a = outer v_{i-1}v_i, b = inner u_{i-2}u_i, c = inner u_{i-1}u_{i+1}.
    Position i picks the spoke s, the inner edge d = u_i u_{i+2} and the
    outer edge e = v_i v_{i+1} so that u_i and v_i are each covered once;
    the next state is (e, c, d).
    """
    steps = []
    for a, b, c, s, d, e in product((0, 1), repeat=6):
        if b + s + d == 1 and a + s + e == 1:
            steps.append(((a, b, c), (s, d, e), (e, c, d)))
    return steps


_STEPS = _steps()
_STATES = sorted({src for src, _, _ in _STEPS})


def _check_n(n: int) -> None:
    if n < 5:
        raise ValueError(f"GP(n,2) needs n >= 5 to be a simple graph, got {n}")


def count_matchings(n: int) -> int:
    """Perfect matchings of GP(n,2): the trace of the n-th power of the
    8 x 8 transfer matrix, in exact integers."""
    _check_n(n)
    index = {s: i for i, s in enumerate(_STATES)}
    size = len(_STATES)
    t = [[0] * size for _ in range(size)]
    for src, _, dst in _STEPS:
        t[index[src]][index[dst]] += 1
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(n):
        power = [
            [sum(power[i][k] * t[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
    return sum(power[i][i] for i in range(size))


def enumerate_matchings(n: int) -> list[int]:
    """Every perfect matching of GP(n,2) as a 3n-bit edge mask, ascending.

    Walks the same transfer steps as `count_matchings` around the ring, once
    per start state, keeping the walks that close on their start state.
    """
    _check_n(n)
    by_src = {}
    for src, pick, dst in _STEPS:
        by_src.setdefault(src, []).append((pick, dst))
    out = []

    def walk(i: int, state, start, mask: int):
        if i == n:
            if state == start:
                out.append(mask)
            return
        for (s, d, e), nxt in by_src[state]:
            walk(
                i + 1,
                nxt,
                start,
                mask | s << (n + i) | d << i | e << (2 * n + i),
            )

    for start in _STATES:
        walk(0, start, start, 0)
    out.sort()
    return out


def edge_endpoints(n: int, eid: int) -> tuple[str, str]:
    """Vertex names of edge `eid` under the documented edge indexing."""
    block, i = divmod(eid, n)
    if block == 0:
        return f"u{i}", f"u{(i + 2) % n}"
    if block == 1:
        return f"u{i}", f"v{i}"
    if block == 2:
        return f"v{i}", f"v{(i + 1) % n}"
    raise ValueError(f"edge index {eid} out of range for GP({n},2)")


def edge_between(n: int, x: str, y: str) -> int | None:
    """Edge index joining vertex names x and y, or None if not adjacent."""
    for eid in range(3 * n):
        if set(edge_endpoints(n, eid)) == {x, y} and x != y:
            return eid
    return None


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def is_perfect_matching(n: int, mask: int) -> bool:
    if mask >> (3 * n):
        return False
    seen = set()
    for eid in bits(mask):
        for v in edge_endpoints(n, eid):
            if v in seen:
                return False
            seen.add(v)
    return len(seen) == 2 * n


def rotate(n: int, mask: int, j: int = 1) -> int:
    """Image of an edge mask under u_i -> u_{i+j}, v_i -> v_{i+j}."""
    full = (1 << n) - 1
    out = 0
    for block in range(3):
        part = mask >> (block * n) & full
        part = (part << j | part >> (n - j)) & full
        out |= part << (block * n)
    return out


def rotation_orbits(n: int, matchings: list[int]) -> list[list[int]]:
    """Rotation orbits, each sorted, listed by their smallest member."""
    seen = set()
    orbits = []
    for m in sorted(matchings):
        if m in seen:
            continue
        members = sorted({rotate(n, m, j) for j in range(n)})
        seen.update(members)
        orbits.append(members)
    return orbits


def contains_only_itself(matchings: list[int], m: int, s: int) -> bool:
    """True iff m is the only matching in the list that contains edge set s."""
    return [x for x in matchings if x & s == s] == [m]


def _next_subsets(masks: np.ndarray, top: np.ndarray, width: int):
    """Extend every subset (with highest element `top`) by one larger element."""
    parts, tops = [], []
    for b in range(width):
        rows = top < b
        if rows.any():
            parts.append(masks[rows] | np.uint64(1 << b))
            tops.append(np.full(int(rows.sum()), b, np.int64))
    if not parts:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    return np.concatenate(parts), np.concatenate(tops)


def _maximal(masks: set[int]) -> np.ndarray:
    """The masks not contained in any other mask of the set."""
    kept = np.zeros(len(masks), np.uint64)
    count = 0
    for p in sorted(masks, key=int.bit_count, reverse=True):
        q = np.uint64(p)
        if not ((kept[:count] & q) == q).any():
            kept[count] = q
            count += 1
    return kept[:count]


def containment_forcing_number(matchings: list[int], m: int) -> int:
    """f(M): the least k such that some k-subset of M lies in no other
    perfect matching in `matchings`, found by trying every subset by size.

    Subsets are positions into M's edge list. A subset S of M lies in X
    exactly when S lies in the projection M & X, and a projection inside a
    larger one adds nothing, so only the maximal projections are tested.
    """
    medges = bits(m)
    width = len(medges)
    projections = set()
    for x in matchings:
        if x == m:
            continue
        p = 0
        for j, e in enumerate(medges):
            if x >> e & 1:
                p |= 1 << j
        projections.add(p)
    if not projections:
        return 0
    complements = ~_maximal(projections)
    chunk = max(1, 4_000_000 // len(complements))
    subsets, top = np.zeros(1, np.uint64), np.full(1, -1, np.int64)
    for k in range(width + 1):
        for start in range(0, len(subsets), chunk):
            block = subsets[start : start + chunk]
            inside = ((block[:, None] & complements[None, :]) == 0).any(axis=1)
            if not inside.all():
                return k
        subsets, top = _next_subsets(subsets, top, width)
    raise AssertionError("unreachable: M itself lies in no other matching")


def _rotl(x: np.ndarray, j: int, n: int, full: np.uint64) -> np.ndarray:
    return ((x << np.uint64(j)) | (x >> np.uint64(n - j))) & full


def single_cycle_partners(n: int, matchings: list[int], m: int) -> int:
    """How many matchings X differ from M in exactly one cycle.

    M xor X is a disjoint union of cycles; flood fill from one of its
    vertices along its edges and compare the reach with all its vertices.
    """
    low = (1 << n) - 1
    full = np.uint64(low)
    diffs = [x ^ m for x in matchings if x != m]
    inner = np.array([d & low for d in diffs], np.uint64)
    spoke = np.array([d >> n & low for d in diffs], np.uint64)
    outer = np.array([d >> (2 * n) & low for d in diffs], np.uint64)
    cover_u = inner | _rotl(inner, 2, n, full) | spoke
    cover_v = spoke | outer | _rotl(outer, 1, n, full)
    zero = np.uint64(0)
    # start from the lowest covered inner vertex, else the lowest outer one
    seed_u = cover_u & (~cover_u + np.uint64(1))
    seed_v = np.where(seed_u == zero, cover_v & (~cover_v + np.uint64(1)), zero)
    reach_u, reach_v = seed_u, seed_v
    for _ in range(2 * n):
        e_in = inner & (reach_u | _rotl(reach_u, n - 2, n, full))
        e_sp = spoke & (reach_u | reach_v)
        e_out = outer & (reach_v | _rotl(reach_v, n - 1, n, full))
        new_u = reach_u | e_in | _rotl(e_in, 2, n, full) | e_sp
        new_v = reach_v | e_sp | e_out | _rotl(e_out, 1, n, full)
        if (new_u == reach_u).all() and (new_v == reach_v).all():
            break
        reach_u, reach_v = new_u, new_v
    return int(((reach_u == cover_u) & (reach_v == cover_v)).sum())
