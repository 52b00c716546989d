"""Perfect-matching enumeration and forced-subset counting.

Edge sets, matchings included, are plain ints whose set bits are canonical
edge indices, so disjointness, containment, and symmetry images are single
mask operations at any supported size.
"""

from __future__ import annotations

from .graphs import DomainError, Graph

_NO_LIMIT = 1 << 62


def iter_bits(mask: int):
    """Yield set bit positions in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def edge_indices(mask: int) -> list[int]:
    """Sorted list of edge indices of a bitmask edge set (the JSON form)."""
    return list(iter_bits(mask))


def edge_set(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def permute_edge_set(mask: int, perm) -> int:
    """Image of an edge set under an edge-index permutation."""
    out = 0
    while mask:
        lsb = mask & -mask
        out |= 1 << perm[lsb.bit_length() - 1]
        mask ^= lsb
    return out


def enumerate_perfect_matchings(g: Graph) -> list[int]:
    """All perfect matchings of g, sorted ascending by bit-encoding.

    Backtracking always branches on the lowest-index uncovered vertex over
    its incident edges; a branch dies when that vertex has no uncovered
    neighbor left. Graphs with no perfect matching yield an empty list.
    """
    full = g.full_vertex_mask
    incident = g.incident
    out = []

    def extend(covered: int, chosen: int):
        if covered == full:
            out.append(chosen)
            return
        rest = full & ~covered
        vbit = rest & -rest
        for eid, w in incident[vbit.bit_length() - 1]:
            wbit = 1 << w
            if covered & wbit:
                continue
            extend(covered | vbit | wbit, chosen | (1 << eid))

    extend(0, 0)
    out.sort()
    return out


def _count_capped(incident, full: int, covered: int, cap: int) -> int:
    if covered == full:
        return 1
    rest = full & ~covered
    vbit = rest & -rest
    total = 0
    for _, w in incident[vbit.bit_length() - 1]:
        wbit = 1 << w
        if covered & wbit:
            continue
        total += _count_capped(incident, full, covered | vbit | wbit, cap)
        if total >= cap:
            break
    return total


def covered_vertices(g: Graph, s: int) -> int:
    """Vertex mask covered by edge set s; DomainError when two edges share a vertex."""
    covered = 0
    for eid in iter_bits(s):
        a, b = g.edges[eid]
        bits = (1 << a) | (1 << b)
        if covered & bits:
            raise DomainError(
                f"edge set is not matching-compatible: {g.edge_name(eid)}"
                " shares a vertex with another chosen edge"
            )
        covered |= bits
    return covered


def count_matchings_containing(g: Graph, s: int, limit: int | None = None) -> int:
    """min(limit, number of perfect matchings of g containing edge set s).

    Computed by deleting the endpoints of s and counting perfect matchings of
    the residual graph, stopping early once `limit` completions are found
    (limit=None counts exactly).
    """
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    covered = covered_vertices(g, s)
    cap = _NO_LIMIT if limit is None else limit
    count = _count_capped(g.incident, g.full_vertex_mask, covered, cap)
    return min(cap, count)


def is_perfect_matching(g: Graph, m: int) -> bool:
    """True iff the edges of m are pairwise disjoint and cover every vertex."""
    covered = 0
    for eid in iter_bits(m):
        if eid >= g.num_edges:
            return False
        a, b = g.edges[eid]
        bits = (1 << a) | (1 << b)
        if covered & bits:
            return False
        covered |= bits
    return covered == g.full_vertex_mask


def matching_text(g: Graph, m: int) -> str:
    """Comma-separated edge names in ascending edge-index order."""
    return ",".join(g.edge_name(eid) for eid in iter_bits(m))


def parse_matching(g: Graph, text: str) -> int:
    """Parse the text form back into a bitmask edge set."""
    mask = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            left, right = token.split("-")
        except ValueError:
            raise DomainError(f"bad edge token {token!r}, expected 'a-b'") from None
        eid = g.find_edge(g.parse_vertex(left), g.parse_vertex(right))
        if mask >> eid & 1:
            raise DomainError(f"edge {token!r} listed twice")
        mask |= 1 << eid
    return mask


def uncovered_and_overcovered(g: Graph, m: int) -> tuple[list[int], list[int]]:
    """Vertices missed and vertices covered more than once by edge set m."""
    count = [0] * g.num_vertices
    for eid in iter_bits(m):
        a, b = g.edges[eid]
        count[a] += 1
        count[b] += 1
    uncovered = [v for v in range(g.num_vertices) if count[v] == 0]
    overcovered = [v for v in range(g.num_vertices) if count[v] > 1]
    return uncovered, overcovered
