"""Perfect-matching enumeration and forced-subset counting.

Edge sets, matchings included, are plain ints whose set bits are canonical
edge indices, so disjointness, containment, and symmetry images are single
mask operations at any supported size.

Enumeration and counting share one depth-first walker that covers vertices
in ring order u0, v0, u1, v1, ... on an explicit stack, so neither has a
recursion limit.
"""

from __future__ import annotations

from itertools import islice

from .graphs import DomainError, Graph


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


def _completions(g: Graph, covered: int):
    """Yield each edge mask that completes vertex set `covered` to a perfect matching.

    Vertices are walked in ring order u0, v0, u1, v1, ... (index order for
    graphs without gp_params), relabelled once so that the next vertex to
    branch on is the lowest uncovered bit.
    """
    order = range(g.num_vertices)
    if g.gp_params is not None:
        n = g.gp_params[0]
        order = [v for i in range(n) for v in (i, n + i)]
    pos = {v: p for p, v in enumerate(order)}
    adj = [[(1 << pos[w], 1 << eid) for eid, w in g.incident[v]] for v in order]
    full = g.full_vertex_mask
    stack = [(sum(1 << pos[v] for v in iter_bits(covered)), 0)]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            yield chosen
            continue
        rest = full & ~covered
        vbit = rest & -rest
        for wbit, ebit in adj[vbit.bit_length() - 1]:
            if not covered & wbit:
                stack.append((covered | vbit | wbit, chosen | ebit))


def enumerate_perfect_matchings(g: Graph) -> list[int]:
    """All perfect matchings of g, sorted ascending by bit-encoding.

    A depth-first walk on an explicit stack branches on the first uncovered
    vertex in ring order u0, v0, u1, v1, ... over its incident edges; a
    branch dies when that vertex has no uncovered neighbor left. Covering
    each spoke pair together prunes dead branches early. Graphs with no
    perfect matching yield an empty list.
    """
    return sorted(_completions(g, 0))


def perfect_matchings(g: Graph) -> list[int]:
    """enumerate_perfect_matchings(g), enumerated once and memoized on the
    graph; callers share the list and must not change it."""
    ms = getattr(g, "_perfect_matchings", None)
    if ms is None:
        ms = g._perfect_matchings = enumerate_perfect_matchings(g)
    return ms


def _edge_ids(g: Graph, s: int):
    """iter_bits(s); DomainError when s is negative or names an edge index
    that g does not have (iter_bits would never end on a negative int)."""
    if s < 0 or s >> g.num_edges:
        raise DomainError(f"edge set {s:#x} is not a set of g's {g.num_edges} edges")
    return iter_bits(s)


def covered_vertices(g: Graph, s: int) -> int:
    """Vertex mask covered by edge set s; DomainError when s is not a set of
    g's edges, two edges share a vertex or an edge has an endpoint outside the
    graph (see graphs.validate)."""
    covered = 0
    for eid in _edge_ids(g, s):
        a, b = g.edges[eid]
        if a < 0 or b >= g.num_vertices:  # edges are stored with a <= b
            raise DomainError(f"edge {eid} endpoint out of range: ({a}, {b})")
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
    completions = _completions(g, covered_vertices(g, s))
    return sum(1 for _ in islice(completions, limit))


def is_perfect_matching(g: Graph, m: int) -> bool:
    """True iff the edges of m are pairwise disjoint and cover every vertex."""
    try:
        return covered_vertices(g, m) == g.full_vertex_mask
    except DomainError:  # not g's edges, two share a vertex, or one leaves g
        return False


def matching_text(g: Graph, m: int) -> str:
    """Comma-separated edge names in ascending edge-index order."""
    return ",".join(g.edge_name(eid) for eid in _edge_ids(g, m))


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
