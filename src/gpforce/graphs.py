"""Generalized Petersen graphs and small general graphs with a fixed edge indexing.

Vertices of GP(n, k) are numbered 0..2n-1: inner vertex u_i is i, outer vertex
v_i is n + i. Every edge carries a canonical index shared by all other modules:

    inner edges  u_i u_{i+k}   at indices i        (0 <= i < n)
    spokes       u_i v_i       at indices n + i
    outer edges  v_i v_{i+1}   at indices 2n + i

with subscripts mod n. This fixed [inner | spokes | outer] layout keeps
matching encodings, orbit representatives, and golden outputs reproducible.
Every rotation and reflection of GP(n, k) maps each of the three n-bit blocks
onto itself, so symmetry_images gives an edge-set int's 2n dihedral images,
the rotations first, by n-bit rotations and reversals of the blocks.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument falls outside the supported domain."""


class Graph:
    """Immutable simple graph with an indexed edge table.

    ``edges`` is a tuple of endpoint pairs (a, b) with a < b, in canonical
    order; ``incident[v]`` lists (edge_index, other_endpoint) pairs in
    ascending edge index; ``gp_params`` records (n, k) for GP graphs and is
    None for general graphs.
    """

    def __init__(self, num_vertices: int, edges, gp_params=None):
        self.num_vertices = num_vertices
        self.edges = tuple((a, b) if a <= b else (b, a) for a, b in edges)
        self.gp_params = gp_params
        self.full_vertex_mask = (1 << num_vertices) - 1
        incident = [[] for _ in range(num_vertices)]
        index = {}
        for eid, (a, b) in enumerate(self.edges):
            if 0 <= a < num_vertices and 0 <= b < num_vertices:
                incident[a].append((eid, b))
                if b != a:
                    incident[b].append((eid, a))
            index.setdefault((a, b), eid)
        self.incident = tuple(tuple(pairs) for pairs in incident)
        self.edge_index = index

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "Graph":
        """Build a general graph; no validation happens here, see validate()."""
        return cls(num_vertices, edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def vertex_name(self, v: int) -> str:
        if self.gp_params is not None:
            n = self.gp_params[0]
            return f"u{v}" if v < n else f"v{v - n}"
        return str(v)

    def parse_vertex(self, name: str) -> int:
        name = name.strip()
        if self.gp_params is not None:
            n = self.gp_params[0]
            cls, idx = name[:1], name[1:]
            if cls in ("u", "v") and idx.isascii() and idx.isdigit() and int(idx) < n:
                return int(idx) if cls == "u" else n + int(idx)
            raise DomainError(f"unknown vertex name {name!r}")
        if name.isascii() and name.isdigit() and int(name) < self.num_vertices:
            return int(name)
        raise DomainError(f"unknown vertex name {name!r}")

    def edge_name(self, eid: int) -> str:
        a, b = self.edges[eid]
        return f"{self.vertex_name(a)}-{self.vertex_name(b)}"

    def find_edge(self, a: int, b: int) -> int:
        """Edge index for endpoints (a, b), raising DomainError if absent."""
        key = (a, b) if a <= b else (b, a)
        try:
            return self.edge_index[key]
        except KeyError:
            raise DomainError(
                f"no edge {self.vertex_name(a)}-{self.vertex_name(b)}"
            ) from None

    def to_dot(self) -> str:
        """Graphviz text, one line per edge in canonical order."""
        if self.gp_params is not None:
            name = "gp_{}_{}".format(*self.gp_params)
        else:
            name = "g"
        lines = [f"graph {name} {{"]
        for eid in range(self.num_edges):
            lines.append(f"  {self.edge_name(eid).replace('-', ' -- ')};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        n, k = self.gp_params if self.gp_params is not None else (None, None)
        return {
            "n": n,
            "k": k,
            "vertices": [self.vertex_name(v) for v in range(self.num_vertices)],
            "edges": [
                [self.vertex_name(a), self.vertex_name(b)] for a, b in self.edges
            ],
        }

    def to_json(self) -> str:
        import json  # only this method needs it

        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def __repr__(self):
        if self.gp_params is not None:
            return "GP({}, {})".format(*self.gp_params)
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


def build_gp(n: int, k: int) -> Graph:
    """Construct GP(n, k) with the canonical edge ordering.

    Requires n >= 5 and 1 <= k <= n-1; k = n/2 is rejected because the inner
    edge family would collapse into parallel edges.
    """
    if n < 5:
        raise DomainError(f"GP(n, k) needs n >= 5, got n={n}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"GP({n}, k) needs 1 <= k <= {n - 1}, got k={k}")
    if 2 * k == n:
        raise DomainError(f"GP({n}, {k}) is degenerate: k = n/2 doubles inner edges")
    edges = []
    for i in range(n):
        edges.append((i, (i + k) % n))          # inner u_i u_{i+k}
    for i in range(n):
        edges.append((i, n + i))                # spoke u_i v_i
    for i in range(n):
        edges.append((n + i, n + (i + 1) % n))  # outer v_i v_{i+1}
    return Graph(2 * n, edges, gp_params=(n, k))


def validate(g: Graph) -> list[str]:
    """Check structural invariants and return a list of violations (empty = ok).

    Never raises: broken graphs built through Graph.from_edges are reported,
    not rejected.
    """
    problems = []
    seen = {}
    for eid, (a, b) in enumerate(g.edges):
        if not (0 <= a < g.num_vertices and 0 <= b < g.num_vertices):
            problems.append(f"edge {eid} endpoint out of range: ({a}, {b})")
            continue
        if a == b:
            problems.append(f"self-loop at vertex {g.vertex_name(a)} (edge {eid})")
        if (a, b) in seen:
            problems.append(
                f"parallel edge {g.vertex_name(a)}-{g.vertex_name(b)}"
                f" (edges {seen[(a, b)]} and {eid})"
            )
        else:
            seen[(a, b)] = eid
    # adjacency must mirror the edge table exactly
    for v in range(g.num_vertices):
        for eid, w in g.incident[v]:
            a, b = g.edges[eid]
            if {a, b} != {v, w}:
                problems.append(f"adjacency of vertex {v} disagrees with edge {eid}")
    if g.gp_params is not None:
        n, k = g.gp_params
        if g.num_vertices != 2 * n:
            problems.append(f"GP({n},{k}) must have {2 * n} vertices")
        if g.num_edges != 3 * n:
            problems.append(f"GP({n},{k}) must have {3 * n} edges")
        for v in range(g.num_vertices):
            if g.degree(v) != 3:
                problems.append(
                    f"vertex {g.vertex_name(v)} has degree {g.degree(v)}, expected 3"
                )
        for eid, (a, b) in enumerate(g.edges):
            cls, i = divmod(eid, n)
            if cls == 0:
                want = tuple(sorted((i, (i + k) % n)))
            elif cls == 1:
                want = (i, n + i)
            else:
                want = tuple(sorted((n + i, n + (i + 1) % n)))
            if (a, b) != want:
                problems.append(f"edge {eid} violates the [inner|spokes|outer] layout")
    return problems


def symmetry_images(g: Graph):
    """GP(n, k)'s dihedral group as a function from an edge set to the list
    of its 2n images, one per group element.

    The first n are the rotations u_i -> u_{i+j}, v_i -> v_{i+j} for
    j = 0..n-1, in that order, and the last n the reflections
    u_i -> u_{j-i}, v_i -> v_{j-i}. Each acts on the [inner | spokes | outer]
    blocks of the edge set as block rotations: the rotation by j rotates
    every block left by j, and the reflection by j reverses every block,
    rotates the inner block by 1 - k and the spokes by 1, then rotates every
    block by j.
    """
    if g.gp_params is None:
        raise DomainError("symmetry groups are only defined for GP graphs")
    n, k = g.gp_params
    block = (1 << n) - 1
    ones = 1 | 1 << n | 1 << 2 * n  # bit 0 of every block
    # rotating by j lifts each block's low n - j bits by j and drops its
    # high j bits by n - j
    masks = [(j, ones * (block >> j), ones * ((1 << j) - 1)) for j in range(n)]

    def rotations(s):
        return [(s & low) << j | (s >> n - j) & high for j, low, high in masks]

    def rotate(x, j):
        return (x << j | x >> n - j) & block

    def images(s):
        bits = f"{s:0{3 * n}b}"[::-1]  # bit i of s at position i
        inner, spokes, outer = (int(bits[b * n:(b + 1) * n], 2) for b in range(3))
        turned = rotate(inner, (1 - k) % n) | rotate(spokes, 1) << n | outer << 2 * n
        return rotations(s) + rotations(turned)

    return images
