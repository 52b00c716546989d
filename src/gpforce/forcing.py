"""Forcing numbers of perfect matchings by two independent exact engines.

A subset S of a perfect matching M is a forcing set when no other perfect
matching contains S; f(G, M) is the smallest size of such a subset. The two
engines here must always agree:

  * subset search: scan subsets of M by size and test each one directly
    against every other perfect matching, forcing iff none contains it (the
    definition, executed literally);
  * hitting set: S forces M exactly when S meets the matched edges of every
    M-alternating cycle, so f(G, M) is the minimum transversal of those
    cycles, found by branch and bound.

Their agreement on every input is itself a theorem, which makes running both
a built-in correctness oracle.

The alternating cycles come from a depth-first walk on an explicit stack.
Each stack entry links to its parent instead of carrying a copy of its path,
and a cycle's vertex sequence and edge masks are rebuilt from those links
only when the walk closes it. The walk can stop at a cycle length and skip
the cycles that a given set of matched edges already meets.

The transversal and the maximum disjoint packing, whose size C(G, M) bounds
f(G, M) below, both read the list enumerate_alternating_cycles returns, so a
caller that needs both enumerates once and passes the list on. Without such
a list the transversal deepens instead: it solves on the short cycles and
walks longer ones only while its witness leaves one of them unhit.

forcing_numbers_map runs one engine over many matchings, in one process or
fanned out by _fan_out: jobs - 1 forked children each compute a strided
share and send it back through a pipe while the calling process computes
the first share itself. The results, and the exception raised if any, are
those of the serial loop. verify_published_tables fans out the same way,
by whole tables.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from itertools import combinations

from .graphs import DomainError, Graph
from .matchings import (
    count_matchings_containing,
    enumerate_perfect_matchings,
    is_perfect_matching,
    iter_bits,
)


class EngineMismatch(RuntimeError):
    """The two forcing engines disagreed; this always signals a bug."""


@dataclass(frozen=True)
class AltCycle:
    """An M-alternating cycle: vertex sequence plus derived bitmasks.

    `edges` holds the complete cycle edge set, matched and unmatched alike,
    and is the last key of the canonical cycle order. Two different cycles
    can share both matched_edges and vertex_set (two Hamiltonian alternating
    cycles of GP(6,2) do), so neither is enough to tell cycles apart on its
    own.
    """

    vertices: tuple[int, ...]
    edges: int
    matched_edges: int
    vertex_set: int


@dataclass(frozen=True)
class ForcingResult:
    forcing_number: int
    witness: int  # a minimum forcing set, as an edge bitmask


def _canonical_order(c: AltCycle):
    return len(c.vertices), tuple(sorted(c.vertices)), c.edges


def _alternating_cycle_walker(g: Graph, m: int):
    """The alternating-cycle walk of (g, m), as a generator function
    walk(cap=None, avoid=0).

    walk yields, each exactly once and in walk order, the M-alternating
    cycles of at most `cap` vertices (of any length when cap is None) whose
    matched edges miss `avoid`, a subset of m.

    Depth-first search over alternating paths seeded at each matched edge
    e0 = (a, b) with a < b: the path starts a, b and only visits matched edges
    with index greater than e0, so e0 is the lexicographically smallest
    matched edge of any cycle it closes and the fixed a -> b orientation rules
    out the reversed traversal, so every cycle is closed exactly once. A cycle
    through a vertex uses that vertex's matched edge, so the cycles that miss
    `avoid` are exactly those that miss its vertices.

    The walk keeps an explicit stack and tabulates each vertex's steps once
    per matching: a step from v takes an unmatched edge v-w, then w's matched
    edge to its partner x. A stack entry is (row, vmask, parent, step_edges).
    vmask holds the path's vertices, the vertices of `avoid` and those of
    every matched edge up to e0, so one test rejects a revisit and every
    vertex this seed may not use. step_edges is the bitmask of the step's two
    edges, which names parallel edges apart. Only when a step reaches a again
    is the cycle rebuilt: its vertex sequence from the parent links, its edges
    as the union of their step_edges, and its matched edges as those edges
    that lie in m.

    The cap costs the stack entries nothing: `row` is the vertex itself on an
    uncapped walk, and otherwise a row of a table layered by the number of
    steps still allowed. Layer j's steps lead to layer j - 1, and layer 0's
    steps only ever close a cycle. A capped walk seeds b in layer
    cap // 2 - 1, since a cycle of 2 + 2j vertices takes j steps after a, b.
    Layers are added as caps first ask for them and kept for later walks.
    """
    if not is_perfect_matching(g, m):
        raise DomainError("not a perfect matching of this graph")
    n = g.num_vertices
    partner = [-1] * n
    matched_edge_at = [-1] * n
    for eid in iter_bits(m):
        a, b = g.edges[eid]
        partner[a], partner[b] = b, a
        matched_edge_at[a] = matched_edge_at[b] = eid
    # steps[row]: (w, next row, bits of w and x, bits of the edges v-w and
    # w-x); rows 0..n-1 are the uncapped vertices, rows n(j+1).. layer j
    steps = [[] for _ in range(n)]
    for v, pairs in enumerate(g.incident):
        for eid, w in pairs:
            if not m >> eid & 1:
                x = partner[w]
                step_edges = 1 << eid | 1 << matched_edge_at[w]
                steps[v].append((w, x, 1 << w | 1 << x, step_edges))
    # ends[row]: the row's vertex and its partner, in path order
    ends = [(v, partner[v]) for v in range(n)]

    def walk(cap: int | None = None, avoid: int = 0):
        if cap is None or cap >= n:
            start = 0
        elif cap < 2:
            return
        else:
            start = n * (cap // 2)
            while len(steps) <= start:  # add the next layer
                below = len(steps) - n  # the first row of the layer beneath
                base = steps[:n]
                if below:
                    steps.extend([(w, to + below, wx, se) for w, to, wx, se in r]
                                 for r in base)
                else:  # -1 meets every vmask, so a layer-0 step only closes
                    steps.extend([(w, 0, -1, se) for w, _, _, se in r] for r in base)
                ends.extend(ends[:n])
        blocked = 0
        for eid in iter_bits(avoid):
            p, q = g.edges[eid]
            blocked |= 1 << p | 1 << q
        for e0 in iter_bits(m & ~avoid):
            a, b = g.edges[e0]
            seed = 1 << a | 1 << b
            blocked |= seed
            stack = [(start + b, blocked, None, 1 << e0)]
            push, pop = stack.append, stack.pop
            while stack:
                node = pop()
                vmask = node[1]
                for w, to, wx, step_edges in steps[node[0]]:
                    if not vmask & wx:
                        push((to, vmask | wx, node, step_edges))
                    elif w == a:  # a is blocked, so a closing step lands here
                        path = []
                        edges = step_edges
                        link = node
                        while link is not None:
                            row, _, link, link_edges = link
                            path += ends[row]
                            edges |= link_edges
                        path.reverse()
                        vertex_set = vmask ^ blocked | seed
                        yield AltCycle(tuple(path), edges, edges & m, vertex_set)

    return walk


def enumerate_alternating_cycles(g: Graph, m: int) -> list[AltCycle]:
    """Every M-alternating cycle of (g, m), each exactly once.

    The uncapped walk of _alternating_cycle_walker, sorted by ascending
    length, then lexicographic vertex set, then edge set.
    """
    return sorted(_alternating_cycle_walker(g, m)(), key=_canonical_order)


def is_forcing(g: Graph, m: int, s: int, criterion: str = "uniqueness") -> bool:
    """Whether s (a subset of matching m) forces m.

    criterion "uniqueness" counts perfect matchings containing s (forcing
    iff exactly one); criterion "cycles" checks that s meets the matched
    edges of every m-alternating cycle, by a walk that skips the vertices of
    s and stops at the first cycle it closes. The two are provably
    equivalent. Raises DomainError when m is not a perfect matching of g.
    """
    if not is_perfect_matching(g, m):
        raise DomainError("not a perfect matching of this graph")
    if s & ~m:
        raise DomainError("s is not a subset of the matching")
    if criterion == "uniqueness":
        return count_matchings_containing(g, s, limit=2) == 1
    if criterion == "cycles":
        return next(_alternating_cycle_walker(g, m)(avoid=s), None) is None
    raise DomainError(f"unknown criterion {criterion!r}")


def _greedy_disjoint_count(masks) -> int:
    # pairwise matched-edge-disjoint cycles need pairwise distinct hits
    used = 0
    count = 0
    for cm in masks:
        if not cm & used:
            count += 1
            used |= cm
    return count


def _min_transversal(m: int, cycle_masks: list[int]) -> ForcingResult:
    """The first minimum subset of m that meets every mask, by branch and
    bound: branch on the first uncovered mask's edges in ascending index
    order; the lower bound is the greedy count of pairwise disjoint
    uncovered masks."""
    if not cycle_masks:
        return ForcingResult(0, 0)
    best_size = m.bit_count()
    best_mask = m

    def descend(chosen: int, size: int, masks: list[int]):
        nonlocal best_size, best_mask
        if not masks:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        if size + _greedy_disjoint_count(masks) >= best_size:
            return
        target = masks[0]
        for eid in iter_bits(target):
            ebit = 1 << eid
            descend(chosen | ebit, size + 1, [cm for cm in masks if not cm & ebit])

    descend(0, 0, cycle_masks)
    return ForcingResult(best_size, best_mask)


def _shortest_unhit_length(walk, h: int, cap: int) -> int | None:
    """The vertex count of the shortest alternating cycle whose matched edges
    miss h, or None if h meets them all; h meets every cycle of at most
    `cap` vertices. One uncapped walk stops at the first such cycle, then
    capped walks look for a shorter one, shortest cap first."""
    first = next(walk(avoid=h), None)
    if first is None:
        return None
    longer = len(first.vertices)
    shorter = (c for c in range(cap + 2, longer, 2) if next(walk(c, h), None))
    return next(shorter, longer)


def forcing_number_by_hitting_set(
    g: Graph, m: int, cycles: list[AltCycle] | None = None
) -> ForcingResult:
    """f(g, m) as a minimum hitting set over alternating-cycle matched edges.

    `cycles` is enumerate_alternating_cycles(g, m). The search is exact
    branch and bound over their matched edges in that canonical order, and
    its first optimum is the witness.

    When `cycles` is not given, the cycles are not all walked. Starting from
    the empty family, the search runs on the canonical prefix of cycles of at
    most `cap` vertices, and a walk that skips the witness's vertices looks
    for a cycle it leaves unhit; if there is one, cap rises to the length of
    the shortest such cycle and the search runs again. Most matchings are
    settled by their short cycles, so the long ones are never walked.

    The answer, witness included, is the one the full list gives. The sort
    key starts with length, so the prefix P is a prefix of the full list F.
    The P-optimal witness H* meets every cycle, so f_P <= f <= |H*| = f_P.
    On a node both searches reach they branch alike, and greedy over F's
    uncovered masks counts at least as many as over P's, so F prunes no less;
    any F-leaf of size f is a P-leaf of size f no earlier in DFS order. So
    the full search's first optimum is H* too.
    """
    if cycles is not None:
        return _min_transversal(m, [c.matched_edges for c in cycles])
    walk = _alternating_cycle_walker(g, m)
    result = ForcingResult(0, 0)
    cap = 0
    while (cap := _shortest_unhit_length(walk, result.witness, cap)) is not None:
        prefix = sorted(walk(cap), key=_canonical_order)
        result = _min_transversal(m, [c.matched_edges for c in prefix])
    return result


def _perfect_matchings(g: Graph) -> list[int]:
    """All perfect matchings of g, enumerated once and memoized on the graph."""
    ms = getattr(g, "_perfect_matchings", None)
    if ms is None:
        ms = g._perfect_matchings = enumerate_perfect_matchings(g)
    return ms


def forcing_number_by_subset_search(g: Graph, m: int) -> ForcingResult:
    """f(g, m) straight from the definition.

    For k = 0, 1, ... try every k-subset of m in lexicographic order by edge
    index; a subset forces iff no other perfect matching contains it.
    Returns the first success. k = 0 covers graphs whose matching is already
    unique. Each other matching o is reduced to its overlap o & m, and only
    the inclusion-maximal overlaps are kept: a subset of m lies in some other
    matching iff it lies in one of those.
    """
    if not is_perfect_matching(g, m):
        raise DomainError("not a perfect matching of this graph")
    overlaps = sorted(
        {o & m for o in _perfect_matchings(g) if o != m},
        key=int.bit_count,
        reverse=True,
    )
    maximal: list[int] = []
    for q in overlaps:  # a superset of q, if any, came earlier
        if all(q & ~p for p in maximal):
            maximal.append(q)
    bits = [1 << e for e in iter_bits(m)]
    for k in range(len(bits) + 1):
        for combo in combinations(bits, k):
            s = sum(combo)
            if all(s & ~q for q in maximal):
                return ForcingResult(k, s)
    raise AssertionError("unreachable: a matching always forces itself")


def max_disjoint_alternating_cycles(cycles: list[AltCycle]) -> tuple[AltCycle, ...]:
    """A maximum family of pairwise vertex-disjoint cycles from `cycles`,
    the list enumerate_alternating_cycles(g, m) returns; its length is
    C(g, m).

    Exhaustive branch and bound over the canonically ordered cycle list:
    each node keeps the later cycles disjoint from everything chosen, and
    stops before branching on candidate j when no family from candidates[j:]
    can beat the incumbent. Such a family has at most len(candidates) - j
    cycles, and at most the vertex union of candidates[j:] over the length of
    candidates[j], which the canonical order (ascending length) makes the
    suffix's shortest cycle; the bound only falls as j grows. Only branches
    that cannot strictly beat the incumbent are cut, so the search returns
    the first maximum family in index order, as an unpruned search would.
    """
    best: tuple[AltCycle, ...] = ()

    def grow(candidates: list[AltCycle], chosen: tuple[AltCycle, ...]):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        k = len(candidates)
        unions = [0] * (k + 1)  # unions[j]: the vertex union of candidates[j:]
        for j in range(k - 1, -1, -1):
            unions[j] = unions[j + 1] | candidates[j].vertex_set
        for j, c in enumerate(candidates):
            room = unions[j].bit_count() // len(c.vertices)
            if len(chosen) + min(k - j, room) <= len(best):
                return
            rest = [d for d in candidates[j + 1 :] if not d.vertex_set & c.vertex_set]
            grow(rest, chosen + (c,))

    grow(cycles, ())
    return best


def compute_forcing(
    g: Graph, m: int, engine: str = "hitting_set", cycles: list[AltCycle] | None = None
) -> ForcingResult:
    """Dispatch to one engine, or run both and insist they agree ("both"
    then returns the hitting-set result).

    `cycles`, the already enumerated alternating cycles of (g, m), goes to
    the hitting set; the subset search does not read it.
    """
    if engine == "hitting_set":
        return forcing_number_by_hitting_set(g, m, cycles)
    if engine == "subset_search":
        return forcing_number_by_subset_search(g, m)
    if engine == "both":
        hit = forcing_number_by_hitting_set(g, m, cycles)
        sub = forcing_number_by_subset_search(g, m)
        if hit.forcing_number != sub.forcing_number:
            raise EngineMismatch(
                f"engines disagree on {g!r}, matching {m:#x}: "
                f"hitting_set={hit.forcing_number}, subset_search={sub.forcing_number}"
            )
        return hit
    raise DomainError(f"unknown engine {engine!r}")


class _RemoteTraceback(Exception):
    """A worker's traceback, set as the cause of the exception it raised."""

    def __str__(self) -> str:
        return self.args[0]


def _run_share(fn, items: list, start: int, step: int):
    """fn over items[start::step], stopping at the first item that raises.

    Returns the results and None, or the results so far and (index in
    items, exception) of the item that raised.
    """
    results = []
    for i in range(start, len(items), step):
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _child_share(fn, items: list, start: int, step: int, fd: int):
    """Run one share in a forked child, write it pickled to fd and leave by
    os._exit, so the child never flushes the parent's buffered output or
    runs its exit handlers. Exit status 0 means the whole share was written.
    """
    status = 1
    try:
        results, failure = _run_share(fn, items, start, step)
        text = None
        if failure is not None:
            text = "".join(traceback.format_exception(failure[1]))
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps((results, failure, text)))
        status = 0
    finally:
        os._exit(status)


def _fan_out(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], computed by up to `jobs` processes.

    With jobs > 1 (never more than there are items) and os.fork available,
    jobs - 1 forked children compute items[p::jobs], p = 1..jobs-1, and each
    sends its results back pickled through a pipe of its own, while this
    process computes items[0::jobs]; it then reads every pipe to EOF and
    reaps every child. fn and items reach the children by the fork, so only
    the results are pickled.

    The exception raised is the serial loop's: that of the first item in
    input order that raises, with a child's traceback as its cause. A child
    that ends without sending its whole share raises RuntimeError. No child
    outlives the call: if this process's own share is interrupted, the
    children are killed, and every one is reaped.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    pids, pipes, received, statuses = [], [], [], []
    try:
        for p in range(1, jobs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child_share(fn, items, p, jobs, w)  # never returns
            os.close(w)
            pids.append(pid)
            pipes.append(open(r, "rb"))
        own = _run_share(fn, items, 0, jobs)
        received = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if len(received) < len(pids):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    shares = [(*own, None)]
    for pid, data, status in zip(pids, received, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exited with {code}"
            raise RuntimeError(f"worker process {pid} {how} before sending its results")
        shares.append(pickle.loads(data))
    failures = [(*failure, text) for _, failure, text in shares if failure is not None]
    if failures:
        _, exc, text = min(failures, key=lambda f: f[0])
        if text is not None:
            exc.__cause__ = _RemoteTraceback(text)
        raise exc
    results = [None] * len(items)
    for p, (share, _, _) in enumerate(shares):
        results[p::jobs] = share
    return results


def forcing_numbers_map(
    g: Graph, matchings, engine: str = "hitting_set", jobs: int = 1
) -> list[ForcingResult]:
    """Per-matching forcing results, in input order.

    jobs > 1 shares the matchings out to that many processes, this one
    included, never more than there are matchings, and only when there are
    at least 8; the results are the serial loop's for every worker count.
    """
    matchings = list(matchings)
    if len(matchings) < 8:
        jobs = 1
    return _fan_out(lambda m: compute_forcing(g, m, engine), matchings, jobs)
