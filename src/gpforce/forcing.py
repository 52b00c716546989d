"""Forcing numbers of perfect matchings by two independent exact engines.

A subset S of a perfect matching M is a forcing set when no other perfect
matching contains S; f(G, M) is the smallest size of such a subset. The two
engines here must always agree:

  * subset search: the definition, read against every other perfect
    matching o. S forces M iff S meets M & ~q for every inclusion-maximal
    overlap q = o & M. A depth-first walk tries subsets by size, then in
    lexicographic order, and cuts a branch when an unmet set lies wholly
    below the next edge it may pick, or when more pairwise disjoint unmet
    sets remain than picks. Neither cut drops a forcing subset, so the
    witness is the plain scan's first success;
  * hitting set: S forces M exactly when S meets the matched edges of every
    M-alternating cycle, so f(G, M) is the minimum transversal of those
    cycles, found by branch and bound.

Their agreement on every input is itself a theorem, which makes running both
a built-in correctness oracle.

The alternating cycles come from a depth-first walk on an explicit stack.
Each stack entry carries the path's vertex and edge masks, not the path, and
the walk yields one int per cycle, its canonical key. In a graph of N
vertices and E edges, the key of a cycle with vertex set V and edge set S is

    (|V| << N | the N-bit complement of rev(V)) << E | S,

where rev(V) holds vertex v as bit N-1-v. Of two vertex sets of one size, the
one with the larger rev(V) has the lexicographically smaller sorted vertex
tuple, so ascending keys order cycles by length, then sorted vertex tuple,
then edge set: the canonical cycle order. key >> (N + E) is the cycle's
vertex count and key & m its matched edges. The walk can stop at a cycle
length and skip the cycles that a given set of matched edges already meets.

The transversal and the maximum disjoint packing, whose size C(G, M) bounds
f(G, M) below, both read the sorted keys alternating_cycle_keys returns, so a
caller that needs both walks once and passes the keys on. Without them the
transversal deepens instead: it solves on the short cycles and walks longer
ones only while its witness leaves one of them unhit. AltCycle objects, with
their vertex paths, are rebuilt from keys by cycles_of_keys, for the cycles
a caller prints.

forcing_numbers_map runs one engine over many matchings, in one process or
fanned out by _fan_out: jobs - 1 forked children each compute a strided
share and send it back through a pipe while the calling process computes
the first share itself. The results, and the exception raised if any, are
those of the serial loop. verify_published_tables fans out the same way,
by whole tables. pickle, signal and traceback serve the fan-out alone, so
_fan_out imports them and a serial run never loads them.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .graphs import DomainError, Graph
from .matchings import (
    count_matchings_containing,
    is_perfect_matching,
    iter_bits,
    perfect_matchings,
)


class EngineMismatch(RuntimeError):
    """The two forcing engines disagreed; this always signals a bug."""


class AltCycle(NamedTuple):
    """An M-alternating cycle: vertex sequence plus derived bitmasks.

    `edges` holds the complete cycle edge set, matched and unmatched alike,
    and is the last field of the canonical key. Two different cycles can
    share both matched_edges and vertex_set (two Hamiltonian alternating
    cycles of GP(6,2) do), so neither is enough to tell cycles apart on its
    own.
    """

    vertices: tuple[int, ...]
    edges: int
    matched_edges: int
    vertex_set: int


class ForcingResult(NamedTuple):
    forcing_number: int
    witness: int  # a minimum forcing set, as an edge bitmask


def _alternating_cycle_walker(g: Graph, m: int):
    """The alternating-cycle walk of (g, m), as a generator function
    walk(cap=None, avoid=0).

    walk yields, each exactly once and in walk order, the canonical keys of
    the M-alternating cycles of at most `cap` vertices (of any length when
    cap is None) whose matched edges miss `avoid`, a subset of m.

    Depth-first search over alternating paths seeded at each matched edge
    e0 = (a, b) with a < b: the path starts a, b and only visits matched edges
    with index greater than e0, so e0 is the lexicographically smallest
    matched edge of any cycle it closes and the fixed a -> b orientation rules
    out the reversed traversal, so every cycle is closed exactly once. A cycle
    through a vertex uses that vertex's matched edge, so the cycles that miss
    `avoid` are exactly those that miss its vertices.

    The walk keeps an explicit stack and tabulates each vertex's steps once
    per matching: a step from v takes an unmatched edge v-w, then w's matched
    edge to its partner x. A stack entry is (row, vmask, edges). vmask holds
    vertex v as bit N-1-v, as the key does. It holds the path's vertices, the
    vertices of `avoid` and those of every matched edge up to e0, so one test
    rejects a revisit and every vertex this seed may not use. edges is the
    bitmask of the path's edges, which names parallel edges apart. When a
    step reaches a again, the key is packed from vmask, with the blocked
    vertices other than a and b taken out, and from edges plus the step's
    two edges.

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
    num_edges = g.num_edges
    everyone = (1 << n) - 1
    bit = [1 << (n - 1 - v) for v in range(n)]
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
                steps[v].append((w, x, bit[w] | bit[x], step_edges))

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
        blocked = 0
        for eid in iter_bits(avoid):
            p, q = g.edges[eid]
            blocked |= bit[p] | bit[q]
        for e0 in iter_bits(m & ~avoid):
            a, b = g.edges[e0]
            seed = bit[a] | bit[b]
            blocked |= seed
            stack = [(start + b, blocked, 1 << e0)]
            push, pop = stack.append, stack.pop
            while stack:
                row, vmask, edges = pop()
                for w, to, wx, step_edges in steps[row]:
                    if not vmask & wx:
                        push((to, vmask | wx, edges | step_edges))
                    elif w == a:  # a is blocked, so a closing step lands here
                        vertex_set = vmask ^ blocked | seed
                        head = vertex_set.bit_count() << n | everyone ^ vertex_set
                        yield head << num_edges | edges | step_edges

    return walk


def alternating_cycle_keys(g: Graph, m: int) -> list[int]:
    """The canonical keys of every M-alternating cycle of (g, m), ascending,
    which is the canonical cycle order."""
    return sorted(_alternating_cycle_walker(g, m)())


def key_vertex_sets(g: Graph, keys: list[int]) -> list[int]:
    """The vertex set of each canonical key, vertex v as bit N-1-v."""
    everyone = (1 << g.num_vertices) - 1
    num_edges = g.num_edges
    return [key >> num_edges & everyone ^ everyone for key in keys]


def enumerate_alternating_cycles(g: Graph, m: int) -> list[AltCycle]:
    """Every M-alternating cycle of (g, m), each exactly once, in the
    canonical order: ascending length, then lexicographic vertex set, then
    edge set."""
    return cycles_of_keys(g, m, alternating_cycle_keys(g, m))


def cycles_of_keys(g: Graph, m: int, keys: list[int]) -> list[AltCycle]:
    """The AltCycle of each canonical key of (g, m), in the order given.

    Each path is rebuilt from its key's edge set. It starts a, b, the ends of
    the cycle's lowest matched edge with a < b, as the walk's does. From each
    vertex reached by its matched edge, the path leaves by the one unmatched
    edge of the set there, told apart by edge id so that parallel edges stay
    distinct, and then crosses the matched edge of the vertex it reaches.
    """
    partner = [-1] * g.num_vertices
    for eid in iter_bits(m):
        p, q = g.edges[eid]
        partner[p], partner[q] = q, p
    # steps[v]: (bit of the unmatched edge v-w, w, w's partner)
    steps = [[(1 << eid, w, partner[w]) for eid, w in pairs if not m >> eid & 1]
             for pairs in g.incident]
    edge_mask = (1 << g.num_edges) - 1
    digits = f"0{g.num_vertices}b"  # read backwards, rev(V) is V again
    cycles = []
    for rev_v, key in zip(key_vertex_sets(g, keys), keys):
        edges = key & edge_mask
        matched = edges & m
        a, x = g.edges[(matched & -matched).bit_length() - 1]
        path = [a, x]
        while True:
            for ebit, w, partner_w in steps[x]:
                if edges & ebit:
                    break
            if w == a:
                break
            x = partner_w
            path += (w, x)
        vertex_set = int(format(rev_v, digits)[::-1], 2)
        cycles.append(AltCycle(tuple(path), edges, matched, vertex_set))
    return cycles


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
    # pairwise disjoint masks need pairwise distinct hits, so this many
    # edges at least meet them all
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


def _shortest_unhit_length(walk, h: int, cap: int, shift: int) -> int | None:
    """The vertex count of the shortest alternating cycle whose matched edges
    miss h, or None if h meets them all; h meets every cycle of at most
    `cap` vertices, and a key shifted right by `shift` is its vertex count.
    One uncapped walk stops at the first such cycle, then capped walks look
    for a shorter one, shortest cap first."""
    first = next(walk(avoid=h), None)
    if first is None:
        return None
    longer = first >> shift
    shorter = (c for c in range(cap + 2, longer, 2) if next(walk(c, h), None))
    return next(shorter, longer)


def forcing_number_by_hitting_set(
    g: Graph, m: int, keys: list[int] | None = None
) -> ForcingResult:
    """f(g, m) as a minimum hitting set over alternating-cycle matched edges.

    `keys` is alternating_cycle_keys(g, m). The search is exact branch and
    bound over the cycles' matched edges, key & m, in that canonical order,
    and its first optimum is the witness.

    When `keys` is not given, the cycles are not all walked. Starting from
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
    if keys is not None:
        return _min_transversal(m, [key & m for key in keys])
    walk = _alternating_cycle_walker(g, m)
    shift = g.num_vertices + g.num_edges
    result = ForcingResult(0, 0)
    cap = 0
    while (cap := _shortest_unhit_length(walk, result.witness, cap, shift)) is not None:
        result = _min_transversal(m, [key & m for key in sorted(walk(cap))])
    return result


def forcing_number_by_subset_search(g: Graph, m: int) -> ForcingResult:
    """f(g, m) straight from the definition.

    A subset of m forces iff no other perfect matching contains it. Each
    other matching o is reduced to its overlap o & m, and only the
    inclusion-maximal overlaps q are kept: a subset of m lies in some other
    matching iff it lies in one of those, so it forces iff it meets every
    set m & ~q. k = 0 covers graphs whose matching is already unique.

    For k = 0, 1, ... in turn, the subsets of at most k edges of m are
    walked depth first in lexicographic order by edge index, and the first
    that meets every set is returned; no smaller k succeeded, so it has k
    edges. k starts at the greedy count of pairwise disjoint sets instead
    of 0: each of those needs an edge of its own, so no smaller k succeeds.
    A branch is cut
      * when an unmet set lies wholly below the next edge it may pick, since
        every later pick misses that set, and
      * when the greedy count of pairwise disjoint unmet sets exceeds the
        picks left, since each of them needs a pick of its own.
    Neither cut removes a k-subset that meets every set, and the walk visits
    the rest in the scan's order. So the answer, witness included, is the
    first success of the plain scan over every k-subset for k = 0, 1, ...
    """
    if not is_perfect_matching(g, m):
        raise DomainError("not a perfect matching of this graph")
    overlaps = sorted(
        {o & m for o in perfect_matchings(g) if o != m},
        key=int.bit_count,
        reverse=True,
    )
    maximal: list[int] = []
    for q in overlaps:  # a superset of q, if any, came earlier
        if all(q & ~p for p in maximal):
            maximal.append(q)
    bits = [1 << e for e in iter_bits(m)]

    def first(start: int, left: int, chosen: int, unmet: list[int]) -> int | None:
        # chosen plus the lexicographically first set of at most `left`
        # edges from bits[start:] that meets every set in `unmet`, or None
        if not unmet:
            return chosen
        if _greedy_disjoint_count(unmet) > left:
            return None
        lowest = min(unmet)  # of the unmet sets, the one with the lowest top edge
        for p in range(start, len(bits)):
            bit = bits[p]
            if bit > lowest:  # `lowest` lies wholly below every later pick
                return None
            rest = [d for d in unmet if not d & bit]
            found = first(p + 1, left - 1, chosen | bit, rest)
            if found is not None:
                return found
        return None

    sets = [m & ~q for q in maximal]  # smallest first
    k = _greedy_disjoint_count(sets)
    while (witness := first(0, k, 0, sets)) is None:
        k += 1
    return ForcingResult(k, witness)


def max_disjoint_vertex_sets(vertex_sets: list[int]) -> tuple[int, ...]:
    """A maximum family of pairwise disjoint sets from `vertex_sets`, the
    cycles' vertex sets in canonical order (of keys or of AltCycles); its
    length is C(g, m).

    Exhaustive branch and bound over the list: each node keeps the later
    sets disjoint from everything chosen, and stops before branching on
    candidate j when no family from candidates[j:] can beat the incumbent.
    Such a family has at most len(candidates) - j sets, and at most the
    union of candidates[j:] over the size of candidates[j], which the
    canonical order (ascending length) makes the suffix's smallest set; the
    bound only falls as j grows. Only branches that cannot strictly beat the
    incumbent are cut, so the search returns the first maximum family in
    index order, as an unpruned search would.
    """
    best: tuple[int, ...] = ()

    def grow(candidates: list[int], chosen: tuple[int, ...]):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        k = len(candidates)
        unions = [0] * (k + 1)  # unions[j]: the union of candidates[j:]
        for j in range(k - 1, -1, -1):
            unions[j] = unions[j + 1] | candidates[j]
        for j, c in enumerate(candidates):
            room = unions[j].bit_count() // c.bit_count()
            if len(chosen) + min(k - j, room) <= len(best):
                return
            grow([d for d in candidates[j + 1 :] if not d & c], chosen + (c,))

    grow(vertex_sets, ())
    return best


def max_disjoint_alternating_cycles(cycles: list[AltCycle]) -> tuple[AltCycle, ...]:
    """A maximum family of pairwise vertex-disjoint cycles from `cycles`,
    the list enumerate_alternating_cycles(g, m) returns: the family
    max_disjoint_vertex_sets finds, as cycles.

    Two cycles can share a vertex set. The first maximum family never holds
    the later of two such cycles, because putting the earlier in its place
    gives a family of the same size that comes first in index order. So each
    chosen set is the first cycle with that vertex set.
    """
    vertex_sets = [c.vertex_set for c in cycles]
    chosen = max_disjoint_vertex_sets(vertex_sets)
    return tuple(cycles[vertex_sets.index(s)] for s in chosen)


def compute_forcing(
    g: Graph, m: int, engine: str = "hitting_set", keys: list[int] | None = None
) -> ForcingResult:
    """Dispatch to one engine, or run both and insist they agree ("both"
    then returns the hitting-set result).

    `keys`, the already walked alternating_cycle_keys(g, m), goes to the
    hitting set; the subset search does not read it.
    """
    if engine == "hitting_set":
        return forcing_number_by_hitting_set(g, m, keys)
    if engine == "subset_search":
        return forcing_number_by_subset_search(g, m)
    if engine == "both":
        hit = forcing_number_by_hitting_set(g, m, keys)
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
    import pickle  # loaded by _fan_out before the fork: a sys.modules lookup
    import traceback

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

    Only this path needs pickle, signal and traceback, so they are imported
    here, before the first fork, and the children inherit them loaded.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import pickle
    import signal
    import traceback  # noqa: F401  (for _child_share, after the fork)

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
