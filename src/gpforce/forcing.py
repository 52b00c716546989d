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
    cycles. It is found as the subset search finds its subset: by size,
    depth first, with the same cut on pairwise disjoint unmet sets.

Their agreement on every input is itself a theorem, which makes running both
a built-in correctness oracle.

The alternating cycles come from a walk that extends each seed edge's open
paths one step per level, so it meets each seed's cycles shortest first.
A level entry is one int, not the path: the path's last vertex above its
vertex mask above its edge mask. Each step is one word, made once per
matching, that an entry takes by one AND test and one XOR. A path is
extended only if it can still close within the seed's levels: a seed's
cycles have no more matched edges than it has unskipped ones at or above
it, which caps its levels, and each seed's table of the fewest steps back
to the seed, made once per matching when first needed, bounds the steps
left from below for every cap and every set of skipped edges. The walk
yields one int per cycle, its canonical key. In a graph of N vertices and
E edges, the key of a cycle with vertex set V and edge set S is

    (|V| << N | the N-bit complement of rev(V)) << E | S,

where rev(V) holds vertex v as bit N-1-v. Of two vertex sets of one size, the
one with the larger rev(V) has the lexicographically smaller sorted vertex
tuple, so ascending keys order cycles by length, then sorted vertex tuple,
then edge set: the canonical cycle order. key >> (N + E) is the cycle's
vertex count and key & m its matched edges. A walk capped at a cycle length
is the same walk stopped after fewer levels, less the paths that cannot
close within them, so it yields the uncapped walk's keys of at most that
length, in the same order; it can also skip the cycles that a given set of
matched edges already meets.

The transversal and the maximum disjoint packing, whose size C(G, M) bounds
f(G, M) below, both read the cycles' matched edges, key & m of the sorted
keys alternating_cycle_keys returns, so a caller that needs both walks once
and passes the keys on, and can stop the packing once it holds f cycles.
The transversal deepens on both paths: it solves on the short cycles and
looks at longer ones only while its witness leaves one of them unhit, in
the walk or, when given, in the key list. AltCycle objects, with their
vertex paths, are rebuilt from keys by cycles_of_keys, for the cycles a
caller prints.

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
from bisect import bisect_left
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

    The alternating paths are seeded at each matched edge e0 = (a, b) with
    a < b in turn, highest index first: the path starts a, b and only visits
    matched edges with index greater than e0, so e0 is the lexicographically
    smallest matched edge of any cycle it closes and the fixed a -> b
    orientation rules out the reversed traversal, so every cycle is closed
    exactly once. A high seed's paths have few matched edges to use, so its
    cycles are short, and a walk that stops at its first key meets a short
    cycle. A cycle through a vertex uses that vertex's matched edge, so the
    cycles that miss `avoid` are exactly those that miss its vertices.

    One seed's paths are walked level by level: level d holds the paths of
    d steps after a, b, and every step from a path either closes a cycle of
    2d + 2 vertices or goes to level d + 1. So a seed's cycles come out
    shortest first. A step from v takes an unmatched edge v-w, then w's
    matched edge to its partner x. A seed walks at most cap // 2 levels (an
    uncapped walk is capped at N), 0 to cap // 2 - 1, and at most above + 1,
    where `above` counts the seeds walked before it: its paths may cross no
    matched edge but e0 and those above it that `avoid` misses, so it closes
    no cycle of more than above + 1 matched edges, at level above.

    No path is pushed that cannot close by the seed's last level. togo[x],
    per seed, is the fewest steps from x that end by closing on a, crossing
    only the vertices of matched edges above e0 (the closing step counts as
    one). A backward search over the steps computes it the first time a walk
    reaches the seed, and later walks reuse it. It ignores `avoid` and the
    path's own vertices, which only block more steps, so it is a lower
    bound for every cap and `avoid`. A path pushed from level d to x cannot
    close before level d + togo[x], so it is pushed only when togo[x] <=
    levels - 1 - d, the last level less d; a seed is skipped when togo[b]
    > levels. Every entry dropped, by this bound or by the level cap, would
    close no cycle, and the others keep their order, so the keys and their
    order do not change.

    A level entry is one int, the path's last vertex above its vertex mask
    above its edge mask: (v << N | vmask) << E | edges. vmask holds vertex
    v as bit N-1-v, as the key does. It holds the path's vertices, the
    vertices of `avoid` and those of every matched edge up to e0, so one
    test rejects a revisit and every vertex this seed may not use. As m
    covers every vertex, these blocked vertices are all of them at the
    highest seed, and each seed frees its own two for the seeds below it.
    edges is the bitmask of the path's edges, which names parallel edges
    apart. Each step is tabulated once per matching as the bits of w and x
    in the vertex field and one word: those bits, v ^ x in the last-vertex
    field and the step's two edges. A step is taken when the entry has
    neither bit, and then none of the word's bits but the last vertex's is
    in the entry either, so entry ^ word is the path one step on. When a
    step reaches a again, which vmask blocks, the key is packed from vmask,
    with the blocked vertices other than a and b taken out, and from edges
    with the step's two edges ORed in: the matched one is e0, already set.
    """
    if not is_perfect_matching(g, m):
        raise DomainError("not a perfect matching of this graph")
    n = g.num_vertices
    num_edges = g.num_edges
    vertex_shift = n + num_edges  # an entry shifted by this is its last vertex
    below = (1 << vertex_shift) - 1  # an entry's vertex and edge fields
    everyone = below ^ ((1 << num_edges) - 1)  # the whole vertex field
    bit = [1 << (vertex_shift - 1 - v) for v in range(n)]  # v's bit in that field
    partner = [-1] * n
    matched_edge_at = [-1] * n
    for eid in iter_bits(m):
        a, b = g.edges[eid]
        partner[a], partner[b] = b, a
        matched_edge_at[a] = matched_edge_at[b] = eid
    # steps[v]: (w, x, bits of w and x, word) for each step v-w-x, and
    # into[x]: (v, bits of w and x) for the same steps, by where they end
    steps = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    for v, pairs in enumerate(g.incident):
        for eid, w in pairs:
            if not m >> eid & 1:
                x = partner[w]
                wx = bit[w] | bit[x]
                word = (v ^ x) << vertex_shift | wx | 1 << eid | 1 << matched_edge_at[w]
                steps[v].append((w, x, wx, word))
                into[x].append((v, wx))

    # seeds: (e0, a, b, bits of a and b), highest e0 first; blocked_at[e0]:
    # the vertices of the matched edges up to e0
    seeds = []
    blocked_at = {}
    blocked = everyone
    for e0 in reversed(list(iter_bits(m))):
        blocked_at[e0] = blocked
        a, b = g.edges[e0]
        seed = bit[a] | bit[b]
        seeds.append((e0, a, b, seed))
        blocked ^= seed

    togo_at = [None] * num_edges  # each seed's togo, made when first walked

    def distances(e0: int) -> list[int]:
        # togo[v]: the fewest steps from v that close on a, through the
        # vertices of the matched edges above e0 alone; n when there are none
        _, b = g.edges[e0]
        blocked = blocked_at[e0]
        togo = [n] * n
        frontier = [v for v, _ in into[b]]  # the steps into b cross a: they close
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
        togo_at[e0] = togo
        return togo

    def walk(cap: int | None = None, avoid: int = 0):
        cap_levels = (n if cap is None else cap) // 2
        blocked = everyone
        for above, (e0, a, b, seed) in enumerate([s for s in seeds if not avoid >> s[0] & 1]):
            togo = togo_at[e0] or distances(e0)
            levels = above + 1 if above < cap_levels else cap_levels
            level = [b << vertex_shift | blocked | 1 << e0] if togo[b] <= levels else []
            head = 2 << vertex_shift  # the length field of the keys this level closes
            left = levels - 1  # the steps a path pushed from this level may take
            while level:
                deeper = []
                push = deeper.append
                for entry in level:
                    for w, x, wx, word in steps[entry >> vertex_shift]:
                        if not entry & wx:
                            if togo[x] <= left:  # it can still close in time
                                push(entry ^ word)
                        elif w == a:  # a is blocked, so a closing step lands here
                            yield head | (entry | word) & below ^ everyone ^ blocked ^ seed
                level = deeper
                head += 2 << vertex_shift
                left -= 1
            blocked ^= seed  # the seeds below may use this edge

    return walk


def alternating_cycle_keys(g: Graph, m: int) -> list[int]:
    """The canonical keys of every M-alternating cycle of (g, m), ascending,
    which is the canonical cycle order."""
    return sorted(_alternating_cycle_walker(g, m)())


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
    distinct, and then crosses the matched edge of the vertex it reaches. A
    cycle with k matched edges is back at a after k such steps. Raises
    DomainError for a key with no matched edge, with no unmatched edge
    leaving a vertex the path reaches, or whose path does not close within
    those k steps or closes on fewer edges than the key has. It also raises
    when the path repeats a vertex, or when the key's vertex count or vertex
    set is not the path's. So the AltCycle's vertex_set is always the path's.
    """
    n = g.num_vertices
    everyone = (1 << n) - 1
    partner = [-1] * n
    for eid in iter_bits(m):
        p, q = g.edges[eid]
        partner[p], partner[q] = q, p
    # steps[v]: (bit of the unmatched edge v-w, w, w's partner)
    steps = [[(1 << eid, w, partner[w]) for eid, w in pairs if not m >> eid & 1]
             for pairs in g.incident]
    edge_mask = (1 << g.num_edges) - 1
    cycles = []
    for key in keys:
        edges = key & edge_mask
        matched = edges & m
        if not matched:
            raise DomainError(f"key {key:#x} has no edge of the matching")
        a, x = g.edges[(matched & -matched).bit_length() - 1]
        path = [a, x]
        for _ in range(matched.bit_count()):  # a cycle closes in this many steps
            for ebit, w, partner_w in steps[x]:
                if edges & ebit:
                    break
            else:
                raise DomainError(f"key {key:#x}: no unmatched edge leaves {x}")
            if w == a:
                break
            x = partner_w
            path += (w, x)
        if w != a or len(path) != edges.bit_count():
            raise DomainError(f"key {key:#x}: its edges are not one closed path")
        rev_v = sum(1 << n - 1 - v for v in set(path))
        head = len(path) << n | everyone ^ rev_v
        if rev_v.bit_count() != len(path) or key >> g.num_edges != head:
            raise DomainError(f"key {key:#x}: its vertex fields are not its path's")
        cycles.append(AltCycle(tuple(path), edges, matched, sum(1 << v for v in path)))
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


def _min_transversal(cycle_masks: list[int], k: int) -> ForcingResult:
    """The minimum size f of an edge set that meets every mask, and the
    first such set in depth-first order, where a node branches on the first
    unmet mask's edges in ascending index order.

    k must not exceed f. For k, k + 1, ... in turn, from the greedy count
    of pairwise disjoint masks if that is larger, the walk looks for a leaf
    of at most k picks, and cuts a node when more pairwise disjoint unmet
    masks remain than picks. No leaf has fewer than f picks, so the first k
    that succeeds is f. The cut keeps every node above a leaf of f picks,
    so the leaf found is the first of size f in the unpruned order.

    A node with one pick left is settled without branching. Its leaves are
    the edges common to every unmet mask, and the first in branching order
    is the lowest, the lowest bit of the masks' AND; when the AND is 0 there
    is none, as there is when two of them are disjoint.
    """

    def first(left: int, masks: list[int]) -> int | None:
        # the first leaf of at most `left` picks that meets every mask
        if not masks:
            return 0
        if left == 1:
            common = masks[0]
            for cm in masks:
                common &= cm
            return common & -common or None
        if _greedy_disjoint_count(masks) > left:
            return None
        for eid in iter_bits(masks[0]):
            ebit = 1 << eid
            found = first(left - 1, [cm for cm in masks if not cm & ebit])
            if found is not None:
                return found | ebit
        return None

    k = max(k, _greedy_disjoint_count(cycle_masks))
    while (witness := first(k, cycle_masks)) is None:
        k += 1
    return ForcingResult(k, witness)


def forcing_number_by_hitting_set(
    g: Graph, m: int, keys: list[int] | None = None
) -> ForcingResult:
    """f(g, m) as a minimum hitting set over alternating-cycle matched edges.

    `keys` is alternating_cycle_keys(g, m). The witness is the first minimum
    transversal of the cycles' matched edges, key & m, in that canonical
    order, in _min_transversal's depth-first order. Raises DomainError when
    m is not a perfect matching of g, when a key has no matched edge, as no
    edge set meets it, and when the keys do not ascend, as the prefix up to
    a length would then miss a cycle the witness leaves unhit: the search
    below would never end.

    The search deepens over the cycles. Starting from the empty family, it
    runs on the canonical prefix of cycles of at most `cap` vertices, and a
    walk that skips the witness's vertices looks for a cycle it leaves
    unhit; if there is one, cap rises to the length of the first it meets
    and the search runs again. That cycle is longer than the last cap, as
    the witness meets every cycle up to it, so each round's prefix contains
    the last one and its f is no smaller: each round starts at the last
    round's f. Without `keys` the walk is the cycle walk, whose first unhit
    cycle is the shortest of its seed, and the long cycles of most matchings
    are never walked. With `keys` it reads the list: the prefix up to cap is
    a slice, found by bisection as the keys ascend by length, and the first
    unhit key is the shortest unhit cycle. So the transversal never searches
    the many long cycles that a witness of the short ones already meets.

    The answer, witness included, is the one the full list gives. The sort
    key starts with length, so the prefix P is a prefix of the full list F.
    The P-optimal witness H* meets every cycle, so f_P <= f <= |H*| = f_P.
    While P has an unmet mask, its first is F's, so the two trees branch
    alike. So an F-leaf of size f is a P-leaf, as a P-leaf above it would
    have fewer than f_P picks, and H*, which meets every cycle, is an F-leaf.
    No F-leaf of size f comes before H* in depth-first order.
    """
    shift = g.num_vertices + g.num_edges  # a key shifted by this is its length
    if keys is None:
        walk = _alternating_cycle_walker(g, m)  # which checks m
    elif not is_perfect_matching(g, m):
        raise DomainError("not a perfect matching of this graph")
    elif not all(key & m for key in keys):
        raise DomainError("a key has no edge of the matching")
    elif keys != sorted(keys):  # a prefix up to a length must hold every shorter key
        raise DomainError("the keys do not ascend")
    else:
        def walk(cap: int | None = None, avoid: int = 0):
            if cap is None:
                return (key for key in keys if not key & avoid)
            return keys[: bisect_left(keys, (cap + 1) << shift)]

    f, h = 0, 0
    while (unhit := next(walk(avoid=h), None)) is not None:
        f, h = _min_transversal([key & m for key in sorted(walk(unhit >> shift))], f)
    return ForcingResult(f, h)


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


def max_disjoint_sets(sets: list[int], bound: int | None = None) -> tuple[int, ...]:
    """The positions in `sets`, the cycles' matched edges in canonical order
    (key & m of each key, or each AltCycle's matched_edges), of the first
    maximum family of pairwise disjoint sets in index order; its length is
    C(g, m). Raises DomainError when a set is empty. Each vertex lies on its
    own matched edge, so two M-alternating cycles share a vertex exactly
    when they share a matched edge, and a cycle of 2k vertices has k of them.

    Exhaustive branch and bound over the list: each node keeps the later
    sets disjoint from everything chosen, and stops before branching on
    candidate j when no family from candidates[j:] can beat the incumbent.
    Such a family has at most len(candidates) - j sets, and at most the
    union of candidates[j:] over the size of candidates[j], which the
    canonical order (ascending length, so ascending size) makes the
    suffix's smallest set; the bound only falls as j grows. Only branches
    that cannot strictly beat the incumbent are cut, so the search finds the
    first maximum family in index order, as an unpruned search would.

    Two cycles can share their matched edges. That family never holds the
    later of two such cycles, because putting the earlier in its place gives
    a family of the same size that comes first in index order. So each
    chosen set is at the first position that holds it.

    `bound`, when given, must be at least C(g, m), as f(g, m) is, since each
    cycle of a disjoint family needs an edge of its own in a forcing set.
    The search then returns as soon as the incumbent has `bound` sets. Only
    a strictly larger family replaces the incumbent, so the first family of
    C sets is the one an unbounded search returns, and when C = bound no
    later branch can beat it.
    """
    if not all(sets):  # the size bound divides by each candidate's size
        raise DomainError("an empty set is no alternating cycle's matched edges")
    most = len(sets) if bound is None else bound  # no family has more sets
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
            if min(len(chosen) + min(k - j, room), most) <= len(best):
                return
            grow([d for d in candidates[j + 1 :] if not d & c], chosen + (c,))

    grow(sets, ())
    return tuple(sets.index(s) for s in best)


def max_disjoint_alternating_cycles(cycles: list[AltCycle]) -> tuple[AltCycle, ...]:
    """A maximum family of pairwise vertex-disjoint cycles from `cycles`,
    the list enumerate_alternating_cycles(g, m) returns: the family
    max_disjoint_sets finds on their matched edges, as cycles."""
    chosen = max_disjoint_sets([c.matched_edges for c in cycles])
    return tuple(cycles[p] for p in chosen)


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


def _child_share(fn, items: list, start: int, step: int, pipe):
    """Run one share in a forked child, write it pickled to `pipe`, a binary
    file, and leave by os._exit, so the child never flushes the parent's
    buffered output or runs its exit handlers. Exit status 0 means the whole
    share was written.
    """
    import pickle  # loaded by _fan_out before the fork: a sys.modules lookup
    import traceback

    status = 1
    try:
        results, failure = _run_share(fn, items, start, step)
        text = None
        if failure is not None:
            text = "".join(traceback.format_exception(failure[1]))
        with pipe:
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
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:  # closed here even if the fork fails
                pid = os.fork()
                if pid == 0:
                    _child_share(fn, items, p, jobs, out)  # never returns
            pids.append(pid)
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
