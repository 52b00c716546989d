"""The four workloads: the CLI calls of one pass, and the checks on their output.

Each workload is a `Plan`: `calls(threads)` gives the argv of every
`gpforce.cli.main` call in one pass, and `check(outputs, run_cli)` verifies
one pass's outputs (None for a failed call) against the oracles in
`oracles.py`, raising CheckFailed on the first disagreement. Checks run
outside the timed region; `run_cli` lets them make extra reference calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as o

ORACLE_SAMPLE = 8  # orbit representatives or queries re-solved by the oracles


class CheckFailed(AssertionError):
    """An output of the program disagrees with an oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Plan:
    calls: Callable[[int], list[list[str]]]
    check: Callable[[list[str], Callable[[list[str]], str]], None]
    uses_pool: bool


def _mask(edges) -> int:
    out = 0
    for e in edges:
        out |= 1 << e
    return out


def _poly(payload: dict) -> dict[int, int]:
    return {int(e): c for e, c in payload.items()}


def _check_poly_report(n: int, report: dict, matchings: list[int]) -> dict[int, int]:
    """Polynomial and statistics of a `poly --format json` report."""
    poly = _poly(report["polynomial"])
    require(len(matchings) == o.count_matchings(n), f"n={n}: enumeration misses matchings")
    require(
        sum(poly.values()) == len(matchings),
        f"n={n}: polynomial counts {sum(poly.values())} matchings, not {len(matchings)}",
    )
    stats = report["stats"]
    avg = Fraction(sum(e * c for e, c in poly.items()), len(matchings))
    require(stats["pm_count"] == len(matchings), f"n={n}: pm_count {stats['pm_count']}")
    require(stats["spectrum"] == sorted(poly), f"n={n}: spectrum {stats['spectrum']}")
    require(
        (stats["min_forcing"], stats["max_forcing"]) == (min(poly), max(poly)),
        f"n={n}: min/max forcing number",
    )
    require(
        stats["average_forcing"] == f"{avg.numerator}/{avg.denominator}",
        f"n={n}: average forcing number {stats['average_forcing']}",
    )
    return poly


def paper_tables() -> Plan:
    def calls(threads):
        return [["verify-paper", "--format", "json", "--threads", str(threads)]]

    def check(outputs, run_cli):
        report = json.loads(outputs[0])
        checks = {c["n"]: c for c in report["checks"]}
        require(sorted(checks) == list(o.PAPER_RANGE), f"tables for n = {sorted(checks)}")
        require(
            report["passed"] == report["total"] == len(o.PAPER_RANGE),
            f"{report['passed']}/{report['total']} tables reported as passing",
        )
        for n in o.PAPER_RANGE:
            c = checks[n]
            require(c["pass"] is True, f"n={n}: reported as failing")
            poly = _poly(c["polynomial_computed"])
            require(poly == o.PAPER_POLYNOMIALS[n], f"n={n}: polynomial {poly}")
            rows = sorted(tuple(r) for r in c["rows_computed"])
            require(rows == sorted(o.PAPER_ORBIT_ROWS[n]), f"n={n}: orbit rows {rows}")
            matchings = o.enumerate_matchings(n)
            require(
                len(matchings) == o.count_matchings(n) == sum(poly.values()),
                f"n={n}: matching count",
            )
            # the whole table again, by the definition, orbit by orbit
            own = sorted(
                (len(orbit), o.containment_forcing_number(matchings, orbit[0]))
                for orbit in o.rotation_orbits(n, matchings)
            )
            require(own == rows, f"n={n}: containment search gives rows {own}")

    return Plan(calls, check, uses_pool=True)


def cycles_n24(seed: int) -> Plan:
    n = 24

    def calls(threads):
        return [
            ["poly", "--n", str(n), "--orbits", "--format", "json", "--threads", str(threads)]
        ]

    def check(outputs, run_cli):
        report = json.loads(outputs[0])
        require(report["engine"] == "hitting_set", f"engine {report['engine']}")
        matchings = o.enumerate_matchings(n)
        poly = _check_poly_report(n, report, matchings)
        own = {orbit[0]: len(orbit) for orbit in o.rotation_orbits(n, matchings)}
        rows = [
            (_mask(r["representative_edges"]), r["pmc"], r["fn"]) for r in report["orbits"]
        ]
        require(
            {rep: pmc for rep, pmc, _ in rows} == own and len(rows) == len(own),
            "orbit representatives or sizes differ from the rotation orbits",
        )
        tally: dict[int, int] = {}
        for _, pmc, fn in rows:
            tally[fn] = tally.get(fn, 0) + pmc
        require(tally == poly, f"orbit rows add up to {tally}, polynomial is {poly}")
        for rep, _, fn in random.Random(seed).sample(rows, ORACLE_SAMPLE):
            f = o.containment_forcing_number(matchings, rep)
            require(f == fn, f"orbit {rep:#x}: reported f={fn}, containment gives {f}")

    return Plan(calls, check, uses_pool=True)


def subsets_n16(seed: int) -> Plan:
    n = 16

    def calls(threads, engine="subsets"):
        return [
            ["poly", "--n", str(n), "--engine", engine, "--format", "json",
             "--threads", str(threads)]
        ]

    def check(outputs, run_cli):
        report = json.loads(outputs[0])
        require(report["engine"] == "subset_search", f"engine {report['engine']}")
        matchings = o.enumerate_matchings(n)
        poly = _check_poly_report(n, report, matchings)
        other = json.loads(run_cli(calls(1, engine="cycles")[0]))
        require(
            (other["polynomial"], other["stats"]) == (report["polynomial"], report["stats"]),
            "the subset and cycle engines disagree",
        )
        orbits = o.rotation_orbits(n, matchings)
        own: dict[int, int] = {}
        for orbit in orbits:
            f = o.containment_forcing_number(matchings, orbit[0])
            own[f] = own.get(f, 0) + len(orbit)
        require(own == poly, f"containment search gives {own}, program gives {poly}")

    return Plan(calls, check, uses_pool=True)


# every 2nd rotation orbit of GP(24,2) and every 6th of GP(26,2), listed by
# their smallest member; the seed picks the rotation sent and the order
QUERY_ORBIT_STRIDES = {24: 2, 26: 6}


def _matching_text(n: int, m: int) -> str:
    return ",".join("-".join(o.edge_endpoints(n, e)) for e in o.bits(m))


def _check_packing(n: int, m: int, cycles: list[list[str]]) -> None:
    used: set[str] = set()
    for cycle in cycles:
        size = len(cycle)
        require(size >= 4 and size % 2 == 0, f"packed cycle of length {size}")
        require(len(set(cycle)) == size, "packed cycle repeats a vertex")
        require(not used & set(cycle), "packed cycles share a vertex")
        used |= set(cycle)
        in_m = []
        for i in range(size):
            e = o.edge_between(n, cycle[i], cycle[(i + 1) % size])
            require(e is not None, f"{cycle[i]}-{cycle[(i + 1) % size]} is not an edge")
            in_m.append(m >> e & 1)
        require(
            all(in_m[i] != in_m[(i + 1) % size] for i in range(size)),
            "packed cycle is not M-alternating",
        )


def force_queries(seed: int) -> Plan:
    rng = random.Random(seed)
    matchings = {n: o.enumerate_matchings(n) for n in QUERY_ORBIT_STRIDES}
    queries = []
    for n, stride in QUERY_ORBIT_STRIDES.items():
        for orbit in o.rotation_orbits(n, matchings[n])[::stride]:
            queries.append((n, rng.choice(orbit)))
    rng.shuffle(queries)

    def calls(threads):
        return [
            ["force", "--n", str(n), "--matching", _matching_text(n, m),
             "--format", "json", "--threads", "1"]
            for n, m in queries
        ]

    def check(outputs, run_cli):
        for n in matchings:
            require(len(matchings[n]) == o.count_matchings(n), f"n={n}: matchings missing")
        sample = set(random.Random(seed).sample(range(len(queries)), ORACLE_SAMPLE))
        for i, ((n, m), text) in enumerate(zip(queries, outputs)):
            if text is None:
                continue  # a failed call, counted as such
            r = json.loads(text)
            ms = matchings[n]
            f, w = r["forcing_number"], _mask(r["witness"])
            require(_mask(r["matching"]) == m, f"query {i}: echoed a different matching")
            require(r["engine"] == "hitting_set", f"query {i}: engine {r['engine']}")
            require(
                w & ~m == 0 and w.bit_count() == f, f"query {i}: witness is not {f} edges of M"
            )
            require(o.contains_only_itself(ms, m, w), f"query {i}: witness does not force M")
            cycles = o.single_cycle_partners(n, ms, m)
            require(
                r["n_alt_cycles"] == cycles,
                f"query {i}: {r['n_alt_cycles']} alternating cycles,"
                f" {cycles} matchings one cycle away",
            )
            require(r["packing_size"] <= f, f"query {i}: packing {r['packing_size']} > f={f}")
            if i in sample:
                argv = ["packing", "--n", str(n), "--matching", _matching_text(n, m)]
                packing = json.loads(run_cli(argv + ["--format", "json", "--threads", "1"]))
                require(
                    packing["size"] == r["packing_size"], f"query {i}: packing sizes differ"
                )
                _check_packing(n, m, packing["cycles"])
                own = o.containment_forcing_number(ms, m)
                require(own == f, f"query {i}: reported f={f}, containment gives {own}")

    return Plan(calls, check, uses_pool=False)


WORKLOADS = {
    "paper-tables": lambda seed: paper_tables(),
    "cycles-n24": cycles_n24,
    "subsets-n16": subsets_n16,
    "force-queries": force_queries,
}
