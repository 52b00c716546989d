"""Command-line interface.

Subcommands: graph, matchings, force, cycles, packing, poly, orbits,
verify-paper. The last three share their work out to worker processes:
--threads N means N computing processes, this one included, and the count
comes from --threads, then the FORCE_THREADS environment variable, then the
cores this process may use. poly and orbits share out the orbit
representatives of one graph; verify-paper hands out whole tables, each
computed in one process. Outputs are assembled after a deterministic sort,
so they are byte-identical for any worker count. The argument parser is
built once per process, on the first main call.

poly, orbits and verify-paper all run one pipeline, polynomial.analyze:
enumerate the perfect matchings, partition them into dihedral orbits and
compute the forcing number of each orbit's smallest member. --engine both
compares the two engines on each representative. polynomial.orbit_polynomial
tallies the orbits into the forcing polynomial, and rotation orbit tables
split each dihedral orbit into its rotation orbits.
The JSON report of a polynomial (n, k, coefficients, statistics, orbit rows)
is rendered by polynomial.report_json alone. cycles and packing print
vertex paths, which forcing.cycles_of_keys rebuilds from the cycle keys, for
packing only those of the chosen cycles.

A command loads only what it runs: the fan-out imports its own pickle,
signal and traceback, and main imports traceback only to report a crash.

Exit codes: 0 success, 1 verification mismatch, 2 domain error or invalid
arguments, 3 internal consistency failure (the engines or orbit bookkeeping
disagreed), 4 any other unexpected failure (a crash, reported with its
traceback on stderr), 141 stdout closed early by the reader (128 + SIGPIPE,
as a shell reports it for a C tool in a pipeline such as `gpforce ... | head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .forcing import (
    EngineMismatch,
    alternating_cycle_keys,
    compute_forcing,
    cycles_of_keys,
    enumerate_alternating_cycles,
    max_disjoint_alternating_cycles,  # noqa: F401 (bench/tracing.py patches it)
    max_disjoint_sets,
)
from .graphs import DomainError, build_gp, validate
from .matchings import (
    edge_indices,
    enumerate_perfect_matchings,
    is_perfect_matching,
    matching_text,
    parse_matching,
    uncovered_and_overcovered,
)
from .polynomial import (
    OrbitInconsistency,
    OrbitTable,
    analyze,
    matching_orbits,
    orbit_polynomial,
    poly_stats,
    polynomial_text,
    report_json,
)
from .tables import PUBLISHED_RANGE, verify_published_tables

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3
EXIT_UNEXPECTED = 4
EXIT_PIPE = 141

_ENGINES = {"cycles": "hitting_set", "subsets": "subset_search", "both": "both"}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _worker_count(text: str) -> int:
    """argparse type of --threads: a positive integer."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return jobs


def _add_common(sub, engine=True, fmt=("table", "json"), group=False):
    sub.add_argument("--n", type=int, required=True, help="ring length n of GP(n,k)")
    sub.add_argument("--k", type=int, default=2, help="inner skip k (default 2)")
    if engine:
        sub.add_argument(
            "--engine",
            choices=sorted(_ENGINES),
            default="cycles",
            help="forcing engine: cycles = alternating-cycle hitting set, "
            "subsets = definition-based subset search, both = run and compare",
        )
    sub.add_argument("--format", choices=fmt, default="table", dest="fmt")
    if group:
        sub.add_argument("--group", choices=("rotation", "dihedral"), default="rotation")
    sub.add_argument(
        "--threads",
        type=_worker_count,
        default=None,
        help="computing processes, this one included "
        "(default: FORCE_THREADS or all cores)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpforce",
        description="Exact forcing numbers, forcing polynomials, and matching "
        "orbits of generalized Petersen graphs GP(n,k).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="construct and describe GP(n,k)")
    _add_common(p, engine=False, fmt=("table", "json", "dot"))

    p = sub.add_parser("matchings", help="list all perfect matchings")
    _add_common(p, engine=False)

    p = sub.add_parser("force", help="forcing number of one matching")
    _add_common(p)
    p.add_argument("--matching", required=True, help='text form, e.g. "u0-v0,u1-v1,..."')

    p = sub.add_parser("cycles", help="alternating cycles of one matching")
    _add_common(p, engine=False)
    p.add_argument("--matching", required=True)

    p = sub.add_parser("packing", help="maximum disjoint alternating cycles")
    _add_common(p, engine=False)
    p.add_argument("--matching", required=True)

    p = sub.add_parser("poly", help="forcing polynomial and statistics")
    _add_common(p, group=True)
    p.add_argument("--orbits", action="store_true", help="append the orbit table")

    p = sub.add_parser("orbits", help="orbit table (NO, PMC, FN, representative)")
    _add_common(p, fmt=("table", "json", "csv"), group=True)

    p = sub.add_parser(
        "verify-paper", help="recompute the published GP(n,2) tables and diff"
    )
    p.add_argument("--min", type=int, default=PUBLISHED_RANGE.start, dest="n_min")
    p.add_argument("--max", type=int, default=PUBLISHED_RANGE.stop - 1, dest="n_max")
    p.add_argument(
        "--engine", choices=sorted(_ENGINES), default="cycles", help="forcing engine"
    )
    p.add_argument("--format", choices=("table", "json"), default="table", dest="fmt")
    p.add_argument("--threads", type=_worker_count, default=None)

    return parser


def _jobs(args) -> int:
    """Worker count for the subcommands that fan out: --threads, then
    FORCE_THREADS (under the same rule), then the cores this process may use.
    The library reads no environment; this is the only place that does."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get("FORCE_THREADS", "").strip()
    if env:
        try:
            return _worker_count(env)
        except argparse.ArgumentTypeError as exc:
            raise DomainError(f"FORCE_THREADS {exc}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_perfect_matching(g, text: str) -> int:
    m = parse_matching(g, text)
    if not is_perfect_matching(g, m):
        uncovered, overcovered = uncovered_and_overcovered(g, m)
        parts = []
        if uncovered:
            parts.append("uncovered: " + ",".join(g.vertex_name(v) for v in uncovered))
        if overcovered:
            parts.append(
                "doubly covered: " + ",".join(g.vertex_name(v) for v in overcovered)
            )
        raise DomainError("not a perfect matching (" + "; ".join(parts) + ")")
    return m


def cmd_graph(args, out) -> int:
    g = build_gp(args.n, args.k)
    if args.fmt == "dot":
        out.write(g.to_dot())
    elif args.fmt == "json":
        out.write(g.to_json())
    else:
        problems = validate(g)
        out.write(f"{g!r}: {g.num_vertices} vertices, {g.num_edges} edges, 3-regular\n")
        out.write("valid\n" if not problems else "\n".join(problems) + "\n")
    return EXIT_OK


def cmd_matchings(args, out) -> int:
    g = build_gp(args.n, args.k)
    ms = enumerate_perfect_matchings(g)
    if args.fmt == "json":
        out.write(
            _dumps(
                {
                    "n": args.n,
                    "k": args.k,
                    "count": len(ms),
                    "matchings": [edge_indices(m) for m in ms],
                }
            )
        )
    else:
        for i, m in enumerate(ms, start=1):
            out.write(f"{i:>4d}  {matching_text(g, m)}\n")
        out.write(f"{len(ms)} perfect matchings\n")
    return EXIT_OK


def cmd_force(args, out) -> int:
    g = build_gp(args.n, args.k)
    m = _parse_perfect_matching(g, args.matching)
    keys = alternating_cycle_keys(g, m)
    result = compute_forcing(g, m, _ENGINES[args.engine], keys)
    packing = max_disjoint_sets([key & m for key in keys], result.forcing_number)
    if args.fmt == "json":
        out.write(
            _dumps(
                {
                    "matching": edge_indices(m),
                    "forcing_number": result.forcing_number,
                    "witness": edge_indices(result.witness),
                    "packing_size": len(packing),
                    "n_alt_cycles": len(keys),
                    "engine": _ENGINES[args.engine],
                }
            )
        )
    else:
        out.write(f"matching: {matching_text(g, m)}\n")
        out.write(f"forcing number: {result.forcing_number}\n")
        out.write(f"witness: {matching_text(g, result.witness) or '(empty)'}\n")
        out.write(f"max disjoint alternating cycles: {len(packing)}\n")
        out.write(f"alternating cycles: {len(keys)}\n")
        out.write(f"engine: {_ENGINES[args.engine]}\n")
    return EXIT_OK


def _cycle_path_text(g, cycle) -> str:
    return "-".join(g.vertex_name(v) for v in cycle.vertices)


def cmd_cycles(args, out) -> int:
    g = build_gp(args.n, args.k)
    m = _parse_perfect_matching(g, args.matching)
    cycles = enumerate_alternating_cycles(g, m)
    if args.fmt == "json":
        out.write(
            _dumps(
                {
                    "matching": edge_indices(m),
                    "count": len(cycles),
                    "cycles": [
                        {
                            "vertices": [g.vertex_name(v) for v in c.vertices],
                            "matched_edges": edge_indices(c.matched_edges),
                        }
                        for c in cycles
                    ],
                }
            )
        )
    else:
        for i, c in enumerate(cycles, start=1):
            out.write(
                f"{i:>3d}  {_cycle_path_text(g, c)}"
                f"  [matched: {matching_text(g, c.matched_edges)}]\n"
            )
        out.write(f"{len(cycles)} alternating cycles\n")
    return EXIT_OK


def cmd_packing(args, out) -> int:
    g = build_gp(args.n, args.k)
    m = _parse_perfect_matching(g, args.matching)
    keys = alternating_cycle_keys(g, m)
    chosen = max_disjoint_sets([key & m for key in keys])
    packing = cycles_of_keys(g, m, [keys[p] for p in chosen])
    if args.fmt == "json":
        out.write(
            _dumps(
                {
                    "matching": edge_indices(m),
                    "size": len(packing),
                    "cycles": [[g.vertex_name(v) for v in c.vertices] for c in packing],
                }
            )
        )
    else:
        out.write(f"maximum disjoint alternating cycles: {len(packing)}\n")
        for c in packing:
            out.write(f"  {_cycle_path_text(g, c)}\n")
    return EXIT_OK


def cmd_poly(args, out) -> int:
    g = build_gp(args.n, args.k)
    engine = _ENGINES[args.engine]
    dihedral = analyze(g, engine, _jobs(args))
    poly = orbit_polynomial(dihedral)
    orbits = matching_orbits(g, dihedral, group=args.group) if args.orbits else None
    if args.fmt == "json":
        out.write(_dumps({**report_json(g, poly, orbits), "engine": engine}))
    else:
        stats = poly_stats(poly)
        rendered = stats.as_json_dict()
        out.write(f"GP({args.n},{args.k}) forcing polynomial: {poly}\n")
        out.write(f"perfect matchings: {stats.pm_count}\n")
        out.write(
            f"average forcing number: {rendered['average_forcing']}"
            f" ({rendered['average_forcing_decimal']})\n"
        )
        out.write(f"spectrum: {{{', '.join(map(str, stats.spectrum))}}}\n")
        out.write(f"min/max forcing number: {stats.min_forcing}/{stats.max_forcing}\n")
        if orbits is not None:
            out.write(OrbitTable(g, tuple(orbits)).to_text())
    return EXIT_OK


def cmd_orbits(args, out) -> int:
    g = build_gp(args.n, args.k)
    dihedral = analyze(g, _ENGINES[args.engine], _jobs(args))
    table = OrbitTable(g, tuple(matching_orbits(g, dihedral, group=args.group)))
    if args.fmt == "json":
        out.write(_dumps(table.to_json_dict()))
    elif args.fmt == "csv":
        out.write(table.to_csv())
    else:
        out.write(table.to_text())
    return EXIT_OK


def cmd_verify_paper(args, out) -> int:
    jobs = _jobs(args)
    if args.n_min > args.n_max:
        raise DomainError(f"--min {args.n_min} exceeds --max {args.n_max}")
    checks = verify_published_tables(
        range(args.n_min, args.n_max + 1), engine=_ENGINES[args.engine], jobs=jobs
    )
    n_pass = sum(1 for c in checks if c.ok)
    if args.fmt == "json":
        out.write(
            _dumps(
                {
                    "checks": [c.to_json_dict() for c in checks],
                    "passed": n_pass,
                    "total": len(checks),
                }
            )
        )
    else:
        for c in checks:
            if c.ok:
                out.write(
                    f"n={c.n}: PASS  {polynomial_text(c.computed_poly)}"
                    f"  ({len(c.computed_rows)} orbit rows)\n"
                )
            else:
                out.write(f"n={c.n}: FAIL\n")
                for line in c.diff_lines():
                    out.write(f"  {line}\n")
        out.write(f"{n_pass}/{len(checks)} tables reproduced\n")
    return EXIT_OK if n_pass == len(checks) else EXIT_MISMATCH


_HANDLERS = {
    "graph": cmd_graph,
    "matchings": cmd_matchings,
    "force": cmd_force,
    "cycles": cmd_cycles,
    "packing": cmd_packing,
    "poly": cmd_poly,
    "orbits": cmd_orbits,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send the interpreter's final flush of stdout
        # to /dev/null so it cannot fail a second time
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (EngineMismatch, OrbitInconsistency) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # exit 1 means a verification mismatch, so a crash must not surface as it
        import traceback  # only a crash needs it

        traceback.print_exc(file=sys.stderr)
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
