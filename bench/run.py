#!/usr/bin/env python3
"""Benchmark of gpforce: one workload per run, one JSON result as the last line.

Run from the root of a gpforce checkout:

    python3 bench/run.py --workload cycles-n24 --seed 1 --seconds 20 --trace 0

The program is imported from ./src and driven through `gpforce.cli.main`
by a single client in this process, one call after another (a closed loop).
A pass is the workload's list of calls; passes repeat until --seconds have
gone by, and every pass is whole.

--trace 0 reports the end-to-end metrics, with no tracing. --trace 1
reports the per-layer metrics instead: it repeats rounds of an untraced pass
at 1 worker, a traced pass at 1 worker and, for workloads with a process
pool, a pass at all usable cores that times only the fan-out. See README.md.

The outputs of every pass are checked against the oracles in oracles.py
after the timed region; the run exits 1 with "correct": false if any check
fails, and 2 without a result if ./src/gpforce is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import FULL_TARGETS, MAP_TARGETS, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, CheckFailed, require  # noqa: E402

SETUP_SPAWNS = 7
RESULTS_DIR = ".bench_results"


def cpu_seconds() -> float:
    """User plus system CPU of this process and of the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(src: Path) -> list[float]:
    """Seconds from spawning a Python process to `import gpforce` done in it.

    The child reads the same system-wide monotonic clock as the parent, so
    interpreter teardown is not counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import gpforce, time; print(repr(time.monotonic()))"
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        )
        times.append(float(done.stdout) - start)
    return times


class Pass(NamedTuple):
    outputs: list[str | None]
    latencies: list[float]
    wall_s: float
    cpu_s: float
    failed: int


def run_pass(main, calls) -> Pass:
    """One pass: every call in order, timed one by one.

    A call fails when it raises or exits with neither 0 nor 1, and leaves
    None as its output; exit 1 reports a verification mismatch, whose output
    the checks then reject."""
    outputs, latencies, failed = [], [], 0
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for argv in calls:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            code = main(argv, out=buf)
        except Exception:
            traceback.print_exc()
            code = None
        latencies.append(time.perf_counter() - start)
        if code not in (0, 1):
            failed += 1
            print(f"call failed with exit {code}: gpforce {' '.join(argv)}", file=sys.stderr)
        outputs.append(buf.getvalue() if code in (0, 1) else None)
    return Pass(outputs, latencies, time.perf_counter() - wall0, cpu_seconds() - cpu0, failed)


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_run(cli, plan, workers: int, seconds: float):
    calls = plan.calls(workers)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli.main, calls))
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p90_ms": (1000 * percentile(latencies, 90), "ms"),
    }
    raw = {
        "pass_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "latency_s": latencies,
    }
    return passes, metrics, raw


def layer_metrics(full: Tracer, light_one: Tracer, light_all: Tracer | None, walls, workers):
    """Per-layer metrics of one traced round; see README.md for each."""
    cycles = full.get("forcing.cycles")
    serial = light_one.get("forcing.map").total_s
    map_s = light_all.get("forcing.map").total_s if light_all else 0.0
    return {
        "matchings.enumerate_s": (full.get("matchings.enumerate").total_s, "s"),
        "matchings.count_calls": (full.get("matchings.count").calls, "count"),
        "matchings.count_s": (full.get("matchings.count").total_s, "s"),
        "forcing.cycles_calls": (cycles.calls, "count"),
        "forcing.cycles_found": (cycles.items, "count"),
        "forcing.cycles_s": (cycles.total_s, "s"),
        "forcing.cycles_us_per_cycle": (
            1e6 * cycles.total_s / cycles.items if cycles.items else 0.0,
            "us",
        ),
        "forcing.hitting_set_self_s": (full.get("forcing.hitting_set").self_s, "s"),
        "forcing.subset_search_self_s": (full.get("forcing.subset_search").self_s, "s"),
        "forcing.packing_s": (full.get("forcing.packing").self_s, "s"),
        "forcing.map_s": (map_s, "s"),
        "forcing.pool_efficiency": (serial / (map_s * workers) if map_s else 0.0, "ratio"),
        "polynomial.orbits_s": (full.get("polynomial.orbits").total_s, "s"),
        "polynomial.orbit_count": (full.get("polynomial.orbits").items, "count"),
        "tables.check_s": (full.get("tables.check").total_s, "s"),
        "cli.other_s": (full.get("cli.main").self_s, "s"),
        "trace.overhead_s": (walls["full"] - walls["light_one"], "s"),
    }


def traced_run(cli, plan, workers: int, seconds: float):
    """Rounds of light@1, full@1 and (with a pool) light@all-cores passes."""
    passes, rounds, last = [], [], None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        tracers, walls = {}, {}
        kinds = [("light_one", MAP_TARGETS, 1), ("full", FULL_TARGETS, 1)]
        if plan.uses_pool:
            kinds.append(("light_all", MAP_TARGETS, workers))
        for kind, targets, threads in kinds:
            tracer = Tracer()
            with patched(tracer, targets):
                result = run_pass(tracer.wrap("cli.main", cli.main), plan.calls(threads))
            passes.append(result)
            tracers[kind], walls[kind] = tracer, result.wall_s
        rounds.append(
            layer_metrics(
                tracers["full"], tracers["light_one"], tracers.get("light_all"), walls, workers
            )
        )
        last = tracers["full"]
    metrics = {
        name: (statistics.median(r[name][0] for r in rounds), unit)
        for name, (_, unit) in rounds[0].items()
    }
    raw = {"rounds": [{k: v for k, (v, _) in r.items()} for r in rounds]}
    trace = {
        "spans": [
            {"id": i, "parent": p, "name": name, "start": s, "end": e}
            for i, p, name, s, e in last.spans
        ],
        "stats": {name: vars(totals) for name, totals in last.stats.items()},
    }
    return passes, metrics, raw, trace


def environment(workers: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "usable_cores": workers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gpforce" / "__init__.py").is_file():
        print(f"error: no gpforce sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gpforce
    from gpforce import cli

    if Path(gpforce.__file__).resolve().parent != (src / "gpforce").resolve():
        print(f"error: imported gpforce from {gpforce.__file__}, not {src}", file=sys.stderr)
        return 2

    workers = len(os.sched_getaffinity(0))
    env = environment(workers)
    print(
        f"# gpforce bench {args.workload} seed={args.seed} trace={args.trace}: "
        f"python {env['python']}, numpy {env['numpy']}, "
        f"numba {'present' if env['numba'] else 'absent'}, {workers} usable cores",
        flush=True,
    )
    clock = [time.perf_counter()]
    plan = WORKLOADS[args.workload](args.seed)
    clock.append(time.perf_counter())
    if args.trace:
        passes, metrics, raw, trace = traced_run(cli, plan, workers, args.seconds)
    else:
        passes, metrics, raw = timed_run(cli, plan, workers, args.seconds)
        setup = measure_setup(src)
        metrics["setup_s"] = (statistics.median(setup), "s")
        raw["setup_s"] = setup
        trace = None

    clock.append(time.perf_counter())
    attempted = sum(len(p.outputs) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = True
    first = passes[0].outputs
    try:
        for p in passes:
            require(
                all(a is None or b is None or a == b for a, b in zip(p.outputs, first)),
                "a pass printed different output from the first",
            )
        if any(x is not None for x in first):
            plan.check(first, lambda argv: _run_cli(cli, argv))
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        # ValueError and the rest: output that does not parse as expected
        print(f"check failed: {exc!r}", file=sys.stderr)
        correct = False
    clock.append(time.perf_counter())
    spans = (b - a for a, b in zip(clock, clock[1:]))
    phases = dict(zip(("prepare_s", "measure_s", "check_s"), spans))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        record = {"environment": env, "args": vars(args), **result}
        json.dump({**record, "phases": phases, "raw": raw}, fh, indent=1)
    if trace is not None:
        with open(out_dir / f"{stem}-spans.json", "w") as fh:
            json.dump(trace, fh)
    print(json.dumps(result))
    return 0 if correct else 1


def _run_cli(cli, argv) -> str:
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    require(code == 0, f"reference call exited {code}: gpforce {' '.join(argv)}")
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
