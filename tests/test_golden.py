"""Golden CLI outputs: exit code and stdout digest of every recorded call.

`golden_cli.json` lists each call's argv, its exit code and the sha256 of
what it printed to stdout. The calls cover every subcommand and format on
GP(n,2) for n = 5..12 (single-matching commands on the first, middle and last
matching), the single-matching commands (`force` with every engine, `cycles`
and `packing`, in table and json) on the three GP(24,2) matchings of
GP24_MANY_CYCLES and on the first, middle and last matching of GP(26,2),
`force --engine cycles` in table and json on the first, middle and last
matching of GP(28,2) and GP(30,2),
`poly --orbits` and dihedral `orbits` on GP(n,2) for n = 13..24, rotation
`orbits` on GP(n,2) for n = 25..28, a few k != 2 graphs (dihedral orbits
included, also for k > n/2), rotation `orbits` on GP(n,k) for every k of
n = 14..16, and verify-paper. A refactor must leave every entry unchanged;
rewrite the file, with

    PYTHONPATH=src python tests/test_golden.py

only for a change that means to alter an output, and say so with it.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from conftest import GP24_MANY_CYCLES
from gpforce.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = (
    "graph", "matchings", "force", "cycles", "packing", "poly", "orbits", "verify-paper",
)
ENGINES = ("cycles", "subsets", "both")
GROUPS = ("rotation", "dihedral")


def single_matching_calls(one: list[str]) -> list[list[str]]:
    """force with each engine, cycles and packing, in table and json, on the
    graph and matching that `one` names."""
    out = []
    for f in ("table", "json"):
        out += [["force", *one, "--engine", e, "--format", f] for e in ENGINES]
        out += [[cmd, *one, "--format", f] for cmd in ("cycles", "packing")]
    return out


def cases() -> list[list[str]]:
    """The recorded argv list; used only to write the golden file."""
    from gpforce.graphs import build_gp
    from gpforce.matchings import enumerate_perfect_matchings, matching_text

    out = []
    for n in range(5, 13):
        gp = ["--n", str(n)]
        out += [["graph", *gp, "--format", f] for f in ("table", "json", "dot")]
        out += [["matchings", *gp, "--format", f] for f in ("table", "json")]
        g = build_gp(n, 2)
        ms = enumerate_perfect_matchings(g)
        for m in (ms[0], ms[len(ms) // 2], ms[-1]):
            out += single_matching_calls([*gp, "--matching", matching_text(g, m)])
        for e in ENGINES:
            for f in ("table", "json"):
                for grp in GROUPS:
                    argv = ["poly", *gp, "--engine", e, "--format", f, "--group", grp]
                    out += [argv + ["--threads", "1"], argv + ["--orbits", "--threads", "1"]]
            for f in ("table", "json", "csv"):
                for grp in GROUPS:
                    out.append(
                        ["orbits", *gp, "--engine", e, "--format", f, "--group", grp,
                         "--threads", "1"]
                    )
    # larger n, where the hitting set settles representatives at different
    # cycle lengths
    for n in range(13, 25):
        gp = ["--n", str(n)]
        out.append(["poly", *gp, "--orbits", "--format", "json", "--threads", "1"])
        out.append(
            ["orbits", *gp, "--group", "dihedral", "--format", "csv", "--threads", "1"]
        )
    # single-matching commands where the cycle lists run to thousands: the
    # GP(24,2) representatives with the most alternating cycles, and the
    # first, middle and last matching of GP(26,2)
    for text in GP24_MANY_CYCLES.values():
        out += single_matching_calls(["--n", "24", "--matching", text])
    g = build_gp(26, 2)
    ms = enumerate_perfect_matchings(g)
    for m in (ms[0], ms[len(ms) // 2], ms[-1]):
        out += single_matching_calls(["--n", "26", "--matching", matching_text(g, m)])
    # the hitting set on the full key list above n = 26: force with the
    # cycles engine on the first, middle and last matching of GP(28,2) and
    # GP(30,2)
    for n in (28, 30):
        g = build_gp(n, 2)
        ms = enumerate_perfect_matchings(g)
        for m in (ms[0], ms[len(ms) // 2], ms[-1]):
            one = ["--n", str(n), "--matching", matching_text(g, m)]
            out += [["force", *one, "--engine", "cycles", "--format", f]
                    for f in ("table", "json")]
    # rotation orbit tables beyond the paper's range
    for n in range(25, 29):
        out.append(["orbits", "--n", str(n), "--format", "csv", "--threads", "1"])
    for n, k in ((7, 3), (9, 4), (11, 3)):
        gp = ["--n", str(n), "--k", str(k)]
        out += [["graph", *gp], ["matchings", *gp]]
        out += [["poly", *gp, "--orbits", "--format", f, "--threads", "1"]
                for f in ("table", "json")]
    # the reflection's block offsets depend on k, so pin dihedral orbits for
    # several k != 2, k > n/2 included
    for n, k in ((7, 3), (9, 4), (11, 3), (13, 5), (14, 3), (7, 5), (11, 7), (13, 8)):
        gp = ["--n", str(n), "--k", str(k), "--group", "dihedral", "--threads", "1"]
        out += [["poly", *gp, "--orbits"], ["orbits", *gp, "--format", "json"]]
    # rotation orbits of every k, gcd(n, k) > 1 and k > n/2 included: the
    # rotation split reads the reflections' k-dependent block offsets
    for n in (14, 15, 16):
        for k in range(1, n):
            if 2 * k != n:
                out.append(
                    ["orbits", "--n", str(n), "--k", str(k), "--format", "json",
                     "--threads", "1"]
                )
    out += [["verify-paper", "--format", f, "--threads", "1"] for f in ("table", "json")]
    # domain errors: exit 2 with nothing on stdout
    out += [
        ["graph", "--n", "6", "--k", "3"],
        ["force", "--n", "5", "--matching", "u0-u2"],
        ["verify-paper", "--min", "5", "--max", "99"],
    ]
    return out


def capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_subcommand():
    assert {case["argv"][0] for case in _recorded()} == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_outputs_unchanged(command):
    mismatches = []
    for case in _recorded():
        if case["argv"][0] != command:
            continue
        code, digest = capture(case["argv"])
        if (code, digest) != (case["exit"], case["sha256"]):
            mismatches.append(
                f"gpforce {' '.join(case['argv'])}: exit {code} (recorded {case['exit']})"
                + ("" if digest == case["sha256"] else ", stdout differs")
            )
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    records = []
    for argv in cases():
        code, digest = capture(argv)
        records.append({"argv": argv, "exit": code, "sha256": digest})
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{len(records)} cases written to {GOLDEN}")
