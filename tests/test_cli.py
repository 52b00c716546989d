"""Command-line behavior: formats, exit codes, determinism."""

import io
import json
import os
import signal
import subprocess
import sys

import pytest

from conftest import assert_no_children
from gpforce.cli import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_UNEXPECTED,
    main,
)

M1 = "u0-u2,u1-u3,u4-v4,v0-v1,v2-v3"
M6 = "u0-v0,u1-v1,u2-v2,u3-v3,u4-v4"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_poly_n11():
    code, text = run_cli("poly", "--n", "11", "--threads", "1")
    assert code == EXIT_OK
    assert "GP(11,2) forcing polynomial: 34x^3+11x^2" in text
    assert "perfect matchings: 45" in text


def test_poly_n6_both_engines():
    code, text = run_cli("poly", "--n", "6", "--engine", "both", "--threads", "1")
    assert code == EXIT_OK
    assert "10x^2" in text


def test_poly_beyond_published_range_with_both_engines():
    # no table to diff against out here: cross-engine agreement is the oracle
    code, text = run_cli("poly", "--n", "16", "--engine", "both", "--threads", "2")
    assert code == EXIT_OK
    assert "GP(16,2) forcing polynomial: 125x^4+68x^3" in text


def test_poly_with_orbit_table():
    code, text = run_cli("poly", "--n", "5", "--orbits", "--threads", "1")
    assert code == EXIT_OK
    assert "NO  PMC  FN  representative" in text
    assert "polynomial: 6x^2" in text


def test_graph_rejects_degenerate_k(capsys):
    code, _ = run_cli("graph", "--n", "6", "--k", "3")
    assert code == EXIT_DOMAIN
    assert "degenerate" in capsys.readouterr().err


def test_graph_dot_and_json():
    code, dot = run_cli("graph", "--n", "5", "--format", "dot")
    assert code == EXIT_OK and "u0 -- u2;" in dot
    code, blob = run_cli("graph", "--n", "5", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(blob)
    assert data["n"] == 5 and len(data["edges"]) == 15


def test_matchings_listing():
    code, text = run_cli("matchings", "--n", "5", "--threads", "1")
    assert code == EXIT_OK
    assert "6 perfect matchings" in text
    assert M6 in text


def test_force_published_m1():
    code, text = run_cli("force", "--n", "5", "--matching", M1, "--threads", "1")
    assert code == EXIT_OK
    assert "forcing number: 2" in text
    assert "max disjoint alternating cycles: 1" in text
    assert "alternating cycles: 5" in text


def test_force_published_m6_witness():
    code, text = run_cli("force", "--n", "5", "--matching", M6, "--threads", "1")
    assert code == EXIT_OK
    assert "witness: u0-v0,u1-v1" in text


@pytest.mark.parametrize("engine", ["cycles", "subsets", "both"])
def test_force_enumerates_cycles_once(monkeypatch, engine):
    # the transversal, the packing and the count all read the keys of one
    # walk: every walker and every walk it starts is counted
    import gpforce.forcing as forcing_mod

    real = forcing_mod._alternating_cycle_walker
    walks = []

    def counted(g, m):
        walk = real(g, m)

        def counted_walk(*args, **kwargs):
            walks.append(m)
            return walk(*args, **kwargs)

        return counted_walk

    monkeypatch.setattr(forcing_mod, "_alternating_cycle_walker", counted)
    code, text = run_cli("force", "--n", "5", "--matching", M1, "--engine", engine)
    assert code == EXIT_OK
    assert "forcing number: 2" in text and "alternating cycles: 5" in text
    assert len(walks) == 1


def test_parser_is_built_once_and_leaks_no_state(monkeypatch, capsys):
    # main reuses one parser for every call in a process; no call may see
    # what an earlier one parsed
    import gpforce.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()

    with pytest.raises(SystemExit) as exc:
        run_cli("force", "--n", "5")
    assert exc.value.code == EXIT_DOMAIN
    assert "--matching" in capsys.readouterr().err
    code, text = run_cli("force", "--n", "5", "--matching", M1)
    assert code == EXIT_OK and "forcing number: 2" in text

    force_json = ("force", "--n", "5", "--matching", M1, "--format", "json")
    code, text = run_cli(*force_json, "--engine", "subsets")
    assert code == EXIT_OK and json.loads(text)["engine"] == "subset_search"
    code, text = run_cli(*force_json)
    assert code == EXIT_OK and json.loads(text)["engine"] == "hitting_set"

    real = cli_mod.analyze
    jobs = []

    def recorded(g, engine, n_jobs):
        jobs.append(n_jobs)
        return real(g, engine, n_jobs)

    monkeypatch.setattr(cli_mod, "analyze", recorded)
    monkeypatch.setenv("FORCE_THREADS", "1")
    code, first = run_cli("poly", "--n", "9", "--threads", "2")
    assert code == EXIT_OK
    code, second = run_cli("poly", "--n", "9")
    assert code == EXIT_OK and second == first
    assert jobs == [2, 1]

    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == EXIT_OK
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "verify-paper" in helps[0]


def test_force_rejects_partial_matching(capsys):
    code, _ = run_cli("force", "--n", "5", "--matching", "u0-u2")
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "not a perfect matching" in err
    assert "uncovered" in err and "u1" in err


def test_force_reports_double_cover(capsys):
    code, _ = run_cli("force", "--n", "5", "--matching", "u0-u2,u2-u4")
    assert code == EXIT_DOMAIN
    assert "doubly covered" in capsys.readouterr().err


def test_cycles_command():
    code, text = run_cli("cycles", "--n", "5", "--matching", M6)
    assert code == EXIT_OK
    assert "5 alternating cycles" in text


def test_packing_command():
    code, text = run_cli("packing", "--n", "5", "--matching", M1)
    assert code == EXIT_OK
    assert "maximum disjoint alternating cycles: 1" in text


def test_orbits_csv():
    code, text = run_cli("orbits", "--n", "5", "--format", "csv", "--threads", "1")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "no,pmc,fn,representative"
    assert len(lines) == 3


def test_orbits_dihedral_group_runs():
    code, text = run_cli(
        "orbits", "--n", "6", "--group", "dihedral", "--threads", "1"
    )
    assert code == EXIT_OK
    assert "polynomial: 10x^2" in text


def test_verify_paper_subrange():
    code, text = run_cli("verify-paper", "--min", "5", "--max", "8", "--threads", "1")
    assert code == EXIT_OK
    assert text.count("PASS") == 4
    assert "4/4 tables reproduced" in text


def test_verify_paper_rejects_out_of_range(capsys):
    code, _ = run_cli("verify-paper", "--min", "5", "--max", "99")
    assert code == EXIT_DOMAIN


def test_verify_paper_rejects_reversed_range(capsys):
    code, _ = run_cli("verify-paper", "--min", "7", "--max", "6")
    assert code == EXIT_DOMAIN
    assert "--min 7 exceeds --max 6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--n", "5"),
        ("matchings", "--n", "5"),
        ("force", "--n", "5", "--matching", M1),
        ("cycles", "--n", "5", "--matching", M1),
        ("packing", "--n", "5", "--matching", M1),
        ("poly", "--n", "5"),
        ("orbits", "--n", "5"),
        ("verify-paper", "--min", "5", "--max", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_threads_must_be_positive(argv, capsys):
    for bad in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--threads", bad)
        assert exc.value.code == EXIT_DOMAIN
        assert "--threads: must be a positive integer" in capsys.readouterr().err
    assert run_cli(*argv, "--threads", "1")[0] == EXIT_OK


def test_closed_stdout_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gpforce", "matchings", "--n", "14"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == ""


def test_json_reports_roundtrip_byte_identical():
    for argv in (
        ("poly", "--n", "7", "--format", "json", "--threads", "1"),
        ("force", "--n", "5", "--matching", M1, "--format", "json"),
        ("orbits", "--n", "6", "--format", "json", "--threads", "1"),
        ("verify-paper", "--min", "5", "--max", "6", "--format", "json", "--threads", "1"),
    ):
        code, blob = run_cli(*argv)
        assert code == EXIT_OK
        assert json.dumps(json.loads(blob), indent=2, sort_keys=True) + "\n" == blob


def test_thread_count_does_not_change_output():
    _, one = run_cli("poly", "--n", "9", "--orbits", "--threads", "1")
    _, two = run_cli("poly", "--n", "9", "--orbits", "--threads", "2")
    assert one == two


@pytest.mark.parametrize(
    "argv", [("verify-paper",), ("poly", "--n", "16", "--orbits")], ids=" ".join
)
def test_worker_count_does_not_change_piped_stdout(argv):
    # stdout is a pipe here, so it is block-buffered: a child that left by
    # any path but os._exit could flush the buffer it inherited or print
    # the report itself
    def stdout(threads):
        done = subprocess.run(
            [sys.executable, "-m", "gpforce", *argv, "--threads", threads],
            capture_output=True,
            check=True,
        )
        return done.stdout

    one = stdout("1")
    assert stdout("2") == one and stdout("3") == one


def test_verify_paper_tampered_table_exits_1(monkeypatch):
    import gpforce.tables as tables_mod

    tampered = dict(tables_mod.PUBLISHED_POLYNOMIALS)
    tampered[6] = {2: 11}
    monkeypatch.setattr(tables_mod, "PUBLISHED_POLYNOMIALS", tampered)
    code, text = run_cli("verify-paper", "--min", "5", "--max", "6", "--threads", "1")
    assert code == EXIT_MISMATCH
    assert "n=6: FAIL" in text
    assert "expected 11x^2, computed 10x^2" in text
    assert "1/2 tables reproduced" in text


def test_engine_mismatch_exits_3(monkeypatch, capsys):
    import gpforce.forcing as forcing_mod
    from gpforce.forcing import ForcingResult

    real = forcing_mod.forcing_number_by_subset_search

    def skewed(g, m):
        r = real(g, m)
        return ForcingResult(r.forcing_number + 1, r.witness)

    monkeypatch.setattr(forcing_mod, "forcing_number_by_subset_search", skewed)
    code, _ = run_cli("poly", "--n", "5", "--engine", "both", "--threads", "1")
    assert code == EXIT_INTERNAL
    assert "consistency" in capsys.readouterr().err
    # raised in worker processes, the mismatch still exits 3
    for argv in (
        ("poly", "--n", "9", "--engine", "both", "--threads", "3"),
        ("verify-paper", "--max", "8", "--engine", "both", "--threads", "3"),
    ):
        assert run_cli(*argv)[0] == EXIT_INTERNAL
        assert "consistency" in capsys.readouterr().err


def test_orbit_inconsistency_exits_3(monkeypatch, capsys):
    # a matching missing from the enumeration leaves its orbit's images
    # outside the list that analyze partitions
    import gpforce.polynomial as polynomial_mod

    real = polynomial_mod.perfect_matchings
    monkeypatch.setattr(polynomial_mod, "perfect_matchings", lambda g: real(g)[:-1])
    for argv in (
        ("poly", "--n", "5"),
        ("orbits", "--n", "7", "--group", "dihedral"),
        ("verify-paper", "--max", "6"),
    ):
        assert run_cli(*argv, "--threads", "1")[0] == EXIT_INTERNAL
        assert "internal consistency failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault, code, message",
    [
        ("raise", EXIT_DOMAIN, "error: injected domain error"),
        ("kill", EXIT_UNEXPECTED, "killed by signal 9 before sending its results"),
    ],
    ids=["raise", "kill"],
)
def test_worker_failures_keep_their_exit_codes(fault, code, message, monkeypatch, capsys):
    # at --threads 3, verify-paper --min 5 --max 8 hands n = 6 to a child
    import gpforce.tables as tables_mod
    from gpforce.graphs import DomainError

    caller = os.getpid()
    real = tables_mod.check_table

    def faulty(n, engine):
        if n == 6 and os.getpid() != caller:
            if fault == "raise":
                raise DomainError("injected domain error")
            os.kill(os.getpid(), signal.SIGKILL)
        return real(n, engine)

    monkeypatch.setattr(tables_mod, "check_table", faulty)
    argv = ("verify-paper", "--min", "5", "--max", "8", "--threads", "3")
    assert run_cli(*argv)[0] == code
    assert message in capsys.readouterr().err
    assert_no_children()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpforce", "poly", "--n", "5", "--threads", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "6x^2" in proc.stdout


def test_force_threads_env_is_honored(monkeypatch):
    monkeypatch.setenv("FORCE_THREADS", "1")
    code, text = run_cli("poly", "--n", "6")
    assert code == EXIT_OK and "10x^2" in text
    monkeypatch.setenv("FORCE_THREADS", "zero")
    code, _ = run_cli("poly", "--n", "6")
    assert code == EXIT_DOMAIN


def test_worker_free_commands_ignore_bad_force_threads(monkeypatch):
    monkeypatch.setenv("FORCE_THREADS", "abc")
    code, text = run_cli("graph", "--n", "5")
    assert code == EXIT_OK and "valid" in text
    code, _ = run_cli("poly", "--n", "5")
    assert code == EXIT_DOMAIN


def test_library_ignores_force_threads(monkeypatch):
    # only the CLI resolves the worker count; a library call runs in one
    # process unless it is given jobs
    from gpforce.graphs import build_gp
    from gpforce.polynomial import analyze, orbit_polynomial

    monkeypatch.setenv("FORCE_THREADS", "abc")
    assert orbit_polynomial(analyze(build_gp(6, 2))).coeffs == {2: 10}
    code, _ = run_cli("poly", "--n", "6")
    assert code == EXIT_DOMAIN


def test_crash_exits_unexpected_not_mismatch(monkeypatch, capsys):
    # an internal fault, injected into enumeration, must not read as a
    # verification mismatch
    import gpforce.cli as cli_mod

    def broken(g):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli_mod, "enumerate_perfect_matchings", broken)
    code, _ = run_cli("matchings", "--n", "5")
    assert code == EXIT_UNEXPECTED
    assert "RuntimeError" in capsys.readouterr().err
