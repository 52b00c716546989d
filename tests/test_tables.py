"""Embedded published tables and the verification harness around them."""

from collections import Counter

import pytest

from conftest import assert_no_children
from gpforce import tables
from gpforce.graphs import DomainError
from gpforce.tables import (
    PUBLISHED_MATCHING_COUNTS,
    PUBLISHED_ORBIT_ROWS,
    PUBLISHED_POLYNOMIALS,
    PUBLISHED_RANGE,
    check_table,
    verify_published_tables,
)


def test_published_constants_are_self_consistent():
    # row PMC sums must reproduce the polynomial coefficients per exponent
    for n in PUBLISHED_RANGE:
        rows = PUBLISHED_ORBIT_ROWS[n]
        coeffs = PUBLISHED_POLYNOMIALS[n]
        per_fn = Counter()
        for pmc, fn in rows:
            per_fn[fn] += pmc
        assert dict(per_fn) == coeffs
        assert sum(pmc for pmc, _ in rows) == PUBLISHED_MATCHING_COUNTS[n]


def test_published_matching_counts_sequence():
    assert [PUBLISHED_MATCHING_COUNTS[n] for n in PUBLISHED_RANGE] == [
        6, 10, 15, 17, 22, 36, 45, 54, 79, 113, 144,
    ]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_small_tables_verify(n):
    check = check_table(n)
    assert check.poly_ok and check.rows_ok and check.ok
    assert check.dihedral_rows is None
    assert check.diff_lines() == []


@pytest.mark.parametrize("n", [13, 14, 15])
def test_large_tables_verify_with_subset_engine(n):
    # the acceptance sweeps cross-check both engines for n=5..12 and 16..20;
    # this closes the gap by reproducing the last three tables from the
    # definition-based engine alone
    assert check_table(n, engine="subset_search").ok


def test_tampered_polynomial_fails_with_diff(monkeypatch):
    bad_poly = {2: 7}  # published value is {2: 6}
    monkeypatch.setitem(tables.PUBLISHED_POLYNOMIALS, 5, bad_poly)
    checks = verify_published_tables(ns=[5])
    (check,) = checks
    assert not check.ok and not check.poly_ok and check.rows_ok
    diff = "\n".join(check.diff_lines())
    assert "expected 7x^2" in diff and "computed 6x^2" in diff


def test_tampered_rows_fail_and_attach_dihedral_view(monkeypatch):
    bad_rows = ((5, 2), (1, 3))  # FN of the singleton orbit tampered
    monkeypatch.setitem(tables.PUBLISHED_ORBIT_ROWS, 5, bad_rows)
    checks = verify_published_tables(ns=[5])
    (check,) = checks
    assert check.poly_ok and not check.rows_ok and not check.ok
    assert check.dihedral_rows is not None
    diff = "\n".join(check.diff_lines())
    assert "missing [(1, 3)]" in diff and "extra [(1, 2)]" in diff
    assert "dihedral" in diff
    d = check.to_json_dict()
    assert d["pass"] is False
    assert "rows_dihedral" in d


def test_verify_range_subset():
    checks = verify_published_tables(ns=range(5, 8))
    assert [c.n for c in checks] == [5, 6, 7]
    assert all(c.ok for c in checks)
    # an iterator is read once, by the range check and the tables alike
    assert [c.n for c in verify_published_tables(ns=iter([5, 6]))] == [5, 6]


@pytest.mark.parametrize("ns", [[16], [4, 5], [5, 6, 16]])
def test_verify_rejects_unpublished_n_before_computing(monkeypatch, ns):
    def no_table(n, engine):
        raise AssertionError(f"table {n} computed")

    monkeypatch.setattr(tables, "check_table", no_table)
    with pytest.raises(DomainError, match=r"published tables cover n = 5\.\.15"):
        verify_published_tables(ns)


@pytest.mark.parametrize("engine", ["hitting_set", "subset_search", "both"])
def test_verify_hands_out_tables_with_the_serial_results(engine):
    serial = [c.to_json_dict() for c in verify_published_tables(engine=engine)]
    for jobs in (2, 3, len(PUBLISHED_RANGE) + 1):
        checks = verify_published_tables(engine=engine, jobs=jobs)
        assert [c.to_json_dict() for c in checks] == serial
        assert_no_children()
