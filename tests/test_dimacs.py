import pytest

from stablesat.dimacs import DimacsError, parse_dimacs, write_dimacs
from conftest import traced_peak


def test_minimal_unsat_pair():
    f = parse_dimacs("p cnf 2 2\n1 0\n-1 0\n")
    assert f.num_vars == 2
    assert [c.lits for c in f.clauses] == [(1,), (-1,)]


def test_roundtrip_vb(vb_formula):
    text = write_dimacs(vb_formula, comments=["worked example"])
    again = parse_dimacs(text)
    assert again.num_vars == vb_formula.num_vars
    assert [c.lits for c in again.clauses] == [c.lits for c in vb_formula.clauses]


def test_tautology_rejected_with_line():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 1 1\n1 -1 0\n")
    assert err.value.line == 2


def test_duplicate_literals_collapse():
    f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert f.clauses[0].lits == (1, 2)


def test_clause_spanning_lines():
    f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert f.clauses[0].lits == (1, 2, 3)


def test_missing_header():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")


def test_malformed_header():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf two 1\n1 0\n")


def test_variable_out_of_range():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n3 0\n")
    assert err.value.line == 2


def test_missing_terminator():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 2\n")
    assert err.value.line == 2


def test_count_mismatch_warns_and_actual_wins():
    with pytest.warns(UserWarning):
        f = parse_dimacs("p cnf 2 5\n1 0\n2 0\n")
    assert len(f.clauses) == 2


def test_comments_blanks_and_percent_marker():
    f = parse_dimacs("c hello\n\np cnf 2 1\nc mid\n1 -2 0\n%\n0\n")
    assert [c.lits for c in f.clauses] == [(1, -2)]


def test_bytes_input():
    f = parse_dimacs(b"p cnf 1 1\n1 0\n")
    assert f.clauses[0].lits == (1,)


def test_empty_clause_parses():
    f = parse_dimacs("p cnf 1 1\n0\n")
    assert f.clauses[0].lits == ()


def test_tokens_read_as_int_reads_them():
    # "00" is a terminator and "-0" another; "+1" and "01" are x1.
    f = parse_dimacs("p cnf 2 2\n+1 01 00\n-02 -0\n")
    assert [c.lits for c in f.clauses] == [(1,), (-2,)]
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    assert str(err.value) == "line 2: bad literal 'x'"


def test_tautology_across_lines_reported_at_its_terminator():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 2\n-1\n0\n")
    assert err.value.line == 4
    assert str(err.value) == "line 4: tautological clause: both polarities of x1"


def test_missing_terminator_names_the_clause_start():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 3 2\n1 2\n0 3\n")
    assert err.value.line == 3


def test_token_table_is_per_parse():
    # A token read by one parse is range-checked afresh by the next.
    assert parse_dimacs("p cnf 2 1\n2 0\n").clauses[0].lits == (2,)
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 1 1\n2 0\n")
    assert str(err.value) == "line 2: variable x2 above declared count 1"


def test_wide_clause_near_a_huge_header_is_bounded():
    # The token table keeps each literal as read, not its bit: 10^4
    # distinct literals near x10^6 cost kilobytes each only while shifted.
    text = "p cnf 1000000 1\n" + " ".join(
        str(v) for v in range(990_001, 1_000_001)) + " 0\n"
    f, peak = traced_peak(lambda: parse_dimacs(text))
    assert f.clauses[0].lits == tuple(range(990_001, 1_000_001))
    assert peak < 4 * 2 ** 20
