import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesat.core import CnfFormula
from stablesat.oracle import brute_force_sat
from stablesat.symmetry import ph_formula
from conftest import evaluate_clause, traced_peak


def test_vb_formula_unsat(vb_formula):
    assert not brute_force_sat(vb_formula).satisfiable


def test_chain_formula_unsat(chain6_formula):
    assert not brute_force_sat(chain6_formula).satisfiable


def test_ph_verdicts():
    assert brute_force_sat(ph_formula(3, 3)[0]).satisfiable
    assert not brute_force_sat(ph_formula(3, 2)[0]).satisfiable


def test_first_witness_is_lexicographic():
    f = CnfFormula(2, [[1, 2]])
    result = brute_force_sat(f)
    assert result.satisfiable
    assert result.witness == (0, 1)


def test_witness_satisfies(vb_formula):
    f = CnfFormula(4, [[2, 3], [1, -2]])
    result = brute_force_sat(f)
    point = result.witness
    for clause in f.clauses:
        assert any((point[abs(l) - 1] == 1) == (l > 0) for l in clause.lits)


def test_cap_refusal():
    f = CnfFormula(25, [[1]])
    with pytest.raises(ValueError):
        brute_force_sat(f)
    assert brute_force_sat(f, cap=25).satisfiable


def test_empty_clause_means_unsat():
    assert not brute_force_sat(CnfFormula(2, [[], [1]])).satisfiable


def test_chunked_scan_crosses_chunks():
    # Force the single satisfying point into the second scan chunk.
    n = 18
    clauses = [[v] if v > 1 else [-v] for v in range(1, n + 1)]
    f = CnfFormula(n, clauses)
    result = brute_force_sat(f)
    assert result.satisfiable
    assert result.witness == (0,) + (1,) * (n - 1)


def truth_table(formula):
    """The first satisfying point in lexicographic order, or None."""
    for point in product((0, 1), repeat=formula.num_vars):
        if all(evaluate_clause(c, point) for c in formula.clauses):
            return point
    return None


@st.composite
def formulas(draw):
    """Up to ten variables; clauses may be empty, unit or repeated, and a
    clause may repeat a literal."""
    n = draw(st.integers(0, 10))
    variables = st.lists(st.integers(1, n), max_size=4) if n else st.just([])
    clause = variables.flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    clauses = draw(st.lists(clause, max_size=6 * n + 2))
    clauses = [lits for lits in clauses if not {-l for l in lits} & set(lits)]
    repeats = draw(st.lists(st.sampled_from(clauses), max_size=3)) \
        if clauses else []
    return CnfFormula(n, clauses + repeats)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_oracle_matches_a_truth_table(formula):
    result = brute_force_sat(formula)
    witness = truth_table(formula)
    assert result.satisfiable == (witness is not None)
    assert result.witness == witness


def units(point):
    """The formula whose one model is the point."""
    return CnfFormula(len(point), [[v] if b else [-v]
                                   for v, b in enumerate(point, start=1)])


@pytest.mark.parametrize("point", [
    (0,) * 16, (1,) * 16,          # first and last point of the one block
    (0,) + (1,) * 16,              # last point of the first of two blocks
    (1,) + (0,) * 16,              # first point of the second
    (1,) * 17,
], ids=lambda p: "".join(map(str, p)))
def test_block_boundaries(point):
    assert brute_force_sat(units(point)).witness == point


@pytest.mark.parametrize("n", [16, 17])
def test_first_witness_across_the_x1_boundary(n):
    # x2..xn all differ from x1: only 01..1 and 10..0 satisfy. At n = 17
    # they are the last point of block 0 and the first of block 1.
    differ = [[1, v] for v in range(2, n + 1)] + \
        [[-1, -v] for v in range(2, n + 1)]
    assert brute_force_sat(CnfFormula(n, differ)).witness == \
        (0,) + (1,) * (n - 1)
    assert brute_force_sat(CnfFormula(n, differ + [[1]])).witness == \
        (1,) + (0,) * (n - 1)
    assert not brute_force_sat(CnfFormula(n, differ + [[1], [-1]])).satisfiable


def test_witness_at_the_last_point_of_the_cap():
    assert brute_force_sat(units((1,) * 24)).witness == (1,) * 24


def test_scan_at_the_cap_stays_small():
    # A block of 2^16 points is 8 KB; one int over all 2^24 points would
    # be 2 MB per row and intermediate. 92 random 3-clauses and the eight
    # over x22..x24, which leave no model, so the scan visits every block.
    rng = random.Random(1)
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 25), 3)] for _ in range(92)]
    clauses += [[22 * a, 23 * b, 24 * c]
                for a, b, c in product((1, -1), repeat=3)]
    result, peak = traced_peak(lambda: brute_force_sat(CnfFormula(24, clauses)))
    assert not result.satisfiable
    assert peak < 4 * 2 ** 20
