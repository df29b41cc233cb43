import os
import subprocess
import sys

import pytest

import stablesat
from stablesat.core import CnfFormula
from stablesat.oracle import brute_force_sat
from stablesat.symmetry import ph_formula


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


def test_importing_the_cli_loads_no_numpy():
    # Only the oracle needs numpy; solve and verify must not pay its import.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stablesat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, stablesat.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
