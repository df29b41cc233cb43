import random

import pytest

from stablesat.core import CnfFormula
from stablesat.cubes import Cube
from stablesat.oracle import brute_force_sat
from stablesat.ssc import verify_ssc
from stablesat.ssp import SspConfig, gen_ssp
from stablesat.symmetry import gen_ssp_mod_symmetry, ph_formula, \
    ph_symmetry_generators
from stablesat.trace import TraceLog
from conftest import (cube_tuple, evaluate_clause, point_cubes, point_tuples,
                      random_3cnf, reference_stable, tuple_cube)


def test_one_variable_contradiction():
    f = CnfFormula(1, [[1], [-1]])
    result = gen_ssp(f, init=tuple_cube((0,)))
    assert not result.satisfiable
    assert result.points == [tuple_cube((0,)), tuple_cube((1,))]
    assert result.transport == {result.points[0]: 1, result.points[1]: 2}
    assert verify_ssc(f, result.points, result.transport)


def test_init_already_satisfying():
    f = CnfFormula(2, [[1, 2]])
    result = gen_ssp(f, init=tuple_cube((1, 1)))
    assert result.satisfiable
    assert result.witness == tuple_cube((1, 1))


def test_zero_variable_formulas():
    # The model of zero variables is the one point of zero variables.
    result = gen_ssp(CnfFormula(0, []))
    assert result.satisfiable and result.witness == Cube.full(0)
    result = gen_ssp(CnfFormula(0, [[]]))
    assert not result.satisfiable
    assert result.points == [Cube.full(0)]
    assert verify_ssc(CnfFormula(0, [[]]), result.points, result.transport)


def test_chain_formula_reproduces_known_stable_set(chain6_formula, chain6_ssp):
    points, _ = chain6_ssp
    result = gen_ssp(chain6_formula, init=tuple_cube((0,) * 6))
    assert not result.satisfiable
    assert set(result.points) == set(points)
    assert verify_ssc(chain6_formula, result.points, result.transport)


def test_verify_accepts_known_stable_set(chain6_formula, chain6_ssp):
    points, transport = chain6_ssp
    assert verify_ssc(chain6_formula, points, transport)


def test_verify_rejects_after_removing_point(chain6_formula, chain6_ssp):
    points, transport = chain6_ssp
    p9 = tuple_cube(tuple(int(ch) for ch in "011011"))
    rest = [p for p in points if p != p9]
    report = verify_ssc(chain6_formula, rest,
                        {p: c for p, c in transport.items() if p != p9})
    assert not report
    # A point and its neighbour read as points.
    assert "point 010011: neighbor point 011011 via clause 2 is not covered" \
        in report.failures


def test_full_space_is_trivial_stable_set():
    f = CnfFormula(2, [[1], [-1]])
    points = [(a, b) for a in (0, 1) for b in (0, 1)]
    transport = {}
    for p in points:
        transport[p] = 1 if p[0] == 0 else 2
    assert reference_stable(f, points, transport)
    assert verify_ssc(f, *point_cubes(points, transport))


def test_verify_reports_missing_transport(chain6_formula, chain6_ssp):
    points, transport = chain6_ssp
    broken = dict(transport)
    del broken[points[0]]
    report = verify_ssc(chain6_formula, points, broken)
    assert not report
    assert any("no transport" in msg for msg in report.failures)


def test_verify_rejects_satisfied_transport(chain6_formula, chain6_ssp):
    points, transport = chain6_ssp
    broken = dict(transport)
    broken[points[0]] = 3  # C3 = -x3 | x4 is satisfied by 000000
    assert not verify_ssc(chain6_formula, points, broken)


def test_verify_requires_nonempty_set(chain6_formula):
    with pytest.raises(ValueError):
        verify_ssc(chain6_formula, [], {})


def test_lifo_policy_still_sound(chain6_formula):
    result = gen_ssp(chain6_formula, config=SspConfig(pop="lifo"))
    assert not result.satisfiable
    assert verify_ssc(chain6_formula, result.points, result.transport)
    assert reference_stable(chain6_formula,
                            *point_tuples(result.points, result.transport))


def test_oracle_agreement_random():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3 * n)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        f = CnfFormula(n, clauses)
        result = gen_ssp(f)
        oracle = brute_force_sat(f)
        assert result.satisfiable == oracle.satisfiable
        if result.satisfiable:
            assert all(evaluate_clause(c, cube_tuple(result.witness))
                       for c in f.clauses)
        else:
            assert verify_ssc(f, result.points, result.transport)


def test_iteration_bound_and_monotone_body():
    rng = random.Random(32)
    for _ in range(30):
        f = random_3cnf(6, 30, rng)
        result = gen_ssp(f)
        assert result.iterations <= 2 ** 6
        if not result.satisfiable:
            assert len(result.points) == result.iterations


def test_trace_ends_with_finish(chain6_formula):
    result = gen_ssp(chain6_formula, config=SspConfig(record_trace=True))
    kinds = [r.kind for r in result.trace]
    assert kinds[0] == "initialize"
    assert kinds[-1] == "finish"
    assert kinds.count("finish") == 1
    steps = [r.step for r in result.trace]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_point_engines_build_no_trace_record_when_tracing_is_off(monkeypatch):
    # Tracing costs nothing when off: not even a call that would drop it.
    def refused(self, kind, payload):
        raise AssertionError(f"TraceLog.add({kind!r}) with the trace off")

    monkeypatch.setattr(TraceLog, "add", refused)
    formula, inst = ph_formula(4, 3)
    assert not gen_ssp(formula).satisfiable
    assert gen_ssp(CnfFormula(2, [[1, 2]])).satisfiable
    assert not gen_ssp_mod_symmetry(formula, ph_symmetry_generators(inst)).satisfiable
