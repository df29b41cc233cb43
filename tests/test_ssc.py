import dataclasses
import random

from stablesat.core import CnfFormula
from stablesat.coverage import CoverageConfig, SCOPE_SHARED, union_count
from stablesat.cubes import Cube, cube_satisfies
from stablesat.oracle import brute_force_sat
from stablesat.ssc import (SscConfig, _find_merge, expand_body_to_points,
                           gen_ssc, pick_split_var, verify_ssc)
from stablesat.ssp import verify_ssp
from stablesat.trace import format_trace
from conftest import random_3cnf


def cube(lits, n=4):
    return Cube.from_literals(lits, n)


GOLDEN_TRACE = """\
1 initialize cube -2 -3 0 clause 1
2 nbhd cube -2 -3 0 clause 1 dir 2 -> cube 2 -3 0 new
3 nbhd cube -2 -3 0 clause 1 dir 3 -> cube -2 3 0 new
4 move-to-body cube -2 -3 0 clause 1
5 split cube 2 -3 0 var 1 -> cube -1 2 -3 0 kept | cube 1 2 -3 0 kept
6 merge cube -1 2 -3 0 clause 2 with cube 1 2 -3 0 clause 3 pivot 1 -> cube 2 -3 0 learn 6 -2 3 0
7 nbhd cube 2 -3 0 clause 6 dir 2 -> cube -2 -3 0 covered
8 nbhd cube 2 -3 0 clause 6 dir 3 -> cube 2 3 0 new
9 move-to-body cube 2 -3 0 clause 6
10 split cube -2 3 0 var 4 -> cube -2 3 -4 0 kept | cube -2 3 4 0 kept
11 merge cube -2 3 -4 0 clause 4 with cube -2 3 4 0 clause 5 pivot 4 -> cube -2 3 0 learn 7 -3 0
12 nbhd cube -2 3 0 clause 7 dir 3 -> cube -2 -3 0 covered
13 move-to-body cube -2 3 0 clause 7
14 nbhd cube 2 3 0 clause 7 dir 3 -> cube 2 -3 0 covered
15 move-to-body cube 2 3 0 clause 7
16 finish result UNSAT
"""


def test_golden_run_learned_clauses_and_body(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    assert not result.satisfiable
    assert [c.lits for c in result.learned] == [(-2, 3), (-3,)]
    assert [c.cid for c in result.learned] == [6, 7]
    assert [(s.left, s.right, s.pivot) for s in result.learn_steps] == \
        [(2, 3, 1), (4, 5, 4)]
    assert result.body == [cube([-2, -3]), cube([2, -3]),
                           cube([-2, 3]), cube([2, 3])]
    assert result.transport == {cube([-2, -3]): 1, cube([2, -3]): 6,
                                cube([-2, 3]): 7, cube([2, 3]): 7}
    assert verify_ssc(result.formula, result.body, result.transport)


def test_golden_run_trace_matches_worked_example(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    assert format_trace(result.trace) == GOLDEN_TRACE


def test_split_until_satisfiable():
    f = CnfFormula(2, [[1, 2]])
    result = gen_ssc(f)
    assert result.satisfiable
    assert all(cube_satisfies(result.witness, c) for c in f.clauses)


def test_ne_style_contradiction_learns_empty_clause():
    f = CnfFormula(1, [[1], [-1]])
    result = gen_ssc(f, SscConfig(init_strategy="ne-style"))
    assert not result.satisfiable
    assert any(c.lits == () for c in result.learned) or \
        sum(c.count_points() for c in result.body) >= 2
    assert verify_ssc(result.formula, result.body, result.transport)


def test_merge_cubes_first_trace_step(vb_formula):
    work = vb_formula.copy()
    p2a, p2b, p3 = cube([-1, 2, -3]), cube([1, 2, -3]), cube([-2, 3])
    outcome = _find_merge([p2b, p3], p2a, work, {})
    assert outcome is not None
    assert outcome.merged == [p2a, p2b]
    assert outcome.cube == cube([2, -3])
    assert outcome.resolvent.lits == (-2, 3)
    assert (outcome.left.cid, outcome.right.cid, outcome.pivot) == (2, 3, 1)


def test_merge_cubes_second_trace_step(vb_formula):
    work = vb_formula.copy()
    work.learn((-2, 3))  # C6 from the first merge
    p3a, p3b, p4 = cube([-2, 3, -4]), cube([-2, 3, 4]), cube([2, 3])
    outcome = _find_merge([p3b, p4], p3a, work, {})
    assert outcome is not None
    assert outcome.merged == [p3a, p3b]
    assert outcome.cube == cube([-2, 3])
    assert outcome.resolvent.lits == (-3,)
    assert outcome.pivot == 4


def test_merge_cubes_no_partner(vb_formula):
    outcome = _find_merge([], cube([-2, -3]), vb_formula, {})
    assert outcome is None


def test_verify_ssc_golden_body(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    assert verify_ssc(result.formula, result.body, result.transport)


def test_verify_ssc_rejects_partial_body(vb_formula):
    work = vb_formula.copy()
    report = verify_ssc(work, [cube([-2, -3])], {cube([-2, -3]): 1})
    assert not report
    assert len(report.failures) == 2  # both neighborhood cubes escape


def test_verify_ssc_trivial_empty_clause_cluster():
    f = CnfFormula(2, [[], [1]])
    full = Cube.full(2)
    assert verify_ssc(f, [full], {full: 1})


def test_verify_ssc_missing_transport(vb_formula):
    report = verify_ssc(vb_formula, [cube([-2, -3])], {})
    assert not report and "no transport" in report.failures[0]


def split_var(c, formula, heuristic="first-intersecting"):
    return pick_split_var(c, formula.meeting(c.mask, c.val), heuristic)


def test_pick_split_var_examples(vb_formula):
    assert split_var(cube([2, -3]), vb_formula) == 1
    assert split_var(cube([-2, 3]), vb_formula) == 4
    f = CnfFormula(2, [[1, 2]])
    assert split_var(Cube.from_literals([-1], 2), f) == 2


def test_pick_split_var_most_constrained():
    f = CnfFormula(3, [[1, 2], [1, 3], [2, 3]])
    var = split_var(Cube.full(3), f, heuristic="most-constrained")
    assert var == 1  # x1..x3 all appear twice; lowest index breaks the tie


def test_xi_never_decreases(vb_formula, golden_config):
    result = gen_ssc(vb_formula, dataclasses.replace(golden_config, xi_log=True))
    values = [union + clauses for _, union, clauses in result.xi_log]
    assert values == sorted(values)
    assert len(result.xi_log) == result.iterations
    assert result.xi_log[-1][1] == union_count(result.body, 4)
    assert result.xi_log[-1][1] == 16  # body covers the whole space


def test_expand_body_matches_appendix_construction(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    points, transport = expand_body_to_points(result.body, result.transport)
    assert len(points) == 16
    assert verify_ssp(result.formula, points, transport)


def test_lifo_and_shared_coverage_stay_sound():
    rng = random.Random(55)
    shared = CoverageConfig(scope=SCOPE_SHARED)
    for _ in range(40):
        f = random_3cnf(rng.randint(4, 7), rng.randint(8, 25), rng)
        oracle = brute_force_sat(f)
        for config in (SscConfig(pop_policy="lifo"),
                       SscConfig(coverage=shared),
                       SscConfig(split_heuristic="most-constrained"),
                       SscConfig(merge_enabled=False)):
            result = gen_ssc(f, config)
            assert result.satisfiable == oracle.satisfiable
            if not result.satisfiable:
                assert verify_ssc(result.formula, result.body, result.transport)


def test_oracle_agreement_random_small():
    rng = random.Random(56)
    for _ in range(100):
        n = rng.randint(3, 6)
        f = random_3cnf(n, rng.randint(2, round(5.5 * n)), rng)
        result = gen_ssc(f)
        assert result.satisfiable == brute_force_sat(f).satisfiable


def test_learned_clauses_replay_through_resolution(vb_formula, golden_config):
    from stablesat.core import resolvable_on, resolve
    result = gen_ssc(vb_formula, golden_config)
    work = vb_formula.copy()
    for step in result.learn_steps:
        left, right = work.clause_by_id(step.left), work.clause_by_id(step.right)
        assert resolvable_on(left, right) == step.pivot
        derived = resolve(left, right, step.pivot)
        assert set(derived.lits) == set(step.lits)
        clause, created = work.learn(derived.lits)
        assert created and clause.cid == step.cid


def test_formula_not_mutated_by_solver(vb_formula):
    before = [c.lits for c in vb_formula.clauses]
    gen_ssc(vb_formula, SscConfig(init_cube=cube([-2, -3])))
    assert [c.lits for c in vb_formula.clauses] == before
    assert vb_formula.original_count == 5


def test_empty_clause_in_formula():
    f = CnfFormula(2, [[1, 2], []])
    result = gen_ssc(f)
    assert not result.satisfiable
    assert verify_ssc(result.formula, result.body, result.transport)


def test_formula_without_clauses_is_sat():
    for n in (0, 2):
        for strategy in ("single-cube", "ne-style"):
            result = gen_ssc(CnfFormula(n, []), SscConfig(init_strategy=strategy))
            assert result.satisfiable
            assert result.witness == Cube.full(n)
