import contextlib
import dataclasses
import random
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablesat.core import CnfFormula, VerifyReport
from stablesat.coverage import COVERED, UNCOVERED, CoverIndex, is_covered
from stablesat.cubes import (Cube, checked_members, cube_falsifies,
                             cube_satisfies, unreached_neighbors)
from stablesat.oracle import brute_force_sat
from stablesat.proofs import proof_from_result, replay_proof
from stablesat.ssp import gen_ssp
from stablesat import cubes, ssc
from stablesat.symmetry import ph_formula
from stablesat.ssc import (SscConfig, _Boundary, _find_merge, gen_ssc,
                           pick_split_var, verify_ssc)
from stablesat.trace import format_trace
from conftest import (count_points, cube_contains, cube_points,
                      evaluate_clause, expand_body_to_points, intersects,
                      point_nbhd, point_tuples, random_3cnf, random_clause,
                      reference_stable, union_count, xi_from_trace)


def cube(lits, n=4):
    return Cube.from_literals(lits, n)


def boundary_of(cubes, formula):
    """A Boundary holding the cubes in order, front first, each with its
    scanned list."""
    boundary = _Boundary(formula)
    for q in cubes:
        boundary.push_back([q, len(formula.clauses),
                            formula.falsified(q.mask, q.val), None])
    return boundary


def boundary_cubes(boundary):
    """The cubes of a Boundary, front first."""
    return [record[0] for record in reversed(boundary.stack)]


def find_merge(cubes, p, formula):
    """_find_merge as the engine calls it, over a Boundary of the cubes."""
    return _find_merge(boundary_of(cubes, formula), p,
                       formula.falsified(p.mask, p.val))


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
        sum(count_points(c) for c in result.body) >= 2
    assert verify_ssc(result.formula, result.body, result.transport)


def test_merge_cubes_first_trace_step(vb_formula):
    work = vb_formula.copy()
    p2a, p2b, p3 = cube([-1, 2, -3]), cube([1, 2, -3]), cube([-2, 3])
    outcome = find_merge([p2b, p3], p2a, work)
    assert outcome is not None
    assert outcome.partner == p2b
    assert outcome.cube == cube([2, -3])
    assert outcome.resolvent.lits == (-2, 3)
    assert (outcome.left.cid, outcome.right.cid, outcome.pivot) == (2, 3, 1)


def test_merge_cubes_second_trace_step(vb_formula):
    work = vb_formula.copy()
    work.learn((-2, 3))  # C6 from the first merge
    p3a, p3b, p4 = cube([-2, 3, -4]), cube([-2, 3, 4]), cube([2, 3])
    outcome = find_merge([p3b, p4], p3a, work)
    assert outcome is not None
    assert outcome.partner == p3b
    assert outcome.cube == cube([-2, 3])
    assert outcome.resolvent.lits == (-3,)
    assert outcome.pivot == 4


def test_merge_cubes_no_partner(vb_formula):
    outcome = find_merge([], cube([-2, -3]), vb_formula)
    assert outcome is None


def test_find_merge_sees_clauses_learned_after_caching():
    work = CnfFormula(2, [[1, -2]])
    p, q = cube([-1, 2], 2), cube([1, 2], 2)
    boundary = boundary_of([q], work)
    h_p = work.falsified(p.mask, p.val)
    assert _find_merge(boundary, p, h_p) is None   # q falsifies nothing
    assert boundary.stack == [[q, 1, [], None]]
    work.learn((-1, -2))
    outcome = _find_merge(boundary, p, h_p)
    assert outcome is not None and outcome.cube == cube([2], 2)
    assert outcome.resolvent.lits == (-2,) and outcome.pivot == 1
    # The record was brought up to the learned clause in place.
    assert outcome.record is boundary.stack[0]
    assert boundary.stack == [[q, 2, work.falsified(q.mask, q.val), None]]
    boundary.remove(outcome.record)
    assert boundary.stack == []


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


def test_verify_ssc_fails_mixed_arity_naming_the_first_odd_cluster():
    f = CnfFormula(2, [[1], [-1]])
    clusters = [cube([-1], 2), cube([1], 3), cube([1, 3], 3), cube([1], 2)]
    transport = dict.fromkeys(clusters, 1)
    report = verify_ssc(f, clusters, transport)
    assert report.failures == ["cluster 1: arity 3, the first member's is 2"]


def test_verify_ssc_builds_no_neighbour_cube_on_a_stable_point_set():
    # Every neighbour of a stable point set is a member, found by its
    # packed key: the check builds no Cube at all.
    formula, _ = ph_formula(4, 3)
    result = gen_ssp(formula)
    assert not result.satisfiable
    built = Counter()
    init, fast = Cube.__init__, cubes._cube

    def counted_init(self, *args):
        built["Cube"] += 1
        init(self, *args)

    def counted_cube(*args):
        built["_cube"] += 1
        return fast(*args)
    with mock.patch.object(Cube, "__init__", counted_init), \
            mock.patch.object(cubes, "_cube", counted_cube):
        assert verify_ssc(formula, result.points, result.transport)
    assert built == Counter()
    # The count is live: without the second point, a neighbour of the
    # start, the check builds that neighbour.
    partial = result.points[:1] + result.points[2:]
    with mock.patch.object(cubes, "_cube", counted_cube):
        assert not verify_ssc(formula, partial, result.transport)
    assert built["_cube"] > 0


def point_level_stable(formula, clusters, transport):
    """verify_ssc's condition checked point by point: every point of every
    cluster falsifies the cluster's transport clause, and each of its
    neighbours through that clause lies in the union of the clusters."""
    members = dict.fromkeys(clusters)
    union = {point for c in members for point in cube_points(c)}
    for c in members:
        cid = transport.get(c)
        clause = None if cid is None else formula.clause_by_id(cid)
        if clause is None:
            return False
        for point in cube_points(c):
            if evaluate_clause(clause, point):
                return False
            if not union.issuperset(point_nbhd(point, clause)):
                return False
    return True


def dropping(keep):
    """CoverIndex.meeting patched to return only keep(candidates)."""
    original = CoverIndex.meeting

    def meeting(self, target, shared_literal=False):
        return keep(original(self, target, shared_literal))

    return mock.patch.object(CoverIndex, "meeting", meeting)


def unsat_certificate(n, seed):
    formula = random_3cnf(n, 6 * n, random.Random(seed))
    result = gen_ssc(formula)
    assume(not result.satisfiable)
    return result


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 10), st.integers(0, 2 ** 32 - 1))
def test_verify_rejects_when_the_index_drops_candidates(n, seed):
    # The index only narrows the candidates: with every candidate dropped,
    # a certificate passes exactly when no neighbour needs a coverage query.
    result = unsat_certificate(n, seed)
    formula, body, transport = result.formula, result.body, result.transport
    assert verify_ssc(formula, body, transport)
    queried = any(True for _ in unreached_neighbors(
        checked_members(formula, body, transport, VerifyReport())))
    with dropping(lambda candidates: []):
        assert bool(verify_ssc(formula, body, transport)) == (not queried)


def test_verify_with_dropped_candidates_rejects_a_valid_certificate():
    result = gen_ssc(random_3cnf(10, 60, random.Random(5)))
    assert not result.satisfiable
    assert verify_ssc(result.formula, result.body, result.transport)
    for keep in (lambda candidates: [], lambda candidates: candidates[1:]):
        with dropping(keep):
            assert not verify_ssc(result.formula, result.body, result.transport)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 10), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["literal", "transport"]), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_verify_of_mutated_certificate_matches_point_check(n, seed, kind,
                                                           which, pick):
    result = unsat_certificate(n, seed)
    formula = result.formula
    body = list(result.body)
    i = which % len(body)
    victim, cid = body[i], result.transport[body[i]]
    if kind == "literal":
        assume(victim.mask)
        bits = [1 << v for v in range(n) if victim.mask >> v & 1]
        body[i] = Cube(n, victim.mask, victim.val ^ bits[pick % len(bits)])
    else:
        others = [c.cid for c in formula.clauses if c.cid != cid]
        assume(others)
        cid = others[pick % len(others)]
    transport = {c: result.transport[c] for c in result.body}
    transport[body[i]] = cid
    expected = point_level_stable(formula, body, transport)
    assert bool(verify_ssc(formula, body, transport)) == expected
    # A dropped candidate can only turn an accept into a reject.
    with dropping(lambda candidates: candidates[1:]):
        if verify_ssc(formula, body, transport):
            assert expected


def checker_queries():
    """ssc.is_covered patched to record the target of each query; returns
    the patch and the list it fills."""
    targets = []
    original = ssc.is_covered

    def is_covered(target, covers, *args):
        targets.append(target)
        return original(target, covers, *args)

    return mock.patch.object(ssc, "is_covered", is_covered), targets


def checked_verdict(formula, clusters, transport):
    """verify_ssc's verdict, asserted equal to the point-level check, and
    whether the checker tried the whole-space cover."""
    patch, targets = checker_queries()
    with patch:
        verdict = bool(verify_ssc(formula, clusters, transport))
    assert verdict == point_level_stable(formula, clusters, transport)
    return verdict, Cube.full(formula.num_vars) in targets


def default_start_certificates(**config):
    """PH(4,3) and five UNSAT random 3-CNF, each with its result from the
    all-free start under the SscConfig fields `config`, whose Body covers
    the space."""
    rng = random.Random(21)
    formulas = [ph_formula(4, 3)[0]]
    while len(formulas) < 6:
        n = rng.randint(6, 9)
        formulas.append(random_3cnf(n, 6 * n, rng))
        if brute_force_sat(formulas[-1]).satisfiable:
            formulas.pop()
    return [(formula, gen_ssc(formula, SscConfig(**config)))
            for formula in formulas]


def test_verify_accepts_a_whole_cover_with_one_query():
    for _, result in default_start_certificates():
        patch, targets = checker_queries()
        with patch:
            assert verify_ssc(result.formula, result.body, result.transport)
        assert targets == [Cube.full(result.formula.num_vars)]


def test_cover_path_rejects_a_dropped_cluster():
    # Merged cubes may overlap, so a dropped cluster can leave a cover,
    # which is then still a certificate; the point check decides. The
    # first-intersecting splits leave such overlaps on this corpus.
    tried = rejected = 0
    for _, result in default_start_certificates(
            split_heuristic="first-intersecting"):
        body = result.body
        for i in range(len(body)):
            verdict, cover = checked_verdict(result.formula,
                                             body[:i] + body[i + 1:],
                                             result.transport)
            tried += cover and not verdict
            rejected += not verdict
    assert tried > 0 and rejected > 0


def test_cover_path_rejects_a_clause_the_cluster_does_not_falsify():
    for _, result in default_start_certificates():
        formula, body = result.formula, result.body
        for victim in body:
            cid = next(c.cid for c in formula.clauses
                       if not cube_falsifies(victim, c))
            transport = dict(result.transport)
            transport[victim] = cid
            verdict, cover = checked_verdict(formula, body, transport)
            assert not verdict and not cover


def test_replay_rejects_a_changed_learned_literal():
    for formula, result in default_start_certificates():
        proof = proof_from_result(result)
        assert proof.learns
        for k, step in enumerate(proof.learns):
            assert step.lits, "a learned empty clause has no literal to change"
            broken = dataclasses.replace(
                step, lits=(-step.lits[0],) + tuple(step.lits[1:]))
            mutated = dataclasses.replace(
                proof, learns=proof.learns[:k] + [broken] + proof.learns[k + 1:])
            report = replay_proof(formula, mutated)
            assert not report and f"learn {step.cid}" in report.failures[0]


def test_stable_sets_that_do_not_cover_take_the_neighbour_check():
    # A start pinning x1 grows a stable set that need not be a cover; the
    # checker accepts it through its neighbours, whether or not the point
    # counts let it try the cover first. The first-intersecting splits
    # take both paths on this corpus.
    rng = random.Random(0)
    formulas = [ph_formula(4, 3)[0]]
    for _ in range(20):
        n = rng.randint(6, 10)
        formulas.append(random_3cnf(n, 6 * n, rng))
    paths = Counter()
    for formula in formulas:
        n = formula.num_vars
        result = gen_ssc(formula, SscConfig(
            init_cube=Cube.from_literals([-1], n),
            split_heuristic="first-intersecting"))
        if result.satisfiable or is_covered(
                Cube.full(n), CoverIndex(n, result.body)) == COVERED:
            continue
        patch, targets = checker_queries()
        with patch:
            assert verify_ssc(result.formula, result.body, result.transport)
        assert len(targets) > 1
        paths[targets[0] == Cube.full(n)] += 1
    assert paths[True] > 0 and paths[False] > 0


def test_ne_style_certificates_cover_the_space():
    # The clauses' falsifying cubes cover the space exactly when the
    # formula is UNSAT, and the engine keeps Body + Boundary a cover, so
    # every ne-style certificate passes on its one cover query.
    rng = random.Random(9)
    formulas = [ph_formula(4, 3)[0]] + [random_3cnf(8, 48, rng)
                                        for _ in range(10)]
    unsat = 0
    for formula in formulas:
        result = gen_ssc(formula, SscConfig(init_strategy="ne-style"))
        if result.satisfiable:
            continue
        unsat += 1
        patch, targets = checker_queries()
        with patch:
            assert verify_ssc(result.formula, result.body, result.transport)
        assert targets == [Cube.full(formula.num_vars)]
    assert unsat > 0


def split_var(c, formula, heuristic="first-intersecting"):
    return pick_split_var(
        c, list(formula.clauses_of(formula.meeting_bits(c.mask, c.val))),
        heuristic)


def test_pick_split_var_examples(vb_formula):
    assert split_var(cube([2, -3]), vb_formula) == 1
    assert split_var(cube([-2, 3]), vb_formula) == 4
    f = CnfFormula(2, [[1, 2]])
    assert split_var(Cube.from_literals([-1], 2), f) == 2


def test_pick_split_var_unit_first():
    read = []

    def meeting(formula, c):
        for clause in formula.clauses_of(formula.meeting_bits(c.mask, c.val)):
            read.append(clause.cid)
            yield clause

    # The lowest-id unit clause wins over an earlier, wider one, and the
    # scan stops there.
    f = CnfFormula(5, [[1, 2, 3], [4, 5], [-5], [2]])
    assert pick_split_var(Cube.full(5), meeting(f, Cube.full(5))) == 5
    assert read == [1, 2, 3]
    assert split_var(Cube.full(5), f) == 1
    # With no unit, the variable in the most clauses of the fewest free
    # literals wins, counted over free literals, not clause widths: C2
    # has two of its four free, as C3 has of its two, and x4 is in both.
    f = CnfFormula(5, [[3, 4, 5], [1, 2, 4, 5], [3, 4]])
    c = Cube.from_literals([-1, -2], 5)
    assert split_var(c, f, heuristic="unit-first") == 4
    assert split_var(c, f) == 3
    # The count decides: x3 is in both two-literal clauses, and the wider
    # C3, where x1 and x2 also occur, is not counted.
    f = CnfFormula(4, [[1, 3], [2, 3], [1, 2, 4]])
    assert split_var(Cube.full(4), f, heuristic="unit-first") == 3
    assert split_var(Cube.full(4), f) == 1
    # x1 and x2 are in two clauses each: the tie goes to the lower
    # variable, which the lowest-id clause C1 does not hold.
    f = CnfFormula(4, [[2, 3], [1, 4], [1, 2]])
    assert split_var(Cube.full(4), f, heuristic="unit-first") == 1


@pytest.mark.parametrize("heuristic", ["unit-first", "first-intersecting"])
def test_pick_split_var_needs_a_met_clause_with_a_free_variable(heuristic):
    f = CnfFormula(2, [[1, 2]])
    for c in (Cube.from_literals([-1, -2], 2), Cube.from_literals([1], 2)):
        with pytest.raises(ValueError, match="no intersecting clause pins"):
            split_var(c, f, heuristic)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 32 - 1))
def test_unit_first_no_unit_pick_is_a_most_occurring_narrowest_variable(
        n, seed):
    # Counted against a plain Counter over the narrowest met clauses'
    # free variables: the pick occurs in as many of them as any other
    # free variable, and is the lowest such. A unit only comes from
    # pinned variables here, and few are pinned.
    rng = random.Random(seed)
    formula = CnfFormula(n, [random_clause(n, rng, rng.randint(2, n))
                             for _ in range(rng.randint(1, 12))])
    mask = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
    c = Cube(n, mask, rng.getrandbits(n) & mask)
    meeting = list(formula.clauses_of(formula.meeting_bits(c.mask, c.val)))
    free = [[v for v in range(1, n + 1)
             if clause.fmask >> (v - 1) & 1 and not c.mask >> (v - 1) & 1]
            for clause in meeting]
    free = [variables for variables in free if variables]
    assume(free and min(map(len, free)) > 1)
    width = min(map(len, free))
    counts = Counter(v for variables in free if len(variables) == width
                     for v in variables)
    var = split_var(c, formula, heuristic="unit-first")
    assert counts[var] == max(counts.values())
    assert var == min(v for v in counts if counts[v] == counts[var])


@pytest.mark.parametrize("holes, iterations, body", [(5, 1539, 458),
                                                     (6, 4333, 1152)])
def test_unit_first_pigeon_hole_counts(holes, iterations, body):
    # The all-free PH(p+1, p) runs under MOMS, pinned as counts.
    formula = ph_formula(holes + 1, holes)[0]
    result = gen_ssc(formula)
    assert not result.satisfiable
    assert (result.iterations, len(result.body)) == (iterations, body)
    assert verify_ssc(result.formula, result.body, result.transport)


def test_unit_first_takes_no_more_iterations():
    # The unit rule shrinks the split tree on the all-free corpus.
    def iterations(runs):
        return sum(result.iterations for _, result in runs)
    assert iterations(default_start_certificates()) <= iterations(
        default_start_certificates(split_heuristic="first-intersecting"))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["first-intersecting", "unit-first"]))
def test_pick_split_var_reads_the_bitset_as_the_list(n, seed, heuristic):
    # The engine passes the clauses of a meeting bitset, lazily, in id
    # order; the answer is the one the meeting list gives. With nothing
    # falsified, first-intersecting reads only the first clause.
    rng = random.Random(seed)
    formula = CnfFormula(n, [random_clause(n, rng)
                             for _ in range(rng.randint(1, 12))])
    for _ in range(rng.randint(0, 4)):
        formula.learn(random_clause(n, rng))
    mask = rng.getrandbits(n)
    c = Cube(n, mask, rng.getrandbits(n) & mask)
    read = []

    def clauses(bits):
        for clause in formula.clauses_of(bits):
            read.append(clause)
            yield clause

    answers = []
    for meeting in (list(formula.clauses_of(
                        formula.meeting_bits(c.mask, c.val))),
                    clauses(formula.meeting_bits(c.mask, c.val))):
        try:
            answers.append(pick_split_var(c, meeting, heuristic))
        except ValueError as exc:
            answers.append(str(exc))
    assert answers[0] == answers[1]
    if heuristic == "first-intersecting" and \
            not formula.falsified(c.mask, c.val) and read:
        assert len(read) == 1 and isinstance(answers[1], int)


def test_xi_never_decreases(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    xi = xi_from_trace(result.trace, vb_formula)
    values = [union + clauses for union, clauses in xi]
    assert values == sorted(values)
    assert len(xi) == result.iterations
    assert xi[-1][0] == union_count(result.body)
    assert xi[-1][0] == 16  # body covers the whole space


def test_expand_body_matches_appendix_construction(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    points, transport = expand_body_to_points(result.body, result.transport)
    assert len(points) == 16
    assert reference_stable(result.formula, *point_tuples(points, transport))
    assert verify_ssc(result.formula, points, transport)


def test_lifo_and_shared_coverage_stay_sound():
    rng = random.Random(55)
    for _ in range(40):
        f = random_3cnf(rng.randint(4, 7), rng.randint(8, 25), rng)
        oracle = brute_force_sat(f)
        for config in (SscConfig(pop_policy="lifo"),
                       SscConfig(coverage="shared"),
                       SscConfig(split_heuristic="first-intersecting"),
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


def test_learned_clauses_are_the_merge_resolvents():
    # The engine registers the resolvent merge built, not a second
    # Clause of the same literals.
    built = []
    merge = ssc.merge

    def recording(*args):
        outcome = merge(*args)
        if outcome is not None:
            built.append(outcome[1])
        return outcome

    with mock.patch.object(ssc, "merge", recording):
        result = gen_ssc(ph_formula(4, 3)[0])
    assert result.learned
    ids = {id(clause) for clause in built}
    assert all(id(clause) in ids for clause in result.learned)


def test_formula_not_mutated_by_solver(vb_formula):
    before = [c.lits for c in vb_formula.clauses]
    gen_ssc(vb_formula, SscConfig(init_cube=cube([-2, -3])))
    assert [c.lits for c in vb_formula.clauses] == before
    assert len(vb_formula.clauses) == 5


def test_a_merge_that_rebuilds_a_start_keeps_one_copy():
    # With the empty clause among others, the all-free cube is one
    # ne-style start of four. Merging the starts of clauses 2 and 3
    # rebuilds the start of clause 4, which stays in the Boundary once:
    # a second copy would be popped again.
    f = CnfFormula(2, [[], [1, 2], [-1, 2], [2]])
    result = gen_ssc(f, SscConfig(init_strategy="ne-style"))
    assert not result.satisfiable and result.iterations == 3
    assert result.body == [Cube.full(2), cube([-2], 2)]
    assert verify_ssc(result.formula, result.body, result.transport)


def test_ne_style_refuses_an_init_cube():
    # ne-style starts from every clause's falsifying cube and reads no
    # init cube, so it refuses one rather than drop it.
    with pytest.raises(ValueError, match="init cube"):
        SscConfig(init_strategy="ne-style", init_cube=cube([-2, -3]))


def test_learned_names_only_this_runs_clauses():
    # A formula that carries clauses an earlier run learned: the result
    # lists only the clauses this run created, one per learn step.
    formula = ph_formula(4, 3)[0]
    first = gen_ssc(formula, SscConfig(pop_policy="lifo"))
    again = gen_ssc(first.formula)
    assert first.learned and again.learned
    assert first.formula.clauses[len(formula.clauses):] == first.learned
    assert [c.cid for c in again.learned] == \
        [s.cid for s in again.learn_steps]


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


def fresh_lists(formula, cube, tested):
    """The clauses among the first `tested` that the cube falsifies, and
    the ids of those it meets as a bitset, from the cube tests alone."""
    clauses = formula.clauses[:tested]
    return ([c for c in clauses if cube_falsifies(cube, c)],
            sum(1 << (c.cid - 1) for c in clauses if not cube_satisfies(cube, c)))


@contextlib.contextmanager
def checked_lists(looked):
    """_Boundary.pop and ssc._find_merge patched to compare the Boundary
    records they read with fresh scans of the clauses each has tested:
    the falsified list in order, a split half's meeting bitset bit for
    bit. Pop checks the popped record against the whole formula; a
    merge search checks every record first, stale ones included.
    `looked` counts the refreshes that bring a record up to clauses
    learned since it was made, and the pops of a split half falsifying
    nothing, which read its inherited bitset."""
    pop, refresh, find = _Boundary.pop, _Boundary.refresh, ssc._find_merge

    def checked_pop(self):
        derived = self.stack[-1][3] is not None
        popped = pop(self)
        cube, hits, meeting = popped
        falsified, met = fresh_lists(self.formula, cube, len(self.formula.clauses))
        assert hits == falsified
        if not hits:
            assert meeting == met
            looked["meeting"] += derived
        return popped

    def counted_refresh(self, record):
        looked["refresh"] += 1
        return refresh(self, record)

    def checked_find(boundary, p, h_p):
        for cube, tested, hits, met in boundary.stack:
            falsified, meeting = fresh_lists(boundary.formula, cube, tested)
            assert hits == falsified
            assert met is None or met == meeting
        return find(boundary, p, h_p)

    with mock.patch.multiple(_Boundary, pop=checked_pop, refresh=counted_refresh), \
            mock.patch.object(ssc, "_find_merge", checked_find):
        yield


LIST_CONFIGS = [SscConfig(), SscConfig(init_strategy="ne-style"),
                SscConfig(pop_policy="lifo"),
                SscConfig(split_heuristic="first-intersecting"),
                SscConfig(merge_enabled=False), SscConfig(coverage="shared")]


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(LIST_CONFIGS), st.booleans(), st.booleans())
def test_inherited_lists_match_fresh_scans(n, seed, config, empty, pinned):
    # Children derive their clause lists from their parent's; each must
    # equal a scan of the whole formula whenever the engine reads it.
    rng = random.Random(seed)
    formula = random_3cnf(n, rng.randint(1, 6 * n), rng)
    if pinned and config.init_strategy == "single-cube":
        # A start cube pinning many variables falsifies several clauses,
        # so neighbours both keep and gain clauses.
        mask = rng.getrandbits(n) | rng.getrandbits(n)
        config = dataclasses.replace(
            config, init_cube=Cube(n, mask, rng.getrandbits(n) & mask))
    if empty:
        # The empty clause is in no occurrence list: only inheritance
        # carries it to a child.
        clauses = [c.lits for c in formula.clauses]
        clauses.insert(rng.randint(0, len(clauses)), ())
        formula = CnfFormula(n, clauses)
    with checked_lists(Counter()):
        result = gen_ssc(formula, config)
    assert result.satisfiable == brute_force_sat(formula).satisfiable


def test_inherited_lists_are_read():
    # Derived records of both kinds are read, and records are refreshed
    # with learned resolvents, so the comparison above checks them.
    looked = Counter()
    rng = random.Random(11)
    with checked_lists(looked):
        for _ in range(10):
            result = gen_ssc(random_3cnf(10, 50, rng))
            assert not result.satisfiable or result.witness is not None
        result = gen_ssc(ph_formula(4, 3)[0])
    assert not result.satisfiable and result.learned
    assert looked["refresh"] > 0 and looked["meeting"] > 0


def test_neighbor_list_merges_kept_and_gained_in_id_order():
    # The start cube falsifies clauses 1 and 3; its neighbour through x1
    # keeps 3 and gains 2, so its list is [2, 3] only once sorted.
    f = CnfFormula(3, [[1, 2], [-1, 2], [3]])
    with checked_lists(Counter()):
        result = gen_ssc(f, SscConfig(init_cube=cube([-1, -2, -3], 3)))
    assert result.witness == cube([-1, 2, 3], 3)


def test_empty_clause_is_inherited_by_every_child():
    # The empty clause comes last, so the first clause is expanded and
    # its neighbours carry the empty clause on from their parent.
    f = CnfFormula(3, [[1, 2], [-1, 3], []])
    with checked_lists(Counter()):
        result = gen_ssc(f, SscConfig(init_cube=Cube.from_literals([-1, -2], 3)))
    assert not result.satisfiable
    assert verify_ssc(result.formula, result.body, result.transport)


def full_scans():
    """CnfFormula.falsified and .meeting_bits patched to record the cube
    (mask, val) of each scan over the whole clause list."""
    scans = {"falsified": [], "meeting_bits": []}
    originals = {name: getattr(CnfFormula, name) for name in scans}

    def recording(name):
        def scan(self, mask, val):
            scans[name].append((mask, val))
            return originals[name](self, mask, val)
        return scan

    patch = mock.patch.multiple(CnfFormula, **{name: recording(name)
                                               for name in scans})
    return patch, scans


def test_engine_scans_whole_formula_only_for_the_start_cube():
    # A regression to rescanning the formula per popped cube shows here as
    # a count, with no timing: every other cube's lists are derived.
    formulas = [ph_formula(5, 4)[0],
                random_3cnf(20, 85, random.Random(4))]
    for formula in formulas:
        patch, scans = full_scans()
        with patch:
            result = gen_ssc(formula)
        assert result.iterations > 100
        assert scans["falsified"] == [(0, 0)]
        assert scans["meeting_bits"] == [(0, 0)]


def engine_locals():
    """The local variables of the gen_ssc call that called the caller."""
    frame = sys._getframe(2)
    while frame.f_code is not gen_ssc.__code__:
        frame = frame.f_back
    return frame.f_locals


def checked_queries(checks, whole=False):
    """ssc.is_covered patched to assert, at each engine query, that the
    cover index holds Body + Boundary, plus the popped cube while its
    neighbours are judged (they are disjoint from it; split halves lie
    inside it), and that the Boundary's membership set holds exactly
    the cubes of its records. Appends (kind, verdict) to `checks` per query, kind "split"
    for a target inside the popped cube and "nbhd" for a neighbour.

    With `whole` (an all-free start), also asserts that Body + Boundary
    and the popped cube cover the whole space at each query, and that
    the index does at each neighbourhood step (ssc.cube_nbhd patched),
    where the engine judges every neighbour covered without a query."""
    original, nbhd = ssc.is_covered, ssc.cube_nbhd

    def is_covered(target, covers, *args):
        engine = engine_locals()
        p = engine["p"]
        boundary = engine["boundary"]
        cubes = boundary_cubes(boundary)
        assert boundary.members == set(cubes)
        assert len(boundary.members) == len(cubes)
        expected = Counter(list(engine["transport"]))
        expected.update(cubes)
        split = cube_contains(p, target)
        if not split:
            expected[p] += 1
        assert Counter({cube: len(slots) for cube, slots
                        in covers._slots.items()}) == expected
        assert len(covers) == expected.total()
        if whole:
            assert original(Cube.full(p.n),
                            CoverIndex(p.n, [*expected, p])) == COVERED
        verdict = original(target, covers, *args)
        checks.append(("split" if split else "nbhd", verdict))
        return verdict

    def cube_nbhd(p, clause):
        if whole:
            assert original(Cube.full(p.n), engine_locals()["covers"]) == COVERED
        return nbhd(p, clause)

    return mock.patch.multiple(ssc, is_covered=is_covered, cube_nbhd=cube_nbhd)


def renamed_ph43(draw):
    """PH(4,3) with its variables renamed and its clauses shuffled."""
    formula, _ = ph_formula(4, 3)
    sigma = (0, *draw(st.permutations(range(1, formula.num_vars + 1))))
    clauses = [[sigma[l] if l > 0 else -sigma[-l] for l in clause.lits]
               for clause in draw(st.permutations(formula.clauses))]
    return CnfFormula(formula.num_vars, clauses)


@st.composite
def index_instances(draw, max_vars=10):
    """A random 3-CNF over at most `max_vars` variables, or a renamed
    PH(4,3)."""
    if draw(st.booleans()):
        n = draw(st.integers(3, max_vars))
        ratio = draw(st.sampled_from((3.0, 4.26, 5.5)))
        return random_3cnf(n, round(n * ratio),
                           random.Random(draw(st.integers(0, 10 ** 6))))
    return renamed_ph43(draw)


@settings(max_examples=100, deadline=None)
@given(index_instances(), st.sampled_from(("fifo", "lifo")),
       st.sampled_from(("full", "shared")))
def test_cover_index_holds_body_and_boundary_at_every_query(formula, pop,
                                                            scope):
    checks = []
    with checked_queries(checks, whole=scope == "shared"):
        result = gen_ssc(formula, SscConfig(pop_policy=pop, coverage=scope))
    if scope == "full":
        # The all-free start knows every answer and asks no query.
        assert checks == []
    else:
        # A shared-literal query may miss a cover, so that scope asks.
        assert result.satisfiable or checks


def checked_cube(c):
    """An engine-made cube equals, and hashes like, the cube the checked
    constructor makes of its fields; that constructor raises on a cube
    out of range."""
    checked = Cube(c.n, c.mask, c.val)
    assert c == checked and hash(c) == hash(checked)


@settings(max_examples=100, deadline=None)
@given(index_instances(max_vars=12),
       st.sampled_from(("first-intersecting", "unit-first")),
       st.booleans())
def test_engine_made_cubes_are_valid(formula, heuristic, merge_on):
    # Split halves and merge hulls are built without range checks; every
    # one, and so every Body cube and witness, must be a valid cube.
    split, merge = Cube.split, ssc.merge
    built = []

    def recording_split(self, var):
        halves = split(self, var)
        built.extend(halves)
        return halves

    def recording_merge(*args):
        outcome = merge(*args)
        if outcome is not None:
            built.append(outcome[0])
        return outcome

    with mock.patch.object(Cube, "split", recording_split), \
            mock.patch.object(ssc, "merge", recording_merge):
        result = gen_ssc(formula, SscConfig(split_heuristic=heuristic,
                                            merge_enabled=merge_on))
    assert built
    for c in built + result.body + [result.witness] * result.satisfiable:
        checked_cube(c)


def test_partial_start_queries_neighbours():
    # A start that pins x1 leaves the rest of the space unreached, so the
    # engine asks about each neighbour, and some are new.
    verdicts = Counter()
    rng = random.Random(8)
    formulas = [ph_formula(4, 3)[0]] + [random_3cnf(10, 50, rng)
                                        for _ in range(5)]
    for formula in formulas:
        checks = []
        with checked_queries(checks):
            gen_ssc(formula, SscConfig(
                init_cube=Cube.from_literals([-1], formula.num_vars)))
        verdicts.update(verdict for kind, verdict in checks if kind == "nbhd")
    assert verdicts[COVERED] > 0 and verdicts[UNCOVERED] > 0


def test_default_start_makes_no_neighbourhood_query():
    # Nor a split query: the all-free start builds no cover index.
    for formula in (ph_formula(5, 4)[0], random_3cnf(20, 85, random.Random(4))):
        with mock.patch.object(ssc, "is_covered",
                               wraps=ssc.is_covered) as queries, \
                mock.patch.object(ssc, "CoverIndex",
                                  wraps=CoverIndex) as built, \
                mock.patch.object(CoverIndex, "add", autospec=True,
                                  side_effect=CoverIndex.add) as added:
            result = gen_ssc(formula)
        assert result.iterations > 100
        assert (queries.call_count, built.call_count, added.call_count) == \
            (0, 0, 0)


def test_golden_run_index_upkeep(vb_formula, golden_config):
    # Every pushed cube enters the index at once, the start cube and the
    # split halves included.
    calls = Counter()

    def counting(name):
        original = getattr(CoverIndex, name)

        def method(self, cube):
            calls[name] += 1
            return original(self, cube)
        return method

    checks = []
    with mock.patch.multiple(CoverIndex, add=counting("add"),
                             discard=counting("discard")), \
            checked_queries(checks):
        result = gen_ssc(vb_formula, golden_config)
    assert not result.satisfiable
    assert len(checks) == 10
    assert calls == {"add": 10, "discard": 6}


@st.composite
def all_free_instances(draw):
    """A random CNF over at most 12 variables with clauses of width 1 to
    4, unit clauses included, or a renamed PH(4,3)."""
    if draw(st.booleans()):
        return renamed_ph43(draw)
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return CnfFormula(n, [random_clause(n, rng, rng.randint(1, min(4, n)))
                          for _ in range(rng.randint(1, 5 * n))])


ALL_FREE_CONFIGS = st.builds(
    SscConfig, split_heuristic=st.sampled_from(("first-intersecting",
                                                "unit-first")),
    merge_enabled=st.booleans(), pop_policy=st.sampled_from(("fifo", "lifo")))


def split_tree_checks(counts):
    """ssc.pick_split_var and ssc._find_merge patched to check the split
    tree proof of gen_ssc: at every split the popped cube meets no Body
    cube and no Boundary cube, and every merge result is its partner's
    parent, holding both cubes with one pin fewer than the partner, and
    is not in the Boundary, whose cubes are distinct. Counts the splits
    and merges checked in `counts`."""
    pick, find = ssc.pick_split_var, ssc._find_merge

    def pick_split_var(p, *args):
        engine = engine_locals()
        cubes = boundary_cubes(engine["boundary"])
        assert not any(intersects(q, p) for q in engine["transport"])
        assert not any(intersects(q, p) for q in cubes)
        assert len(set(cubes)) == len(cubes)
        counts["split"] += 1
        return pick(p, *args)

    def find_merge(boundary, p, h_p):
        outcome = find(boundary, p, h_p)
        if outcome is not None:
            merged, partner = outcome.cube, outcome.partner
            assert cube_contains(merged, p) and cube_contains(merged, partner)
            assert merged.mask.bit_count() == partner.mask.bit_count() - 1
            assert merged not in boundary_cubes(boundary)
            counts["merge"] += 1
        return outcome

    return mock.patch.multiple(ssc, pick_split_var=pick_split_var,
                               _find_merge=find_merge)


@settings(max_examples=150, deadline=None)
@given(all_free_instances(), ALL_FREE_CONFIGS)
def test_all_free_splits_meet_no_other_cube(formula, config):
    with split_tree_checks(Counter()):
        result = gen_ssc(formula, config)
    assert result.satisfiable == brute_force_sat(formula).satisfiable


def test_split_tree_checks_run():
    # The corpus above splits and merges, so its checks are not vacuous.
    counts = Counter()
    rng = random.Random(3)
    formulas = [ph_formula(4, 3)[0]] + [
        CnfFormula(12, [random_clause(12, rng, rng.randint(1, 4))
                        for _ in range(40)]) for _ in range(5)]
    with split_tree_checks(counts):
        for formula in formulas:
            for merge in (True, False):
                gen_ssc(formula, SscConfig(merge_enabled=merge))
    assert counts["split"] > 100 and counts["merge"] > 10


@settings(max_examples=100, deadline=None)
@given(all_free_instances(), ALL_FREE_CONFIGS)
def test_all_free_certificates_pass_the_cover_path(formula, config):
    result = gen_ssc(formula, config)
    assume(not result.satisfiable)
    formula, body, transport = result.formula, result.body, result.transport
    n = formula.num_vars
    report = VerifyReport()
    members = checked_members(formula, body, transport, report)
    assert report and None not in members.values()
    assert sum(count_points(cube) for cube in members) >= 1 << n
    patch, targets = checker_queries()
    with patch, mock.patch.object(ssc, "unreached_neighbors") as neighbours:
        assert verify_ssc(formula, body, transport)
    assert targets == [Cube.full(n)] and not neighbours.called
    assert is_covered(Cube.full(n), CoverIndex(n, body)) == COVERED


def counted_nbhd(calls):
    """ssc.cube_nbhd patched to append each cube it is called on to `calls`."""
    nbhd = ssc.cube_nbhd

    def cube_nbhd(p, clause):
        calls.append(p)
        return nbhd(p, clause)
    return mock.patch.object(ssc, "cube_nbhd", cube_nbhd)


@settings(max_examples=100, deadline=None)
@given(index_instances(max_vars=12),
       st.sampled_from(("first-intersecting", "unit-first")),
       st.booleans(), st.booleans())
def test_the_trace_changes_no_result(formula, heuristic, merge, pinned):
    init = Cube.from_literals([1], formula.num_vars) if pinned else None
    runs = {}
    for record in (False, True):
        calls = []
        with counted_nbhd(calls):
            runs[record] = calls, gen_ssc(formula, SscConfig(
                init_cube=init, split_heuristic=heuristic,
                merge_enabled=merge, record_trace=record))
    (off_calls, off), (on_calls, on) = runs[False], runs[True]
    for name in ("satisfiable", "witness", "body", "transport",
                 "learn_steps", "iterations"):
        assert getattr(off, name) == getattr(on, name), name
    # The traced run builds the neighbours of each Body move, in order.
    moves = [record.payload.rsplit(" clause ", 1)[0] for record in on.trace
             if record.kind == "move-to-body"]
    assert moves == [f"cube {p.to_text()} 0" for p in on_calls]
    # Untraced, only a partial start, which queries them, builds them.
    assert off_calls == (on_calls if pinned else [])


def test_partial_start_builds_neighbours_untraced():
    calls = []
    formula = ph_formula(4, 3)[0]
    with counted_nbhd(calls):
        result = gen_ssc(formula, SscConfig(
            init_cube=Cube.from_literals([1], formula.num_vars)))
    assert not result.satisfiable and len(calls) > 0
