import contextlib
import io
import os
import random
import tempfile
import tracemalloc
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesat import proofs, symmetry
from stablesat.cli import cli_main
from stablesat.core import (Clause, CnfFormula, bits_to_point, evaluate_clause,
                            point_bits, point_nbhd)
from stablesat.cubes import Cube
from stablesat.dimacs import write_dimacs
from stablesat.oracle import brute_force_sat
from stablesat.proofs import proof_from_result, replay_proof
from stablesat.ssc import verify_ssc
from stablesat.ssp import SspConfig, SspResult, gen_ssp
from stablesat.symmetry import (ORBIT_LIMIT, TABLE_LIMIT, OrbitLimitExceeded,
                                Permutation, SymmetryGroup, _OrbitWalker,
                                apply_perm_clause, apply_perm_point,
                                expand_mod_sym_to_ssp, format_symmetry_file,
                                gen_ssp_mod_symmetry, group_from_cycles,
                                is_symmetric, parse_permutation,
                                parse_symmetry_file,
                                ph_formula, ph_symmetry_generators,
                                table_bytes, verify_stable_mod_symmetry)
from conftest import point_cubes, point_tuples, random_3cnf, reference_stable


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_falsified(n, rng):
    width = rng.randint(1, n)
    variables = rng.sample(range(1, n + 1), width)
    lits = [v if rng.random() < 0.5 else -v for v in variables]
    clause = Clause(lits)
    point = [rng.randint(0, 1) for _ in range(n)]
    for lit in lits:
        point[abs(lit) - 1] = 0 if lit > 0 else 1
    return tuple(point), clause


def test_permutation_validation_and_cycles():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    perm = Permutation.from_cycles([[1, 4], [2, 5], [3, 6]], 6)
    assert perm.to_cycle_text() == "(1 4)(2 5)(3 6)"
    # A product of transpositions is its own inverse.
    assert Permutation(perm(perm(v)) for v in range(1, 7)) == \
        Permutation.identity(6)
    assert Permutation.identity(4).cycles() == []


def test_parse_permutation_roundtrip():
    perm = parse_permutation("(1 4)(2 5)(3 6)", 6)
    assert perm == Permutation.from_cycles([[1, 4], [2, 5], [3, 6]], 6)
    assert parse_permutation("()", 3) == Permutation.identity(3)
    with pytest.raises(ValueError):
        parse_permutation("1 4)(", 6)


def test_symmetry_file_roundtrip():
    _, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    text = format_symmetry_file(group)
    again = parse_symmetry_file(text, inst.num_vars)
    assert again.generators == group.generators


def test_apply_perm_point_identity_and_swap():
    p = (1, 0, 1)
    assert apply_perm_point(Permutation.identity(3), p) == p
    swap = Permutation.from_cycles([[1, 2]], 3)
    assert apply_perm_point(swap, (1, 0, 1)) == (0, 1, 1)


def test_apply_perm_point_composition_law():
    rng = random.Random(60)
    for _ in range(100):
        n = rng.randint(2, 8)
        pi, sigma = random_perm(n, rng), random_perm(n, rng)
        point = tuple(rng.randint(0, 1) for _ in range(n))
        pi_sigma = Permutation(pi(sigma(v)) for v in range(1, n + 1))
        assert apply_perm_point(pi_sigma, point) == \
            apply_perm_point(pi, apply_perm_point(sigma, point))


def test_apply_perm_clause_examples():
    clause = Clause([1, -3])
    assert apply_perm_clause(Permutation.identity(3), clause) == clause
    swap = Permutation.from_cycles([[1, 2]], 3)
    assert apply_perm_clause(swap, clause) == Clause([2, -3])


def test_falsification_commutes_with_permutation():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(2, 8)
        point, clause = random_falsified(n, rng)
        perm = random_perm(n, rng)
        image_point = apply_perm_point(perm, point)
        image_clause = apply_perm_clause(perm, clause)
        assert not evaluate_clause(image_clause, image_point)
        satisfying = tuple(1 - v for v in point)
        assert evaluate_clause(clause, satisfying) == \
            evaluate_clause(image_clause, apply_perm_point(perm, satisfying))


def test_neighborhood_image_property():
    rng = random.Random(62)
    for _ in range(200):
        n = rng.randint(2, 8)
        point, clause = random_falsified(n, rng)
        perm = random_perm(n, rng)
        direct = {apply_perm_point(perm, q) for q in point_nbhd(point, clause)}
        image = set(point_nbhd(apply_perm_point(perm, point),
                               apply_perm_clause(perm, clause)))
        assert direct == image


def test_is_symmetric_ph_generators():
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    assert len(group.generators) == 3  # two pigeon swaps, one hole swap
    for gen in group.generators:
        assert is_symmetric(f, gen)


def test_is_symmetric_negative():
    f = CnfFormula(2, [[1]])
    assert not is_symmetric(f, Permutation.from_cycles([[1, 2]], 2))


def test_in_same_orbit_cases():
    f, inst = ph_formula(2, 1)
    group = ph_symmetry_generators(inst)
    assert in_same_orbit((1, 0), (1, 0), group) == "yes"
    # The limit counts orbit points in all, the start included.
    assert in_same_orbit((1, 0), (0, 1), group, limit=1) == "unknown"
    assert in_same_orbit((1, 0), (0, 1), group, limit=2) == "yes"
    assert in_same_orbit((0, 0), (1, 1), group) == "no"  # weight differs
    _, inst22 = ph_formula(2, 2)
    group22 = ph_symmetry_generators(inst22)
    verdict = in_same_orbit((1, 0, 0, 0), (1, 1, 0, 1), group22, limit=2)
    assert verdict == "unknown"
    assert in_same_orbit((1, 0, 0, 0), (1, 1, 0, 1), group22) == "no"


def test_orbit_relation_is_equivalence():
    rng = random.Random(63)
    _, inst = ph_formula(2, 2)
    group = ph_symmetry_generators(inst)
    points = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(12)]
    for p in points:
        assert in_same_orbit(p, p, group) == "yes"
    for p in points[:6]:
        for q in points[:6]:
            assert in_same_orbit(p, q, group) == in_same_orbit(q, p, group)
    # transitivity via orbit partition: equal orbits or disjoint ones
    orbits = []
    for p in points:
        member = {q for q in points if in_same_orbit(p, q, group) == "yes"}
        orbits.append(member)
    for a in orbits:
        for b in orbits:
            assert a == b or not (a & b)


def test_ph_formula_smallest_instance():
    f, inst = ph_formula(2, 1)
    assert f.num_vars == 2
    assert [c.lits for c in f.clauses] == [(1,), (2,), (-1, -2)]


def test_ph_clause_counts():
    for n in range(1, 5):
        for m in range(1, 5):
            f, _ = ph_formula(n, m)
            assert len(f.clauses) == n + m * n * (n - 1) // 2
            assert f.num_vars == n * m


def test_ph_verdicts_small():
    for n in range(1, 4):
        for m in range(1, 4):
            f, _ = ph_formula(n, m)
            assert brute_force_sat(f).satisfiable == (n <= m)


def test_gen_mod_sym_requires_symmetric_formula():
    f = CnfFormula(2, [[1]])
    bad = SymmetryGroup([Permutation.from_cycles([[1, 2]], 2)], 2)
    with pytest.raises(ValueError):
        gen_ssp_mod_symmetry(f, bad)


def test_gen_mod_sym_ph21_roundtrip():
    f, inst = ph_formula(2, 1)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert not result.satisfiable
    assert verify_stable_mod_symmetry(f, result.points, result.transport, group)
    points, transport = expand_mod_sym_to_ssp(f, result.points,
                                              result.transport, group)
    assert reference_stable(f, *point_tuples(points, transport))


def test_verify_mod_sym_rejects_an_asymmetric_group(monkeypatch):
    # The formula is satisfiable (x1 = 1, x2 = 0), and (1 2) does not map
    # it onto itself. Under (1 2) the neighbour 10 of 00 lies in the orbit
    # of the member 01, so only the generator check rejects the set.
    f = CnfFormula(2, [[1], [-2]])
    swap = Permutation.from_cycles([[1, 2]], 2)
    points, transport = point_cubes([(0, 0), (0, 1)], {(0, 0): 1, (0, 1): 2})
    monkeypatch.setattr(_OrbitWalker, "walk", lambda *args: pytest.fail(
        "an orbit was walked before the generators were checked"))
    report = verify_stable_mod_symmetry(f, points, transport,
                                        SymmetryGroup([swap], 2))
    assert report.failures == [f"formula is not symmetric under {swap!r}"]


def test_verify_mod_sym_rejects_a_cluster():
    f = CnfFormula(2, [[1], [-1]])
    cluster = Cube.from_literals([-1], 2)
    report = verify_stable_mod_symmetry(f, [cluster], {cluster: 1},
                                        SymmetryGroup([], 2))
    assert report.failures == ["cluster -1: not a point"]


def test_gen_mod_sym_trivial_group_matches_plain():
    f, _ = ph_formula(2, 1)
    group = SymmetryGroup([], f.num_vars)
    result = gen_ssp_mod_symmetry(f, group)
    plain = gen_ssp(f)
    assert not result.satisfiable
    assert set(result.points) == set(plain.points)
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(3, 10)
        f = random_3cnf(n, round(n * rng.choice((3.0, 4.26, 5.5))), rng)
        result = gen_ssp_mod_symmetry(f, SymmetryGroup([], n))
        plain = gen_ssp(f)
        assert (result.satisfiable, result.witness, result.iterations) == \
            (plain.satisfiable, plain.witness, plain.iterations)
        assert result.points == plain.points
        assert result.transport == plain.transport
        # The identity canonicaliser is the plain engine's own.
        identity = gen_ssp(f, None, SspConfig(canonical=lambda b: b,
                                               record_trace=True))
        plain = gen_ssp(f, None, SspConfig(record_trace=True))
        assert (identity.trace, identity.points, identity.transport) == \
            (plain.trace, plain.points, plain.transport)


def test_gen_mod_sym_ph_representatives():
    for m, size in ((1, 3), (2, 6), (3, 11), (4, 18)):
        f, inst = ph_formula(m + 1, m)
        result = gen_ssp_mod_symmetry(f, ph_symmetry_generators(inst))
        assert not result.satisfiable
        assert len(result.points) == size, f"PH({m + 1},{m})"


def test_gen_mod_sym_satisfiable_instance():
    f, inst = ph_formula(2, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert result.satisfiable
    assert all(evaluate_clause(c, result.witness) for c in f.clauses)


def test_verify_mod_sym_rejects_mutation():
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert not result.satisfiable
    points = list(result.points)
    removed = points.pop()
    transport = {p: c for p, c in result.transport.items() if p != removed}
    assert not verify_stable_mod_symmetry(f, points, transport, group)


def _verdicts(f, points, transport):
    proof = proof_from_result(SspResult(False, points=points,
                                        transport=transport))
    return (reference_stable(f, *point_tuples(points, transport)),
            bool(verify_ssc(f, points, transport)),
            bool(replay_proof(f, proof)),
            bool(verify_stable_mod_symmetry(f, points, transport,
                                            SymmetryGroup([], f.num_vars))))


def test_verify_mod_sym_trivial_group_matches_point_reference(chain6_formula,
                                                              chain6_ssp):
    points, transport = chain6_ssp
    assert _verdicts(chain6_formula, points, transport) == (True,) * 4
    broken = [p for p in points if p != points[8]]
    tb = {p: c for p, c in transport.items() if p != points[8]}
    assert _verdicts(chain6_formula, broken, tb) == (False,) * 4
    # The same certificate, intact and mutated, gets one verdict from the
    # point reference, the cluster verifier, proof replay and the
    # trivial-group symmetry check.
    rng = random.Random(64)
    checked = rejected = 0
    while checked < 60:
        n = rng.randint(3, 8)
        f = random_3cnf(n, round(n * rng.choice((5.5, 7.0))), rng)
        result = gen_ssp(f)
        if result.satisfiable:
            continue
        checked += 1
        points, transport = result.points, result.transport
        assert _verdicts(f, points, transport) == (True,) * 4
        gone = rng.choice(points)
        rest = [p for p in points if p != gone]
        kept = {p: c for p, c in transport.items() if p != gone}
        verdicts = _verdicts(f, rest, kept)
        assert len(set(verdicts)) == 1
        rejected += not verdicts[0]
        point = rng.choice(points)
        satisfied = [c.cid for c in f.clauses
                     if evaluate_clause(c, point.to_point())]
        moved = {**transport, point: rng.choice(satisfied)}
        assert _verdicts(f, points, moved) == (False,) * 4
    assert rejected > 0


def _reference_mod_sym(f, points, transport, group, limit):
    """Stability modulo the group, on tuples, asking in_same_orbit about
    every non-member neighbor against every member."""
    points, transport = point_tuples(points, transport)
    members = set(points)
    for point in points:
        clause = f.clause_by_id(transport[point])
        if evaluate_clause(clause, point):
            return False
        for neighbor in point_nbhd(point, clause):
            if neighbor not in members and not any(
                    in_same_orbit(neighbor, m, group, limit) == "yes"
                    for m in members):
                return False
    return True


def test_verify_mod_sym_matches_reference_on_ph():
    # Small limits cut walks short; their verdicts depend on the start.
    for m in (1, 2, 3):
        f, inst = ph_formula(m + 1, m)
        group = ph_symmetry_generators(inst)
        result = gen_ssp_mod_symmetry(f, group)
        assert verify_stable_mod_symmetry(f, result.points, result.transport,
                                          group)
        for gone in result.points:
            points = [p for p in result.points if p != gone]
            transport = {p: c for p, c in result.transport.items() if p != gone}
            for limit in (2, 3, 5, 9, 10 ** 6):
                verdict = verify_stable_mod_symmetry(f, points, transport,
                                                     group, limit)
                assert bool(verdict) == _reference_mod_sym(
                    f, points, transport, group, limit), (m, gone, limit)


def test_verify_mod_sym_replays_what_a_corrupted_table_claims(monkeypatch):
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert verify_stable_mod_symmetry(f, result.points, result.transport, group)
    point = result.points[0]
    points, transport = [point], {point: result.transport[point]}
    assert not verify_stable_mod_symmetry(f, points, transport, group)
    # Generator 0's table (n = 6: a single byte) now sends every point onto
    # the member, so the walker finds it in every neighbor's orbit.
    real, member = symmetry._byte_tables, point.val

    def corrupted(perm):
        return [[member] * 64] if perm is group.generators[0] else real(perm)

    monkeypatch.setattr(symmetry, "_byte_tables", corrupted)
    walker = _OrbitWalker(group, ORBIT_LIMIT)
    neighbors = point_nbhd(point.to_point(), f.clause_by_id(transport[point]))
    assert all(member in walker.orbit(point_bits(q))[0] for q in neighbors)
    report = verify_stable_mod_symmetry(f, points, transport, group)
    assert not report
    assert len(report.failures) == len(neighbors)
    assert all("generator steps" in failure for failure in report.failures)


def test_verify_mod_sym_replays_points_of_a_cached_orbit(monkeypatch):
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    gone = (1, 0, 1, 0, 0, 0)
    points = [p for p in result.points if p != Cube.from_point(gone)]
    transport = {p: result.transport[p] for p in points}
    assert len(points) == len(result.points) - 1
    assert not verify_stable_mod_symmetry(f, points, transport, group)
    # One wrong entry: generator 0, (1 3)(2 4), sends 100000 to 101000, not
    # to 001000. That joins the orbit of 101000, which now holds no member,
    # to orbits that do. A check that replays only the walk that found a
    # member, and trusts the orbit it cached, accepts this set.
    real = symmetry._byte_tables

    def corrupted(perm):
        tables = real(perm)
        if perm is group.generators[0]:
            tables[0][point_bits((1, 0, 0, 0, 0, 0))] = point_bits(gone)
        return tables

    monkeypatch.setattr(symmetry, "_byte_tables", corrupted)
    report = verify_stable_mod_symmetry(f, points, transport, group)
    assert not report
    assert all("generator steps" in failure for failure in report.failures)


def test_verify_mod_sym_limit_one_names_the_limit():
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert verify_stable_mod_symmetry(f, result.points, result.transport, group)
    report = verify_stable_mod_symmetry(f, result.points, result.transport,
                                        group, limit=1)
    assert not report
    assert all("limit 1" in failure for failure in report.failures)


def test_expand_trivial_group_is_identity(chain6_formula, chain6_ssp):
    points, transport = chain6_ssp
    group = SymmetryGroup([], 6)
    expanded, etransport = expand_mod_sym_to_ssp(chain6_formula, points,
                                                 transport, group)
    assert set(expanded) == set(points)
    assert etransport == transport
    # Clauses 1 and 2 are copies; the point (0, 0) keeps the second.
    f = CnfFormula(2, [[1], [1], [-1]])
    points, transport = point_cubes([(0, 0), (0, 1), (1, 0), (1, 1)],
                                    {(0, 0): 2, (0, 1): 1, (1, 0): 3, (1, 1): 3})
    assert reference_stable(f, *point_tuples(points, transport))
    for group in (SymmetryGroup([], 2),
                  SymmetryGroup([Permutation.identity(2)], 2)):
        assert expand_mod_sym_to_ssp(f, points, transport, group) == \
            (points, transport)


def test_expand_rejects_a_missing_image():
    f = CnfFormula(2, [[1]])
    swap = SymmetryGroup([Permutation.from_cycles([[1, 2]], 2)], 2)
    with pytest.raises(ValueError, match="permuted transport clause"):
        expand_mod_sym_to_ssp(f, *point_cubes([(0, 1)], {(0, 1): 1}), swap)


def test_expand_overflow_raises():
    f, inst = ph_formula(4, 3)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert not result.satisfiable
    with pytest.raises(OrbitLimitExceeded):
        expand_mod_sym_to_ssp(f, result.points, result.transport, group,
                              limit=100)


def test_expand_ph32_verifies():
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    points, transport = expand_mod_sym_to_ssp(f, result.points,
                                              result.transport, group)
    assert reference_stable(f, *point_tuples(points, transport))
    assert len(points) >= len(result.points)


def test_ph_generators_edge_cases():
    _, inst = ph_formula(1, 1)
    assert ph_symmetry_generators(inst).generators == []


def _reference_walk(group, point, cap):
    """Breadth-first orbit walk by apply_perm_point: the first `cap`
    (image, parent, generator index) steps that reach a new point."""
    seen, steps, frontier = {point}, [], [point]
    while frontier:
        nxt = []
        for p in frontier:
            for gi, g in enumerate(group.generators):
                image = apply_perm_point(g, p)
                if image not in seen:
                    if len(steps) == cap:
                        return steps
                    seen.add(image)
                    steps.append((image, p, gi))
                    nxt.append(image)
        frontier = nxt
    return steps


def in_same_orbit(p1, p2, group, limit=ORBIT_LIMIT):
    """Whether some group element maps p1 to p2, by the reference walk:
    yes when p2 is among the first `limit` points of the orbit of p1,
    the start included; unknown when that orbit is larger."""
    reached = [p1] + [image for image, _, _ in _reference_walk(group, p1, limit)]
    if p2 in reached[:limit]:
        return "yes"
    return "no" if len(reached) <= limit else "unknown"


@st.composite
def groups_and_points(draw):
    n = draw(st.sampled_from((0, 1, 7, 8, 9, 17, 65)))
    images = draw(st.lists(st.permutations(range(1, n + 1)), max_size=3))
    point = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return SymmetryGroup([Permutation(i) for i in images], n), tuple(point)


@settings(max_examples=150, deadline=None)
@given(groups_and_points())
@example((SymmetryGroup([], 9), (1, 0, 1, 1, 0, 0, 0, 1, 1)))
def test_table_walker_matches_apply_perm_point(group_and_point):
    group, point = group_and_point
    n, cap = group.num_vars, 200
    walker = _OrbitWalker(group, ORBIT_LIMIT)
    start = point_bits(point)
    # With nothing marked seen, the first steps are the start's images.
    first = islice(walker.walk(start, {}), len(group.generators))
    assert list(first) == [(point_bits(apply_perm_point(g, point)), start, gi)
                           for gi, g in enumerate(group.generators)]
    # The walk's order is the reference BFS's order.
    seen, steps = {start}, []
    for image, parent, gi in walker.walk(start, seen):
        if len(steps) == cap:
            break
        seen.add(image)
        steps.append((bits_to_point(image, n), bits_to_point(parent, n), gi))
    assert steps == _reference_walk(group, point, cap)


def test_table_limit_refuses_before_building_anything():
    many = [[]] * 10 ** 5      # `sym ()` a hundred thousand times
    wide = [[[1, 2]]]          # one transposition over 10^6 variables
    tracemalloc.start()
    try:
        for cycle_lists, n in ((many, 30), (wide, 10 ** 6)):
            with pytest.raises(ValueError, match="orbit tables, over the limit"):
                group_from_cycles(cycle_lists, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    with pytest.raises(ValueError, match="over the limit"):
        SymmetryGroup([Permutation.identity(1000)] * 100, 1000)
    # PH(6,5), the largest group the benchmark walks, is far below it.
    _, inst = ph_formula(6, 5)
    assert table_bytes(len(ph_symmetry_generators(inst).generators),
                       inst.num_vars) * 100 < TABLE_LIMIT


def test_table_bytes_errs_high():
    # By less than half: the bound is meant to refuse only what is large.
    rng = random.Random(5)
    for n in (30, 200, 1000):
        tracemalloc.start()
        try:
            symmetry._byte_tables(random_perm(n, rng))
            size = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size <= table_bytes(1, n) < 2 * size


@st.composite
def renamed_ph_with_group(draw):
    """PH(3,2) or PH(4,3) with its variables renamed and its clauses
    shuffled, and the pigeon and hole swaps conjugated to match."""
    pigeons = draw(st.sampled_from((3, 4)))
    formula, inst = ph_formula(pigeons, pigeons - 1)
    n = formula.num_vars
    sigma = (0, *draw(st.permutations(range(1, n + 1))))
    order = draw(st.permutations(range(len(formula.clauses))))
    clauses = [[sigma[l] if l > 0 else -sigma[-l]
                for l in formula.clauses[i].lits] for i in order]
    generators = [Permutation.from_cycles(
        [[sigma[v] for v in cycle] for cycle in g.cycles()], n)
        for g in ph_symmetry_generators(inst).generators]
    return CnfFormula(n, clauses), SymmetryGroup(generators, n)


def _verify_sees(formula, group):
    """Solve `formula` with `--mode sym --proof` and verify the proof;
    return what verify handed to the checker and the proof's text."""
    seen = []

    def recording(formula, clusters, transport):
        seen.append((clusters, transport))
        return verify_ssc(formula, clusters, transport)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.object(proofs, "verify_ssc", recording):
        cnf, sym, proof = (os.path.join(tmp, name)
                           for name in ("f.cnf", "f.sym", "f.proof"))
        with open(cnf, "w", encoding="utf-8") as handle:
            handle.write(write_dimacs(formula))
        with open(sym, "w", encoding="utf-8") as handle:
            handle.write(format_symmetry_file(group))
        assert cli_main(["solve", "--mode", "sym", "--sym", sym,
                         "--proof", proof, cnf]) == 20
        assert cli_main(["verify", "--proof", proof, cnf]) == 0
        with open(proof, encoding="utf-8") as handle:
            return seen, handle.read()


@settings(max_examples=20, deadline=None)
@given(renamed_ph_with_group())
def test_compact_sym_proof_round_trip(formula_and_group):
    formula, group = formula_and_group
    seen, text = _verify_sees(formula, group)
    result = gen_ssp_mod_symmetry(formula, group)
    lines = text.splitlines()
    assert sum(line.startswith("sym ") for line in lines) == \
        len(group.generators)
    assert len(lines) == len(group.generators) + len(result.points) + 1
    points, transport = expand_mod_sym_to_ssp(formula, result.points,
                                              result.transport, group)
    assert seen == [(points, transport)]
    assert reference_stable(formula, *point_tuples(points, transport))


def test_compact_sym_proof_round_trip_trivial_group(chain6_formula):
    group = SymmetryGroup([], 6)
    seen, text = _verify_sees(chain6_formula, group)
    assert not text.startswith("sym")
    result = gen_ssp_mod_symmetry(chain6_formula, group)
    [(clusters, transport)] = seen
    assert (clusters, transport) == expand_mod_sym_to_ssp(
        chain6_formula, result.points, result.transport, group)
    assert len(clusters) == 14
