import random

import pytest

from stablesat.core import Clause, CnfFormula, evaluate_clause, point_nbhd
from stablesat.oracle import brute_force_sat
from stablesat.proofs import proof_from_result, replay_proof
from stablesat.ssp import SspResult, gen_ssp, verify_ssp
from stablesat.symmetry import (OrbitLimitExceeded, Permutation, SymmetryGroup,
                                apply_perm_clause, apply_perm_point,
                                expand_mod_sym_to_ssp, format_symmetry_file,
                                gen_ssp_mod_symmetry, group_order,
                                in_same_orbit, is_symmetric, parse_permutation,
                                parse_symmetry_file, ph_formula,
                                ph_symmetry_generators,
                                verify_stable_mod_symmetry)
from conftest import random_3cnf


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
    assert perm.inverse() == perm  # product of transpositions
    assert Permutation.identity(4).is_identity()


def test_parse_permutation_roundtrip():
    perm = parse_permutation("(1 4)(2 5)(3 6)", 6)
    assert perm == Permutation.from_cycles([[1, 4], [2, 5], [3, 6]], 6)
    assert parse_permutation("()", 3).is_identity()
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
        assert apply_perm_point(pi.compose(sigma), point) == \
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


def test_group_order_ph32():
    _, inst = ph_formula(3, 2)
    assert group_order(ph_symmetry_generators(inst)) == 12  # 3! * 2!


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
    assert verify_ssp(f, points, transport)


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


def _three_verdicts(f, points, transport):
    proof = proof_from_result(SspResult(False, points=points,
                                        transport=transport))
    return (bool(verify_ssp(f, points, transport)),
            bool(replay_proof(f, proof)),
            bool(verify_stable_mod_symmetry(f, points, transport,
                                            SymmetryGroup([], f.num_vars))))


def test_verify_mod_sym_trivial_group_matches_verify_ssp(chain6_formula,
                                                         chain6_ssp):
    points, transport = chain6_ssp
    group = SymmetryGroup([], 6)
    assert verify_stable_mod_symmetry(chain6_formula, points, transport, group)
    broken = [p for p in points if p != points[8]]
    tb = {p: c for p, c in transport.items() if p != points[8]}
    assert bool(verify_ssp(chain6_formula, broken, tb)) == \
        bool(verify_stable_mod_symmetry(chain6_formula, broken, tb, group))
    # The same certificate, intact and mutated, gets one verdict from the
    # point verifier, proof replay and the trivial-group symmetry check.
    rng = random.Random(64)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 8)
        f = random_3cnf(n, round(n * rng.choice((5.5, 7.0))), rng)
        result = gen_ssp(f)
        if result.satisfiable:
            continue
        checked += 1
        points, transport = result.points, result.transport
        assert _three_verdicts(f, points, transport) == (True, True, True)
        gone = rng.choice(points)
        rest = [p for p in points if p != gone]
        kept = {p: c for p, c in transport.items() if p != gone}
        assert len(set(_three_verdicts(f, rest, kept))) == 1
        point = rng.choice(points)
        satisfied = [c.cid for c in f.clauses if evaluate_clause(c, point)]
        moved = {**transport, point: rng.choice(satisfied)}
        assert _three_verdicts(f, points, moved) == (False, False, False)


def _reference_mod_sym(f, points, transport, group, limit):
    """Stability modulo the group, asking in_same_orbit about every
    non-member neighbor against every member."""
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
    assert verify_ssp(f, points, transport)
    assert len(points) >= len(result.points)


def test_ph_generators_edge_cases():
    _, inst = ph_formula(1, 1)
    assert ph_symmetry_generators(inst).generators == []
