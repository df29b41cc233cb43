import contextlib
import io
import os
import random
import tempfile
import tracemalloc
from collections import Counter
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesat import proofs, symmetry
from stablesat.cli import cli_main
from stablesat.core import Clause, CnfFormula, parse_cycles
from stablesat.cubes import Cube
from stablesat.dimacs import write_dimacs
from stablesat.oracle import brute_force_sat
from stablesat.proofs import proof_from_result, replay_proof
from stablesat.ssc import verify_ssc
from stablesat.ssp import SspConfig, SspResult, gen_ssp
from stablesat.symmetry import (ORBIT_LIMIT, TABLE_LIMIT, OrbitLimitExceeded,
                                Permutation, SymmetryGroup, _OrbitWalker,
                                expand_mod_sym_to_ssp,
                                format_symmetry_file, gen_ssp_mod_symmetry,
                                group_from_cycles, is_symmetric,
                                parse_symmetry_file,
                                ph_formula, ph_symmetry_generators,
                                table_bytes, verify_stable_mod_symmetry)
from conftest import (apply_perm_clause, apply_perm_point, bits_to_point,
                      cube_tuple, evaluate_clause, identity_perm, point_bits,
                      point_cubes, point_nbhd, point_tuples, random_3cnf,
                      random_clause, reference_stable, traced_peak,
                      tuple_cube)


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
        identity_perm(6)
    assert identity_perm(4).cycles() == []


def test_cycle_notation_roundtrip():
    perm = Permutation.from_cycles(parse_cycles("(1 4)(2 5)(3 6)"), 6)
    assert perm == Permutation.from_cycles([[1, 4], [2, 5], [3, 6]], 6)
    assert Permutation.from_cycles(parse_cycles(perm.to_cycle_text()), 6) \
        == perm
    assert Permutation.from_cycles(parse_cycles("()"), 3) == \
        identity_perm(3)
    with pytest.raises(ValueError):
        parse_cycles("1 4)(")


@pytest.mark.parametrize("text", ["(1 3)(3 1)", "(1 3)(3 5)", "(3)(2 3)",
                                  "(1 3 2 3)"])
def test_cycles_must_be_disjoint(text):
    # Read as a product, (1 3)(3 1) is the identity; it is no cycle form.
    with pytest.raises(ValueError, match="^x3 appears twice; cycles must "
                                         "be disjoint$"):
        Permutation.from_cycles(parse_cycles(text), 6)


def test_symmetry_file_roundtrip():
    _, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    text = format_symmetry_file(group)
    again = parse_symmetry_file(text, inst.num_vars)
    assert again.generators == group.generators


def test_apply_perm_point_identity_and_swap():
    p = (1, 0, 1)
    assert apply_perm_point(identity_perm(3), p) == p
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
    assert apply_perm_clause(identity_perm(3), clause) == clause
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_is_symmetric_matches_apply_perm_clause(n, data):
    # Few variables, so that a drawn permutation is often a symmetry.
    literal = st.integers(-n, n).filter(bool)
    clauses = data.draw(st.lists(st.lists(literal, max_size=3, unique_by=abs),
                                 max_size=5))
    formula = CnfFormula(n, clauses)
    perm = Permutation(data.draw(st.permutations(range(1, n + 1))))
    reference = Counter(c.lits for c in formula.clauses) == Counter(
        apply_perm_clause(perm, c).lits for c in formula.clauses)
    assert is_symmetric(formula, perm) == reference


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
    assert verify_stable_mod_symmetry(f, result.points, result.transport, group,
                                      result.links)
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

    class Unread(dict):
        def unread(self, *args):
            pytest.fail("a link was read before the generators were checked")
        get = __getitem__ = __contains__ = __len__ = unread

    # The links name the member 01 as the parent of the neighbour 10:
    # (1 2) maps one onto the other.
    report = verify_stable_mod_symmetry(f, points, transport,
                                        SymmetryGroup([swap], 2),
                                        Unread({0b01: 0b10, 0b10: 0b10}))
    assert report.failures == [f"formula is not symmetric under {swap!r}"]


def test_verify_mod_sym_rejects_a_cluster():
    f = CnfFormula(2, [[1], [-1]])
    cluster = Cube.from_literals([-1], 2)
    report = verify_stable_mod_symmetry(f, [cluster], {cluster: 1},
                                        SymmetryGroup([], 2), {})
    assert report.failures == ["cluster -1: not a point"]


def test_verify_mod_sym_fails_mixed_arity_naming_the_first_odd_point():
    f = CnfFormula(2, [[1], [-1]])
    points = [tuple_cube(p) for p in ((0, 0), (1, 0, 0), (0, 1, 1),
                                           (1, 0))]
    report = verify_stable_mod_symmetry(f, points, dict.fromkeys(points, 1),
                                        SymmetryGroup([], 2), {})
    assert report.failures == ["point 100: arity 3, the first member's is 2"]


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
    assert all(evaluate_clause(c, cube_tuple(result.witness))
               for c in f.clauses)


def test_verify_mod_sym_rejects_mutation():
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    result = gen_ssp_mod_symmetry(f, group)
    assert not result.satisfiable
    points = list(result.points)
    removed = points.pop()
    transport = {p: c for p, c in result.transport.items() if p != removed}
    report = verify_stable_mod_symmetry(f, points, transport, group,
                                        result.links)
    assert report.failures
    assert all("has no symmetric member" in failure
               for failure in report.failures)


def _verdicts(f, points, transport):
    proof = proof_from_result(SspResult(False, points=points,
                                        transport=transport))
    return (reference_stable(f, *point_tuples(points, transport)),
            bool(verify_ssc(f, points, transport)),
            bool(replay_proof(f, proof)),
            bool(verify_stable_mod_symmetry(f, points, transport,
                                            SymmetryGroup([], f.num_vars),
                                            {p.val: p.val for p in points})))


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
                     if evaluate_clause(c, cube_tuple(point))]
        moved = {**transport, point: rng.choice(satisfied)}
        assert _verdicts(f, points, moved) == (False,) * 4
    assert rejected > 0


def _reference_mod_sym(f, points, transport, group):
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
                    in_same_orbit(neighbor, m, group) == "yes"
                    for m in members):
                return False
    return True


def test_verify_mod_sym_matches_reference_on_ph():
    for m in (1, 2, 3):
        f, inst = ph_formula(m + 1, m)
        group = ph_symmetry_generators(inst)
        result = gen_ssp_mod_symmetry(f, group)
        assert verify_stable_mod_symmetry(f, result.points, result.transport,
                                          group, result.links)
        for gone in result.points:
            points = [p for p in result.points if p != gone]
            transport = {p: c for p, c in result.transport.items() if p != gone}
            verdict = verify_stable_mod_symmetry(f, points, transport, group,
                                                 result.links)
            assert bool(verdict) == _reference_mod_sym(
                f, points, transport, group), (m, gone)


def _corrupt_generator_0(monkeypatch, edit):
    """Let `edit(table, n)` rewrite the walker's first byte table (n <= 8:
    the only one), whose entries hold generator 0's images at bits
    0..n-1. Every pigeon-hole swap is an involution, so the walker reads
    these tables for the inverse generators too, and the searches are
    corrupted alike. The orbit key becomes a constant, so the engine
    resumes every running walk for each point, as a walk of the whole
    orbit would search it: the corrupted walks need not keep the true
    key."""
    real = symmetry._byte_tables

    def corrupted(generators, n):
        tables = real(generators, n)
        edit(tables[0], n)
        return tables

    monkeypatch.setattr(symmetry, "_byte_tables", corrupted)
    monkeypatch.setattr(symmetry, "_orbit_key", lambda clauses, bits: ())


def _walk_links(walker, bits):
    """The links of a whole walk from `bits`: each point it reaches maps
    to its parent, `bits` to itself."""
    links = {bits: bits}
    for image, parent, _ in walker.walk(bits, links):
        links[image] = parent
    return links


def test_verify_mod_sym_replays_what_a_corrupted_table_claims(monkeypatch):
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    members = [p.val for p in gen_ssp_mod_symmetry(f, group).points]
    for member in members:
        # Generator 0 now sends every point onto the member, so each walk
        # reaches it; the engine takes the walks as orbits.
        def onto_member(table, n):
            table[:] = [entry >> n << n | member for entry in table]

        with monkeypatch.context() as patch:
            _corrupt_generator_0(patch, onto_member)
            result = gen_ssp_mod_symmetry(f, group)
            walker = _OrbitWalker(group)
        assert not result.satisfiable
        _assert_forest(result.links)
        report = verify_stable_mod_symmetry(f, result.points, result.transport,
                                            group, result.links)
        assert not report or _reference_mod_sym(f, result.points,
                                                result.transport, group)
        if member != members[1]:
            continue
        # The walk from the start 000000 reaches 100000 and its orbit, so
        # the engine stops at the start alone; every link into the start
        # from that orbit passes the fake step.
        [start] = result.points
        assert start.val == 0
        neighbors = point_nbhd(cube_tuple(start),
                               f.clause_by_id(result.transport[start]))
        assert all(member in _walk_links(walker, point_bits(q))
                   for q in neighbors)
        assert len(report.failures) == len(neighbors)
        assert all("generator steps" in failure for failure in report.failures)


def test_verify_mod_sym_replays_points_of_a_cached_orbit(monkeypatch):
    f, inst = ph_formula(3, 2)
    group = ph_symmetry_generators(inst)
    gone = point_bits((1, 0, 1, 0, 0, 0))
    assert tuple_cube(bits_to_point(gone, 6)) in \
        gen_ssp_mod_symmetry(f, group).points
    # One wrong entry: generator 0, (1 3)(2 4), sends 100000 to 101000, not
    # to 001000. That joins the orbit of 101000 to the orbit the engine
    # walks from 100000, so the engine never pushes 101000. A check that
    # trusted the links into that orbit would accept this set.
    entry = point_bits((1, 0, 0, 0, 0, 0))

    def to_gone(table, n):
        table[entry] = table[entry] >> n << n | gone

    _corrupt_generator_0(monkeypatch, to_gone)
    result = gen_ssp_mod_symmetry(f, group)
    assert not result.satisfiable
    _assert_forest(result.links)
    assert gone not in {p.val for p in result.points}
    report = verify_stable_mod_symmetry(f, result.points, result.transport,
                                        group, result.links)
    assert report.failures
    assert all("generator steps" in failure for failure in report.failures)
    assert not _reference_mod_sym(f, result.points, result.transport, group)


def test_cli_reports_a_failing_self_check(tmp_path, capsys, monkeypatch):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    # As in the test above: generator 0 sends every point onto 100000.
    member = point_bits((1, 0, 0, 0, 0, 0))

    def onto_member(table, n):
        table[:] = [entry >> n << n | member for entry in table]

    _corrupt_generator_0(monkeypatch, onto_member)
    capsys.readouterr()
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: point 000000: "
                          "neighbor point 100000 reaches no member by "
                          "generator steps")
    assert err.count("\n") == 1


def _counted_walks(monkeypatch):
    """Record the points each walk and each search visits, its start
    first, as the engine takes them: (walks, searches)."""
    walks, searches = [], []
    walk = _OrbitWalker.walk

    def steps(visited, inner):
        for step in inner:
            visited.append(step[0])
            yield step

    def counted(walker, bits, seen, inverse=False):
        visited = [bits]
        (searches if inverse else walks).append(visited)
        return steps(visited, walk(walker, bits, seen, inverse))

    monkeypatch.setattr(_OrbitWalker, "walk", counted)
    return walks, searches


def test_engine_at_small_orbit_limits_checks_itself(monkeypatch):
    # A cut walk keeps the links it made, each a generator step towards
    # its start; the orbit's later points start walks of their own unless
    # a search meets a point the walk linked.
    walks, searches = _counted_walks(monkeypatch)
    for m in (2, 3):
        f, inst = ph_formula(m + 1, m)
        group = ph_symmetry_generators(inst)
        for limit in (1, 2, 3, 5, 9):
            walks.clear()
            searches.clear()
            result = gen_ssp_mod_symmetry(f, group, orbit_limit=limit)
            assert not result.satisfiable
            assert verify_stable_mod_symmetry(
                f, result.points, result.transport, group, result.links), \
                (m, limit)
            _assert_forest(result.links)
            # A walk links at most `limit` points, its start included; the
            # orbits PH(3,2)'s engine meets hold at most 6. The searches
            # meet most walks early, but the smallest limits cut some.
            longest = max(map(len, walks))
            assert longest <= min(limit, 6 if m == 2 else 9), (m, limit)
            assert longest == limit or limit > 3, (m, limit)
            # A search visits at most `limit` points, its start included.
            assert searches and max(map(len, searches)) <= limit, (m, limit)


def _root(links, bits):
    while links[bits] != bits:
        bits = links[bits]
    return bits


def _assert_forest(links):
    """Following the links from any point ends at a root, a point linked
    to itself, within len(links) steps."""
    for start in links:
        bits = start
        for _ in range(len(links)):
            if links[bits] == bits:
                break
            bits = links[bits]
        else:
            pytest.fail(f"the links from {start} do not end at a root")


def _assert_generator_steps(links, group):
    """Each link is one generator step: some generator, applied point by
    point, maps the parent onto the child."""
    n = group.num_vars
    for child, parent in links.items():
        if child != parent:
            point = bits_to_point(parent, n)
            assert any(point_bits(apply_perm_point(g, point)) == child
                       for g in group.generators), (child, parent)


def _ph21_witness(links):
    """PH(2,1) under the swap (1 2) with the members 00 and 11: the
    neighbours 10 (of 00, via x1) and 10, 01 (of 11) are judged by `links`."""
    f, inst = ph_formula(2, 1)
    points, transport = point_cubes([(0, 0), (1, 1)], {(0, 0): 1, (1, 1): 3})
    report = verify_stable_mod_symmetry(f, points, transport,
                                        ph_symmetry_generators(inst), links)
    return sorted(set(failure.split("neighbor ")[1]
                      for failure in report.failures))


def test_verify_mod_sym_reads_the_links_it_is_given():
    # Bits: 10 is 0b01, 01 is 0b10. The swap maps 10 and 01 onto each other.
    assert _ph21_witness({}) == ["point 01 has no symmetric member",
                                 "point 10 has no symmetric member"]
    # A chain that ends at a root which is no member.
    assert _ph21_witness({0b01: 0b10, 0b10: 0b10}) == [
        "point 01 has no symmetric member", "point 10 has no symmetric member"]
    # A cycle with no root ends, and fails.
    assert _ph21_witness({0b01: 0b10, 0b10: 0b01}) == [
        "point 01 reaches no member by generator steps",
        "point 10 reaches no member by generator steps"]
    # A forged link: no permutation maps the member 00 onto 10.
    assert _ph21_witness({0b01: 0b00, 0b10: 0b01}) == [
        "point 01 reaches no member by generator steps",
        "point 10 reaches no member by generator steps"]
    # A parent outside the space is read on its two low bits, which the
    # swap maps onto the child; it is a root, and no member.
    assert _ph21_witness({0b01: 0b110, 0b10: 0b01}) == [
        "point 01 has no symmetric member", "point 10 has no symmetric member"]


def test_engine_roots_are_its_members():
    rng = random.Random(7)
    cases = []
    for m in (1, 2, 3, 4):
        f, inst = ph_formula(m + 1, m)
        cases.append((f, ph_symmetry_generators(inst)))
    for _ in range(30):
        n = rng.randint(3, 8)
        f = random_3cnf(n, round(n * 6.0), rng)
        cases.append((f, SymmetryGroup([], n)))
    unsat = 0
    for f, group in cases:
        for limit in (1, 3, ORBIT_LIMIT):
            result = gen_ssp_mod_symmetry(f, group, orbit_limit=limit)
            if result.satisfiable:
                continue
            unsat += 1
            roots = {p for p, parent in result.links.items() if p == parent}
            assert roots == {p.val for p in result.points}
    assert unsat >= 30


def test_sym_solve_walks_each_orbit_once(tmp_path, monkeypatch, capsys):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "5", "4", "-o", str(cnf), "--sym-out", str(sym)])
    walks, searches = _counted_walks(monkeypatch)
    capsys.readouterr()
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     str(cnf)]) == 20
    assert "representatives: 18\n" in capsys.readouterr().out
    # Every generator fixes the empty point, the one representative that
    # starts no walk.
    starts = [visited[0] for visited in walks]
    assert len(starts) == len(set(starts)) == 17
    assert 0 not in starts
    assert searches
    # The walks go only as far as the queries need, and the searches meet
    # them halfway: walked whole, the 18 orbits the engine meets link 3125
    # points, and walked until each queried point was reached, 907; PH(6,5)
    # linked 13,878 points that way.
    for pigeons, links in ((5, 273), (6, 2348)):
        f, inst = ph_formula(pigeons, pigeons - 1)
        result = gen_ssp_mod_symmetry(f, ph_symmetry_generators(inst))
        assert len(result.links) == links


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
                  SymmetryGroup([identity_perm(2)], 2)):
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


def test_expand_counts_every_representative_against_the_limit():
    # Under the identity each orbit is its representative alone, so the
    # walk yields no image and only the representatives can overflow.
    f = CnfFormula(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    identity = SymmetryGroup([identity_perm(2)], 2)
    points, transport = point_cubes(
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    with pytest.raises(OrbitLimitExceeded, match="expansion exceeds 3 points"):
        expand_mod_sym_to_ssp(f, points, transport, identity, limit=3)
    assert expand_mod_sym_to_ssp(f, points, transport, identity,
                                 limit=4) == (points, transport)
    # A refusal the CLI reports like every other bad input.
    assert issubclass(OrbitLimitExceeded, ValueError)


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
    # Up to 8 generators; over 64 or 65 variables their packed images
    # cross machine words and byte chunks.
    n = draw(st.sampled_from((0, 1, 7, 8, 9, 17, 64, 65)))
    images = draw(st.lists(st.permutations(range(1, n + 1)), max_size=8))
    point = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return SymmetryGroup([Permutation(i) for i in images], n), tuple(point)


@settings(max_examples=150, deadline=None)
@given(groups_and_points())
@example((SymmetryGroup([], 9), (1, 0, 1, 1, 0, 0, 0, 1, 1)))
def test_table_walker_matches_apply_perm_point(group_and_point):
    group, point = group_and_point
    n, cap = group.num_vars, 200
    walker = _OrbitWalker(group)
    start = point_bits(point)
    # With nothing marked seen, the first steps are the start's images.
    first = islice(walker.walk(start, {}), len(group.generators))
    assert list(first) == [(point_bits(apply_perm_point(g, point)), start, gi)
                           for gi, g in enumerate(group.generators)]
    # The walk's order is the reference BFS's order, and with `inverse`
    # the order of the walk over the inverse generators.
    inverses = SymmetryGroup([Permutation(sorted(range(1, n + 1), key=g))
                              for g in group.generators], n)
    for inverse, reference in ((False, group), (True, inverses)):
        seen, steps = {start}, []
        for image, parent, gi in walker.walk(start, seen, inverse):
            if len(steps) == cap:
                break
            seen.add(image)
            steps.append((bits_to_point(image, n), bits_to_point(parent, n),
                          gi))
        assert steps == _reference_walk(reference, point, cap)


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
        SymmetryGroup([identity_perm(1000)] * 100, 1000)
    # PH(6,5), the largest group the benchmark walks, is far below it.
    _, inst = ph_formula(6, 5)
    assert table_bytes(len(ph_symmetry_generators(inst).generators),
                       inst.num_vars) * 100 < TABLE_LIMIT


def test_table_bytes_errs_high():
    # By less than half: the bound is meant to refuse only what is large.
    # The peak is the walker's construction, temporaries included.
    rng = random.Random(5)
    for count, n in product((1, 9, 40), (30, 200, 1000)):
        generators = [random_perm(n, rng) for _ in range(count)]
        if table_bytes(count, n) > TABLE_LIMIT:
            assert (count, n) == (40, 1000)
            with pytest.raises(ValueError, match="over the limit"):
                SymmetryGroup(generators, n)
            continue
        group = SymmetryGroup(generators, n)
        tracemalloc.start()
        try:
            _OrbitWalker(group)
            size = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size <= table_bytes(count, n) < 2 * size, (count, n)


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


def _whole_orbit_engine(formula, group):
    """The symmetry engine with a canonicaliser that walks the whole orbit
    of the first point it meets of each orbit and links all of it."""
    walker = _OrbitWalker(group)
    links = {}

    def canonical(bits):
        if bits not in links:
            links.update(_walk_links(walker, bits))
            return bits
        parent = links[bits]
        while parent != bits:
            bits, parent = parent, links[parent]
        return bits

    return gen_ssp(formula, None, SspConfig(canonical=canonical)), links


def _same_as_whole_orbit_engine(formula, group):
    reference, reference_links = _whole_orbit_engine(formula, group)
    result = gen_ssp_mod_symmetry(formula, group)
    assert (result.satisfiable, result.witness, result.iterations) == \
        (reference.satisfiable, reference.witness, reference.iterations)
    assert result.points == reference.points
    assert result.transport == reference.transport
    # The links differ, since searches link paths, but they are generator
    # steps, they form a forest, and each point has the reference's root.
    _assert_generator_steps(result.links, group)
    _assert_forest(result.links)
    assert {p: _root(result.links, p) for p in result.links} == \
        {p: _root(reference_links, p) for p in result.links}
    return result, reference_links


def test_engine_matches_the_whole_orbit_engine_on_ph():
    for m in (1, 2, 3, 4):
        f, inst = ph_formula(m + 1, m)
        result, walked = _same_as_whole_orbit_engine(
            f, ph_symmetry_generators(inst))
        assert not result.satisfiable
        if m > 2:
            assert len(result.links) < len(walked)


def test_engine_matches_the_whole_orbit_engine_without_symmetry():
    rng = random.Random(30)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(3, 9)
        f = random_3cnf(n, round(n * rng.choice((3.0, 4.26, 6.0))), rng)
        result, _ = _same_as_whole_orbit_engine(f, SymmetryGroup([], n))
        verdicts.add(result.satisfiable)
    assert verdicts == {False, True}


def test_points_every_generator_fixes_start_no_walk(monkeypatch):
    def no_walk(walker, bits, seen):
        pytest.fail(f"a walk started from {bits}")

    monkeypatch.setattr(_OrbitWalker, "walk", no_walk)
    f = random_3cnf(8, 48, random.Random(31))
    for group in (SymmetryGroup([], 8),
                  SymmetryGroup([identity_perm(8)] * 2, 8)):
        result = gen_ssp_mod_symmetry(f, group)
        assert result.links == {p: p for p in result.links}
        assert result.points == gen_ssp(f).points


def _closed_under(clauses, group):
    """The clauses and all their images under the group, each once, by
    the reference relabelling."""
    closed, todo = set(), [Clause(lits) for lits in clauses]
    while todo:
        clause = todo.pop()
        if clause not in closed:
            closed.add(clause)
            todo += [apply_perm_clause(g, clause) for g in group.generators]
    return sorted(clause.lits for clause in closed)


def test_engine_matches_the_whole_orbit_engine_without_involutions(
        monkeypatch):
    # Generators of order 3, 4 and 12, so the searches read inverse
    # tables that differ from the forward ones.
    walks, searches = _counted_walks(monkeypatch)
    rng = random.Random(35)
    verdicts = set()
    for text in ("(1 2 3)(4 5 6)", "(1 2 3)(4 5 6)\n(4 5 6)(7 8 9)",
                 "(1 2 3 4)", "(1 2 3 4)(5 6 7)"):
        group = parse_symmetry_file(text, 9)
        walker = _OrbitWalker(group)
        assert walker.inverse_tables != walker.tables
        for _ in range(12):
            clauses = [random_clause(9, rng, 3)
                       for _ in range(rng.randint(4, 12))]
            f = CnfFormula(9, _closed_under(clauses, group))
            result, _ = _same_as_whole_orbit_engine(f, group)
            verdicts.add(result.satisfiable)
            if not result.satisfiable:
                assert verify_stable_mod_symmetry(
                    f, result.points, result.transport, group, result.links)
    assert verdicts == {False, True}
    assert len(searches) > len(walks) / 2


def test_engine_counts_the_inverse_tables_against_the_limit():
    # Nine 3-cycles over 1000 variables need about 40 MB of tables, under
    # the limit once but not with the inverse tables; the engine refuses
    # them before it builds any. Nine swaps would pass.
    n = 1000
    group = SymmetryGroup([Permutation.from_cycles([[v, v + 1, v + 2]], n)
                           for v in range(1, 28, 3)], n)
    outcome, peak = traced_peak(
        lambda: gen_ssp_mod_symmetry(CnfFormula(n), group))
    assert isinstance(outcome, ValueError)
    assert str(outcome) == ("9 generators over 1000 variables need about "
                            "81 MB of orbit tables, over the limit of 64 MB")
    assert peak < 2 ** 20
    assert table_bytes(9, n) < TABLE_LIMIT < 2 * table_bytes(9, n)


@settings(max_examples=25, deadline=None)
@given(renamed_ph_with_group())
def test_engine_matches_the_whole_orbit_engine_on_renamed_ph(
        formula_and_group):
    _same_as_whole_orbit_engine(*formula_and_group)


@settings(max_examples=50, deadline=None)
@given(renamed_ph_with_group(), st.data())
def test_orbit_key_is_constant_on_orbits(formula_and_group, data):
    formula, group = formula_and_group
    n = formula.num_vars

    def key(bits):
        return symmetry._orbit_key(formula.clauses, bits)

    for _ in range(4):
        point = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                         max_size=n)))
        for g in group.generators:
            assert key(point_bits(point)) == \
                key(point_bits(apply_perm_point(g, point)))
    # A permutation keeps a point's weight, so no symmetry maps the empty
    # point onto the full one; their keys tell them apart.
    assert key(0) != key((1 << n) - 1)
