"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Criteria 4-7 share one streaming pass over the
corpus (exhaustive 3-variable family plus 1000 random 3-CNF instances),
built once per session.
"""

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from stablesat.cli import cli_main
from stablesat.core import Clause, CnfFormula
from stablesat.cubes import Cube
from stablesat.oracle import brute_force_sat
from stablesat.proofs import parse_proof, proof_from_result, replay_proof
from stablesat.ssc import SscConfig, gen_ssc, verify_ssc
from stablesat.ssp import gen_ssp
from stablesat.symmetry import (gen_ssp_mod_symmetry, ph_formula,
                                ph_symmetry_generators,
                                verify_stable_mod_symmetry)
from conftest import (apply_perm_clause, apply_perm_point, chain6_points,
                      expand_body_to_points,
                      point_cubes, proof_cube, point_nbhd, point_tuples, random_3cnf,
                      reference_stable, union_count, xi_from_trace)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {number} {label}: FAIL ({exc})")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


VB_DIMACS = "p cnf 4 5\n2 3 0\n1 -2 0\n-1 -2 3 0\n-3 4 0\n-3 -4 0\n"


def vb_formula():
    return CnfFormula(4, [[2, 3], [1, -2], [-1, -2, 3], [-3, 4], [-3, -4]])


# ---------------------------------------------------------------- corpus

@dataclass
class CorpusSummary:
    total: int = 0
    ssp_agree: int = 0
    ssc_agree: int = 0
    ssc_runs: int = 0
    xi_ok: int = 0
    traced_agree: int = 0
    unsat_runs: int = 0
    verified: int = 0
    replayed: int = 0
    expansions: int = 0
    expansions_ok: int = 0
    elapsed: float = 0.0
    mismatches: list = field(default_factory=list)


def _process(summary, formula, config=None):
    oracle = brute_force_sat(formula)
    ssp = gen_ssp(formula)
    config = config or SscConfig()
    ssc = gen_ssc(formula, config)
    traced = gen_ssc(formula, dataclasses.replace(config, record_trace=True))
    summary.total += 1
    summary.ssc_runs += 1
    if ssp.satisfiable == oracle.satisfiable:
        summary.ssp_agree += 1
    else:
        summary.mismatches.append(("ssp", formula))
    if ssc.satisfiable == oracle.satisfiable:
        summary.ssc_agree += 1
    else:
        summary.mismatches.append(("ssc", formula))
    # Tracing only records: the traced run makes the same moves.
    if (traced.iterations, traced.body, traced.learned, traced.witness) == \
            (ssc.iterations, ssc.body, ssc.learned, ssc.witness):
        summary.traced_agree += 1
    xi = xi_from_trace(traced.trace, formula)
    xs = [union + clauses for union, clauses in xi]
    # A SAT result carries no Body, so the final union is checked on UNSAT runs.
    if xs == sorted(xs) and len(xs) == ssc.iterations and (
            ssc.satisfiable or xi[-1][0] == union_count(ssc.body)):
        summary.xi_ok += 1
    if not ssc.satisfiable:
        summary.unsat_runs += 1
        if verify_ssc(ssc.formula, ssc.body, ssc.transport):
            summary.verified += 1
        if replay_proof(formula, proof_from_result(ssc)):
            summary.replayed += 1
        if formula.num_vars <= 5:
            summary.expansions += 1
            points, transport = expand_body_to_points(ssc.body, ssc.transport)
            if reference_stable(ssc.formula, *point_tuples(points, transport)):
                summary.expansions_ok += 1


def _clause_universe_3vars():
    universe = []
    for width in (1, 2, 3):
        for variables in itertools.combinations((1, 2, 3), width):
            for signs in itertools.product((1, -1), repeat=width):
                universe.append(tuple(s * v for s, v in zip(signs, variables)))
    return universe


@pytest.fixture(scope="session")
def corpus():
    summary = CorpusSummary()
    start = time.perf_counter()
    # The golden instance belongs to the certificate corpus too.
    _process(summary, vb_formula(),
             SscConfig(init_cube=Cube.from_literals([-2, -3], 4)))
    universe = _clause_universe_3vars()
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations(universe, size):
            _process(summary, CnfFormula(3, [list(c) for c in combo]))
    rng = random.Random(20260809)
    ratios = (3.0, 4.26, 5.5)
    grid = [(n, r) for n in range(5, 11) for r in ratios]
    for i in range(1000):
        n, ratio = grid[i % len(grid)]
        _process(summary, random_3cnf(n, round(n * ratio), rng))
    summary.elapsed = time.perf_counter() - start
    return summary


# ------------------------------------------------------------- criteria

def test_criterion_1_golden_trace(tmp_path):
    with criterion(1, "golden trace"):
        start = time.perf_counter()
        cnf = tmp_path / "vb.cnf"
        cnf.write_text(VB_DIMACS)
        proof_path = tmp_path / "vb.proof"
        code = cli_main(["solve", "--mode", "ssc", "--init", "-2 -3",
                         "--proof", str(proof_path), str(cnf)])
        assert code == 20
        proof = parse_proof(proof_path.read_text())
        assert [(s.cid, s.lits, s.left, s.right, s.pivot) for s in proof.learns] \
            == [(6, (-2, 3), 2, 3, 1), (7, (-3,), 4, 5, 4)]
        result = gen_ssc(vb_formula(),
                         SscConfig(init_cube=Cube.from_literals([-2, -3], 4)))
        assert not result.satisfiable
        assert [c.lits for c in result.learned] == [(-2, 3), (-3,)]
        assert [s.pivot for s in result.learn_steps] == [1, 4]
        expected_body = {Cube.from_literals(lits, 4) for lits in
                         ([-2, -3], [2, -3], [-2, 3], [2, 3])}
        assert set(result.body) == expected_body
        assert len(proof.clusters) == 4
        assert {proof_cube(form, 4) for form, _ in proof.clusters} == \
            expected_body
        assert time.perf_counter() - start < 1.0


def test_criterion_2_stable_set_verification():
    with criterion(2, "14-point stable set"):
        start = time.perf_counter()
        formula = CnfFormula(6, [[1, 2], [-2, 3], [-3, 4], [-4, 1],
                                 [-1, 5], [-5, 6], [-6, -1]])
        points, transport = chain6_points()
        assert reference_stable(formula, points, transport)
        assert verify_ssc(formula, *point_cubes(points, transport))
        for removed in points:
            rest = [p for p in points if p != removed]
            restricted = {p: c for p, c in transport.items() if p != removed}
            assert not reference_stable(formula, rest, restricted), \
                f"removal of {removed} was not rejected by the reference"
            assert not verify_ssc(formula, *point_cubes(rest, restricted)), \
                f"removal of {removed} was not rejected"
        assert time.perf_counter() - start < 1.0


def test_criterion_3_neighborhood_unit():
    with criterion(3, "1-neighborhood unit check"):
        clause = Clause([1, -3, 4])
        neighbors = point_nbhd((0, 1, 1, 0), clause)
        assert set(neighbors) == {(1, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1)}
        assert len(neighbors) == 3


def test_criterion_4_oracle_equivalence(corpus):
    with criterion(4, "oracle equivalence (18902 solver runs)"):
        # 17901 = all deduplicated 3-variable formulas with <= 4 clauses of
        # width <= 3, plus 1000 random 3-CNF instances and the golden run.
        assert corpus.total == 1 + 17901 + 1000
        assert corpus.mismatches == []
        assert corpus.ssp_agree == corpus.total
        assert corpus.ssc_agree == corpus.total
        assert corpus.elapsed < 300.0


def test_criterion_5_certificate_soundness(corpus):
    with criterion(5, "certificate soundness"):
        assert corpus.unsat_runs > 0
        assert corpus.verified == corpus.unsat_runs
        assert corpus.replayed == corpus.unsat_runs


def test_criterion_6_termination_and_xi(corpus):
    with criterion(6, "termination and xi monotonicity"):
        assert corpus.ssc_runs == corpus.total
        assert corpus.traced_agree == corpus.ssc_runs
        assert corpus.xi_ok == corpus.ssc_runs


def test_criterion_7_cluster_expansion(corpus):
    with criterion(7, "cluster-to-point expansion"):
        assert corpus.expansions > 0
        assert corpus.expansions_ok == corpus.expansions


def test_criterion_8_pigeon_hole():
    with criterion(8, "pigeon-hole"):
        start = time.perf_counter()
        for n in range(1, 5):
            for m in range(1, 5):
                formula, _ = ph_formula(n, m)
                assert len(formula.clauses) == n + m * n * (n - 1) // 2
                result = gen_ssc(formula)
                assert result.satisfiable == (n <= m), f"PH({n},{m})"
                if n <= 3 and m <= 3:
                    assert brute_force_sat(formula).satisfiable == (n <= m)
        for m in (1, 2, 3):
            formula, inst = ph_formula(m + 1, m)
            group = ph_symmetry_generators(inst)
            result = gen_ssp_mod_symmetry(formula, group)
            assert not result.satisfiable
            assert verify_stable_mod_symmetry(formula, result.points,
                                              result.transport, group,
                                              result.links)
            print(f"  PH({m + 1},{m}) stable-mod-symmetry size: "
                  f"{len(result.points)} (paper reports 2m+1 = {2 * m + 1})")
        assert time.perf_counter() - start < 120.0


def test_criterion_9_neighborhood_image_property():
    with criterion(9, "neighborhood image under permutations"):
        rng = random.Random(90)
        for _ in range(500):
            n = rng.randint(2, 8)
            width = rng.randint(1, n)
            variables = rng.sample(range(1, n + 1), width)
            lits = [v if rng.random() < 0.5 else -v for v in variables]
            clause = Clause(lits)
            point = [rng.randint(0, 1) for _ in range(n)]
            for lit in lits:
                point[abs(lit) - 1] = 0 if lit > 0 else 1
            point = tuple(point)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            from stablesat.symmetry import Permutation
            perm = Permutation(images)
            direct = {apply_perm_point(perm, q) for q in point_nbhd(point, clause)}
            lifted = set(point_nbhd(apply_perm_point(perm, point),
                                    apply_perm_clause(perm, clause)))
            assert direct == lifted
