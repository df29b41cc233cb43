import faulthandler
import random

import pytest

from stablesat.core import CnfFormula, evaluate_clause, point_nbhd
from stablesat.cubes import Cube
from stablesat.ssc import SscConfig


# Seconds one test may run before every thread's stack is dumped and the
# run exits: a hang fails the suite instead of stalling it.
HANG_LIMIT_S = 600


@pytest.fixture(autouse=True)
def hang_guard():
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def vb_formula():
    """Four-variable formula of the worked cluster example.

    C1 = x2 | x3, C2 = x1 | -x2, C3 = -x1 | -x2 | x3,
    C4 = -x3 | x4, C5 = -x3 | -x4. Unsatisfiable.
    """
    return CnfFormula(4, [[2, 3], [1, -2], [-1, -2, 3], [-3, 4], [-3, -4]])


@pytest.fixture
def golden_config():
    """Deterministic config reproducing the worked example trace."""
    return SscConfig(init_cube=Cube.from_literals([-2, -3], 4), record_trace=True)


@pytest.fixture
def chain6_formula():
    """Six-variable chain formula of the worked point example.

    C1 = x1 | x2, C2 = -x2 | x3, C3 = -x3 | x4, C4 = -x4 | x1,
    C5 = -x1 | x5, C6 = -x5 | x6, C7 = -x6 | -x1. Unsatisfiable.
    """
    return CnfFormula(6, [[1, 2], [-2, 3], [-3, 4], [-4, 1],
                          [-1, 5], [-5, 6], [-6, -1]])


CHAIN6_POINTS = [
    "000000", "010000", "011000", "011100", "111100", "111110", "111111",
    "011111", "011011", "010011", "000011", "100011", "100010", "100000",
]
CHAIN6_TRANSPORT = [1, 2, 3, 4, 5, 6, 7, 4, 3, 2, 1, 7, 6, 5]


def chain6_points():
    """The known 14-point stable set of the chain formula as tuples, with
    its transport."""
    points = [tuple(int(ch) for ch in text) for text in CHAIN6_POINTS]
    return points, dict(zip(points, CHAIN6_TRANSPORT))


@pytest.fixture
def chain6_ssp():
    """The same stable set as one-point cubes, the form the engines return
    and the checkers take."""
    return point_cubes(*chain6_points())


def point_cubes(points, transport):
    """Tuple points and their transport as one-point cubes."""
    cubes = [Cube.from_point(point) for point in points]
    return cubes, {cube: transport[point] for cube, point in zip(cubes, points)
                   if point in transport}


def point_tuples(cubes, transport):
    """One-point cubes and their transport as tuple points."""
    return ([cube.to_point() for cube in cubes],
            {cube.to_point(): cid for cube, cid in transport.items()})


def reference_stable(formula, points, transport) -> bool:
    """Point stability by its definition, on tuples, as the reference the
    checkers are compared with: the set is non-empty, and every point
    falsifies its transport clause and has its whole 1-neighborhood
    through that clause inside the set."""
    members = set(points)
    for point in members:
        clause = formula.clause_by_id(transport.get(point, 0))
        if clause is None or evaluate_clause(clause, point):
            return False
        if not members.issuperset(point_nbhd(point, clause)):
            return False
    return bool(members)


def random_3cnf(n, m, rng: random.Random) -> CnfFormula:
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CnfFormula(n, clauses)


def random_clause(n, rng: random.Random, width=None):
    width = width or rng.randint(1, min(3, n))
    variables = rng.sample(range(1, n + 1), width)
    return [v if rng.random() < 0.5 else -v for v in variables]
