import faulthandler
import random
import tracemalloc

import pytest

from stablesat.core import Clause, CnfFormula
from stablesat.cubes import Cube
from stablesat.ssc import SscConfig
from stablesat.symmetry import Permutation


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
    cubes = [tuple_cube(point) for point in points]
    return cubes, {cube: transport[point] for cube, point in zip(cubes, points)
                   if point in transport}


def point_tuples(cubes, transport):
    """One-point cubes and their transport as tuple points."""
    return ([cube_tuple(cube) for cube in cubes],
            {cube_tuple(cube): cid for cube, cid in transport.items()})


def point_bits(point) -> int:
    """Reference packing of a tuple point: variable i at bit i - 1."""
    bits = 0
    for i, v in enumerate(point):
        if v:
            bits |= 1 << i
    return bits


def bits_to_point(bits: int, n: int):
    """Reference unpacking of n value bits into a tuple point."""
    return tuple((bits >> i) & 1 for i in range(n))


def tuple_cube(point):
    """A tuple point as the one-point cube the engines use."""
    return Cube(len(point), (1 << len(point)) - 1, point_bits(point))


def cube_tuple(cube):
    """A one-point cube as a tuple point; a cube with a free variable is
    refused."""
    if not cube.is_point():
        raise ValueError("cube has free variables, not a single point")
    return bits_to_point(cube.val, cube.n)


def cube_points(cube):
    """Reference enumeration of a cube's points as tuples, in increasing
    packed-bit order."""
    free = [i for i in range(cube.n) if not cube.mask & (1 << i)]
    for k in range(1 << len(free)):
        bits = cube.val
        for j, i in enumerate(free):
            if k & (1 << j):
                bits |= 1 << i
        yield bits_to_point(bits, cube.n)


def proof_cube(form, n: int):
    """Reference reading of a `Proof.clusters` entry's form: a 0/1/- row
    read one character at a time, x1 first, or a literal tuple."""
    if isinstance(form, str):
        assert len(form) == n and set(form) <= set("-01"), form
        form = [v if ch == "1" else -v
                for v, ch in enumerate(form, start=1) if ch != "-"]
    return Cube.from_literals(form, n)


def cube_contains(outer, inner) -> bool:
    """Reference containment: every component of `inner` is a subset of
    the same component of `outer`."""
    return (outer.mask & ~inner.mask) == 0 and \
        ((outer.val ^ inner.val) & outer.mask) == 0


def count_points(cube) -> int:
    """Reference point count of a cube: 2 to its free variables."""
    return 1 << (cube.n - cube.mask.bit_count())


def intersects(a, b) -> bool:
    """Reference meeting test: no variable pinned by both cubes to
    different values."""
    return (a.val ^ b.val) & a.mask & b.mask == 0


def cube_point_bits(cube):
    """The packed value bits of each point of a cube: its pinned values
    with every subset of its free variables set."""
    free = ~cube.mask & ((1 << cube.n) - 1)
    subset = 0
    while True:
        yield cube.val | subset
        subset = (subset - free) & free
        if not subset:
            return


def union_count(cubes) -> int:
    """Exact point count of a union of cubes, by listing its points."""
    points = set()
    for cube in cubes:
        points.update(cube_point_bits(cube))
    return len(points)


# The trace records that close one iteration of the cube-cluster engine:
# each iteration pops one cube and ends in exactly one of them.
ITERATION_ENDS = ("split", "merge", "move-to-body", "satisfied")


def xi_from_trace(trace, formula):
    """(|Union(Body)|, |F|) after each iteration of a traced `gen_ssc` run
    on the formula, read off its trace: a `move-to-body` record adds its
    cube's points to the union, and a `merge` record that learns adds
    one clause to F. Their sum is the termination measure xi."""
    n = formula.num_vars
    union, clauses, xi = set(), len(formula.clauses), []
    for record in trace:
        if record.kind == "move-to-body":
            tokens = record.payload.split()    # cube <lits> 0 clause <id>
            lits = map(int, tokens[1:tokens.index("0")])
            union.update(cube_point_bits(Cube.from_literals(lits, n)))
        elif record.kind == "merge" and " learn " in record.payload:
            clauses += 1
        if record.kind in ITERATION_ENDS:
            xi.append((len(union), clauses))
    return xi


def identity_perm(n: int):
    """The identity permutation on 1..n."""
    return Permutation(range(1, n + 1))


def find_clause(formula, lits):
    """Reference lookup of a clause by literal set, through its bits;
    None when the formula lacks it."""
    probe = Clause(lits)
    return formula.find_bits(probe.fmask, probe.fval)


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


def evaluate_clause(clause, point) -> bool:
    """Reference clause test on a tuple point: True when some literal
    agrees. The empty clause is falsified by every point; a clause over a
    variable beyond the point is refused."""
    if clause.max_var() > len(point):
        raise ValueError(
            f"point of length {len(point)} cannot evaluate clause {clause!r}")
    return any((point[abs(l) - 1] == 1) == (l > 0) for l in clause.lits)


def point_nbhd(point, clause):
    """Reference 1-neighborhood of a tuple point falsifying the clause:
    one point per literal, each with that literal's variable flipped, in
    ascending variable order."""
    if evaluate_clause(clause, point):
        raise ValueError("1-neighborhood requires a point falsifying the clause")
    return [point[:abs(lit) - 1] + (1 - point[abs(lit) - 1],) + point[abs(lit):]
            for lit in clause.lits]


def apply_perm_clause(perm, clause):
    """Reference relabelling of a clause's variables by a permutation,
    literal polarities kept."""
    if clause.max_var() > perm.n:
        raise ValueError("clause arity mismatch")
    return Clause((1 if l > 0 else -1) * perm(abs(l)) for l in clause.lits)


def apply_perm_point(perm, point):
    """Reference push-forward of a tuple point: the image's value at pi(i)
    is the value at i."""
    out = [0] * perm.n
    for i, value in enumerate(point, start=1):
        out[perm(i) - 1] = value
    return tuple(out)


def expand_body_to_points(body, transport):
    """Reference flattening of clusters to one-point cubes, with a
    transport keyed by them. Points in several clusters take the clause
    of the first cluster (in the given order) containing them; any
    choice keeps the set stable."""
    points = {}
    for cube in body:
        cid = transport[cube]
        for point in cube_points(cube):
            points.setdefault(tuple_cube(point), cid)
    return list(points), points


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


def traced_peak(call):
    """Run `call` under tracemalloc: its return value or ValueError, and
    the peak bytes Python allocated meanwhile."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        outcome = call()
    except ValueError as exc:
        outcome = exc
    peak = tracemalloc.get_traced_memory()[1]
    if not tracing:
        tracemalloc.stop()
    return outcome, peak
