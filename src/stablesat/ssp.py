"""Point-level engine: grow a stable set of points, or find a model.

The generator keeps two point sets. Boundary holds reached points whose
1-neighborhoods are still pending; Body holds the points already
expanded. When Boundary drains, Body is stable: every member's
neighborhood through its transport clause stays inside Body, which
proves the formula unsatisfiable. The verifier below rechecks that
property independently of how the set was built.

An optional orbit canonicaliser turns the generator into the
stable-modulo-symmetry engine: a fresh neighbor whose orbit
representative was already reached is skipped like a seen point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .core import CnfFormula, VerifyReport, bits_to_point, point_bits, point_str
from .cubes import Cube, member_name, unreached_neighbors
from .trace import TraceLog


@dataclass
class SspConfig:
    pop: str = "fifo"   # or "lifo"
    canonical: Callable | None = None   # packed point -> its orbit representative
    record_trace: bool = False

    def __post_init__(self):
        if self.pop not in ("fifo", "lifo"):
            raise ValueError(f"unknown pop policy {self.pop!r}")


@dataclass
class SspResult:
    satisfiable: bool
    witness: tuple | None = None
    points: list = field(default_factory=list)   # body in insertion order
    transport: dict = field(default_factory=dict)  # point -> clause id
    iterations: int = 0
    trace: list = field(default_factory=list)


def gen_ssp(formula: CnfFormula, init=None, config: SspConfig | None = None) -> SspResult:
    """Run the point-by-point generator from the given start point.

    Returns a satisfying point, or the stable set with its transport
    function. Always terminates: the body grows by one point per
    iteration inside a finite space. With config.canonical the set is
    stable modulo the orbits it names: points with equal representatives
    must lie in one orbit.
    """
    config = config or SspConfig()
    n = formula.num_vars
    if init is None:
        init = (0,) * n
    if len(init) != n:
        raise ValueError(f"init point has length {len(init)}, expected {n}")
    log = TraceLog(config.record_trace)

    def text(bits):
        return point_str(bits_to_point(bits, n))

    canonical = config.canonical
    full = (1 << n) - 1
    start = point_bits(init)
    boundary = deque([start])
    in_boundary = {start}
    reps = {canonical(start)} if canonical else set()   # orbits reached
    body: dict[int, int] = {}   # point bits -> transport clause id
    order: list[int] = []
    log.add("initialize", lambda: f"point {point_str(init)}")
    iterations = 0

    while boundary:
        iterations += 1
        pbits = boundary.popleft()
        in_boundary.discard(pbits)
        order.append(pbits)
        falsified = formula.falsified(full, pbits)
        if not falsified:
            log.add("move-to-body", lambda: f"point {text(pbits)}")
            log.add("satisfied", lambda: f"point {text(pbits)}")
            log.add("finish", lambda: "result SAT")
            return SspResult(True, witness=bits_to_point(pbits, n),
                             iterations=iterations, trace=log.records)
        clause = falsified[0]
        body[pbits] = clause.cid
        log.add("move-to-body", lambda: f"point {text(pbits)} clause {clause.cid}")
        for lit in clause.lits:
            nbits = pbits ^ (1 << (abs(lit) - 1))
            known = nbits in body or nbits in in_boundary
            if not known and canonical is not None:
                rep = canonical(nbits)
                known = rep in reps
                reps.add(rep)
            log.add("nbhd", lambda: f"point {text(pbits)} clause {clause.cid} "
                                    f"dir {abs(lit)} -> point {text(nbits)} "
                                    f"{'seen' if known else 'new'}")
            if known:
                continue
            if config.pop == "fifo":
                boundary.append(nbits)
            else:
                boundary.appendleft(nbits)
            in_boundary.add(nbits)

    log.add("finish", lambda: "result UNSAT")
    points = [bits_to_point(b, n) for b in order]
    transport = {bits_to_point(b, n): cid for b, cid in body.items()}
    return SspResult(False, points=points, transport=transport,
                     iterations=iterations, trace=log.records)


def point_clusters(points, transport):
    """The points as single-point cubes, with the transport keyed by cube."""
    cubes = {point: Cube.from_point(point) for point in points}
    return list(cubes.values()), {cubes[point]: cid for point, cid
                                  in transport.items() if point in cubes}


def verify_ssp(formula: CnfFormula, points, transport) -> VerifyReport:
    """Check stability: each point falsifies its clause and the whole
    1-neighborhood through that clause stays inside the set."""
    report = VerifyReport()
    clusters, by_cube = point_clusters(points, transport)
    for cube, cid, neighbor in unreached_neighbors(formula, clusters, by_cube,
                                                   report):
        report.fail(f"{member_name(cube)}: neighbor {member_name(neighbor)} "
                    f"via clause {cid} leaves the set")
    return report
