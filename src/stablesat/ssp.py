"""Point-level engine: grow a stable set of points, or find a model.

The generator keeps two point sets. Boundary holds reached points whose
1-neighborhoods are still pending; Body holds the points already
expanded. When Boundary drains, Body is stable: every member's
neighborhood through its transport clause stays inside Body, which
proves the formula unsatisfiable. Body is returned as one-point cubes,
so the cluster verifier `ssc.verify_ssc` rechecks it independently of
how the set was built.

An optional orbit canonicaliser turns the generator into the
stable-modulo-symmetry engine: a fresh neighbor whose orbit
representative was already reached is skipped like a seen point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .core import CnfFormula, bits_to_point, point_bits, point_str
from .cubes import Cube
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
    witness: tuple | None = None   # a model; () has no variables and is falsy
    points: list = field(default_factory=list)   # body as one-point cubes, pop order
    transport: dict = field(default_factory=dict)  # one-point cube -> clause id
    # sym engine: point bits -> parent bits, a forest of generator steps
    links: dict = field(default_factory=dict)
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
    tracing = log.enabled   # trace payloads are built only under this test

    def text(bits):
        return point_str(bits_to_point(bits, n))

    canonical = config.canonical or (lambda bits: bits)
    full = (1 << n) - 1
    start = point_bits(init)
    boundary = deque([start])
    reached = {canonical(start)}   # representatives of every point pushed
    body: dict[int, int] = {}   # point bits -> transport clause id, pop order
    if tracing:
        log.add("initialize", lambda: f"point {point_str(init)}")
    iterations = 0
    clauses = formula.clauses

    while boundary:
        iterations += 1
        pbits = boundary.popleft()
        # The first clause the point falsifies: every variable is pinned,
        # so the value test alone decides.
        clause = next((c for c in clauses if pbits & c.fmask == c.fval), None)
        if clause is None:
            if tracing:
                log.add("move-to-body", lambda: f"point {text(pbits)}")
                log.add("satisfied", lambda: f"point {text(pbits)}")
                log.add("finish", lambda: "result SAT")
            return SspResult(True, witness=bits_to_point(pbits, n),
                             iterations=iterations, trace=log.records)
        body[pbits] = clause.cid
        if tracing:
            log.add("move-to-body",
                    lambda: f"point {text(pbits)} clause {clause.cid}")
        rest = clause.fmask
        while rest:   # one neighbour per clause variable, ascending
            bit = rest & -rest
            rest ^= bit
            nbits = pbits ^ bit
            rep = canonical(nbits)
            known = rep in reached
            if tracing:
                log.add("nbhd", lambda: f"point {text(pbits)} clause {clause.cid} "
                                        f"dir {bit.bit_length()} -> point "
                                        f"{text(nbits)} "
                                        f"{'seen' if known else 'new'}")
            if known:
                continue
            reached.add(rep)
            if config.pop == "fifo":
                boundary.append(nbits)
            else:
                boundary.appendleft(nbits)

    if tracing:
        log.add("finish", lambda: "result UNSAT")
    points = [Cube(n, full, b) for b in body]
    return SspResult(False, points=points,
                     transport=dict(zip(points, body.values())),
                     iterations=iterations, trace=log.records)
