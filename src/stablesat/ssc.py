"""Cube-cluster engine: grow a stable set of clusters, or find a model.

Clusters are cubes. The loop pops a cube from the Boundary and either
declares it satisfying (it misses every clause's falsifying cube),
splits it on a pinned variable, merges it with another Boundary cube
falsifying a resolvable clause (learning the resolvent), or expands its
1-neighborhood and moves it to the Body. Coverage queries against
Body + Boundary keep already-reached regions out of the Boundary.

Split halves and merge results take their parent's place at the front
of the Boundary; fresh neighborhood cubes go to the back under the
default FIFO policy. That ordering reproduces the worked four-variable
example step for step.

The engine is single-threaded. Boundary items are independent work
units: a parallel variant only needs atomic Body insertion and coverage
queries over a monotonically growing Body + Boundary snapshot, since a
stale snapshot merely re-adds covered cubes and never flips a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Clause, CnfFormula, VerifyReport, resolvable_on
from .coverage import COVERED, CoverageConfig, is_covered, union_count
from .cubes import (Cube, cube_nbhd, member_name, merge, unreached_neighbors,
                    unsat_cube)
from .trace import TraceLog


@dataclass
class SscConfig:
    init_strategy: str = "single-cube"   # or "ne-style"
    init_cube: Cube | None = None        # single-cube start, all-free cube by default
    pop_policy: str = "fifo"             # or "lifo"
    split_heuristic: str = "first-intersecting"  # or "most-constrained"
    merge_enabled: bool = True
    coverage: CoverageConfig = field(default_factory=CoverageConfig)
    xi_log: bool = False                 # log (iteration, |Union(Body)|, |F|) per iteration
    record_trace: bool = False

    def __post_init__(self):
        if self.init_strategy not in ("single-cube", "ne-style"):
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")
        if self.pop_policy not in ("fifo", "lifo"):
            raise ValueError(f"unknown pop policy {self.pop_policy!r}")
        if self.split_heuristic not in ("first-intersecting", "most-constrained"):
            raise ValueError(f"unknown split heuristic {self.split_heuristic!r}")


@dataclass
class LearnStep:
    """One resolution step recorded for proof replay."""
    cid: int
    lits: tuple
    left: int
    right: int
    pivot: int


@dataclass
class MergeOutcome:
    merged: list        # the merged Boundary cubes, popped cube first
    cube: Cube          # their component-wise union
    resolvent: Clause   # unregistered resolvent falsified by the union
    left: Clause
    right: Clause
    pivot: int


@dataclass
class SscResult:
    satisfiable: bool
    witness: Cube | None = None
    body: list = field(default_factory=list)        # insertion order
    transport: dict = field(default_factory=dict)   # Cube -> clause id
    learned: list = field(default_factory=list)     # Clause objects, learn order
    learn_steps: list = field(default_factory=list)
    formula: CnfFormula | None = None               # learned-extended copy
    xi_log: list = field(default_factory=list)
    iterations: int = 0
    trace: list = field(default_factory=list)


class _Boundary:
    """Insertion-ordered cube set with front pops and front/back pushes."""

    def __init__(self):
        self.items: list[Cube] = []
        self.members: set[Cube] = set()

    def pop(self) -> Cube:
        cube = self.items.pop(0)
        self.members.discard(cube)
        return cube

    def push_front(self, cubes):
        fresh = [c for c in cubes if c not in self.members]
        self.items[0:0] = fresh
        self.members.update(fresh)

    def push_back(self, cube: Cube):
        if cube not in self.members:
            self.items.append(cube)
            self.members.add(cube)

    def remove(self, cube: Cube):
        self.items.remove(cube)
        self.members.discard(cube)

    def __contains__(self, cube):
        return cube in self.members

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def pick_split_var(cube: Cube, meeting,
                   heuristic: str = "first-intersecting") -> int:
    """Choose a free variable of the cube pinned by one of the clauses in
    `meeting`, the clauses the cube meets (`CnfFormula.meeting`), in order.

    Splitting there makes one half falsify strictly more literals of that
    clause. first-intersecting takes the lowest such variable of the first
    intersecting clause; most-constrained takes the variable pinned by the
    most intersecting clauses (ties to the lowest index).
    """
    if heuristic == "first-intersecting":
        for clause in meeting:
            pinned = clause.fmask & ~cube.mask
            if pinned:
                return (pinned & -pinned).bit_length()
        raise ValueError("no intersecting clause pins a free variable")
    counts: dict[int, int] = {}
    for clause in meeting:
        pinned = clause.fmask & ~cube.mask
        while pinned:
            bit = pinned & -pinned
            var = bit.bit_length()
            counts[var] = counts.get(var, 0) + 1
            pinned ^= bit
    if not counts:
        raise ValueError("no intersecting clause pins a free variable")
    return min(counts, key=lambda v: (-counts[v], v))


def _find_merge(boundary, p: Cube, formula: CnfFormula, h_cache: dict):
    """Scan the Boundary in insertion order for a merge partner of p."""

    def falsified_cached(cube):
        hit = h_cache.get(cube)
        if hit is None or hit[0] != len(formula.clauses):
            hit = (len(formula.clauses), formula.falsified(cube.mask, cube.val))
            h_cache[cube] = hit
        return hit[1]

    h_p = falsified_cached(p)
    if not h_p:
        return None
    for q in boundary:
        for c2 in falsified_cached(q):
            for c1 in h_p:
                pivot = resolvable_on(c1, c2)
                if pivot is None:
                    continue
                outcome = merge(p, q, pivot, c1, c2)
                if outcome is not None:
                    cube, resolvent = outcome
                    return MergeOutcome([p, q], cube, resolvent, c1, c2, pivot)
    return None


def gen_ssc(formula: CnfFormula, config: SscConfig | None = None) -> SscResult:
    """Run the cube-cluster generator; the input formula is not mutated.

    Returns either a cube whose every point satisfies the original
    clauses, or the final Body with its transport function and the
    resolvents learned along the way. Termination is guaranteed: the
    measure |Union(Body)| + |F| never decreases and only finitely many
    iterations can leave it unchanged.
    """
    config = config or SscConfig()
    n = formula.num_vars
    work = formula.copy()
    log = TraceLog(config.record_trace)
    xi_log: list = []
    union_size = 0   # |Union(Body)|, kept only when xi_log is on

    boundary = _Boundary()
    if config.init_strategy == "ne-style":
        # One start per clause; with no clause to falsify, the whole space.
        starts = [(unsat_cube(c, n), c) for c in work.clauses] or \
            [(Cube.full(n), None)]
    else:
        init = config.init_cube if config.init_cube is not None else Cube.full(n)
        if init.n != n:
            raise ValueError(f"init cube arity {init.n}, expected {n}")
        first = work.falsified(init.mask, init.val)
        starts = [(init, first[0] if first else None)]
    for cube, clause in starts:
        if cube not in boundary:
            boundary.push_back(cube)
            log.add("initialize", lambda: f"cube {cube.to_text()} 0" + (
                "" if clause is None else f" clause {clause.cid}"))

    body: list[Cube] = []
    body_set: set[Cube] = set()
    transport: dict[Cube, int] = {}
    learned: list[Clause] = []
    learn_steps: list[LearnStep] = []
    h_cache: dict = {}
    iterations = 0

    def total_covers():
        return body + boundary.items

    def record_xi():
        if config.xi_log:
            xi_log.append((iterations, union_size, len(work.clauses)))

    while len(boundary):
        iterations += 1
        p = boundary.pop()
        h = work.falsified(p.mask, p.val)
        if not h:
            meeting = work.meeting(p.mask, p.val)
            if not meeting:
                log.add("satisfied", lambda: f"cube {p.to_text()} 0")
                log.add("finish", lambda: "result SAT")
                record_xi()
                return SscResult(True, witness=p, learned=learned,
                                 learn_steps=learn_steps, formula=work,
                                 xi_log=xi_log, iterations=iterations,
                                 trace=log.records)
            var = pick_split_var(p, meeting, config.split_heuristic)
            halves = p.split(var)
            covers = total_covers()
            verdicts = [is_covered(half, covers, config.coverage)
                        for half in halves]
            boundary.push_front([half for half, verdict in zip(halves, verdicts)
                                 if verdict != COVERED])
            log.add("split", lambda: f"cube {p.to_text()} 0 var {var} -> " +
                    " | ".join(f"cube {half.to_text()} 0 "
                               f"{'covered' if verdict == COVERED else 'kept'}"
                               for half, verdict in zip(halves, verdicts)))
        else:
            outcome = None
            if config.merge_enabled:
                outcome = _find_merge(boundary, p, work, h_cache)
            if outcome is not None:
                partner = outcome.merged[1]
                boundary.remove(partner)
                clause, created = work.learn(outcome.resolvent.lits)
                if created:
                    learned.append(clause)
                    learn_steps.append(LearnStep(clause.cid, clause.lits,
                                                 outcome.left.cid,
                                                 outcome.right.cid,
                                                 outcome.pivot))
                boundary.push_front([outcome.cube])
                log.add("merge", lambda: (
                    f"cube {p.to_text()} 0 clause {outcome.left.cid} "
                    f"with cube {partner.to_text()} 0 clause {outcome.right.cid} "
                    f"pivot {outcome.pivot} -> cube {outcome.cube.to_text()} 0 "
                    + (f"learn {clause.cid} {' '.join(map(str, clause.lits + (0,)))}"
                       if created else f"reuse {clause.cid}")))
            else:
                clause = h[0]
                covers = total_covers()
                for lit, neighbor in zip(clause.lits, cube_nbhd(p, clause)):
                    verdict = is_covered(neighbor, covers, config.coverage)
                    fresh = verdict != COVERED
                    log.add("nbhd", lambda: (
                        f"cube {p.to_text()} 0 clause {clause.cid} dir {abs(lit)} "
                        f"-> cube {neighbor.to_text()} 0 "
                        f"{'new' if fresh else 'covered'}"))
                    if fresh:
                        if config.pop_policy == "fifo":
                            boundary.push_back(neighbor)
                        else:
                            boundary.push_front([neighbor])
                if p not in body_set:
                    if config.xi_log:
                        overlap = [Cube(n, p.mask | q.mask, p.val | q.val)
                                   for q in body if q.intersects(p)]
                        union_size += p.count_points() - union_count(overlap, n)
                    body.append(p)
                    body_set.add(p)
                transport[p] = clause.cid
                log.add("move-to-body",
                        lambda: f"cube {p.to_text()} 0 clause {clause.cid}")
        record_xi()

    log.add("finish", lambda: "result UNSAT")
    return SscResult(False, body=body, transport=transport, learned=learned,
                     learn_steps=learn_steps, formula=work, xi_log=xi_log,
                     iterations=iterations, trace=log.records)


def verify_ssc(formula: CnfFormula, clusters, transport) -> VerifyReport:
    """Check cluster stability: every cluster falsifies its transport clause
    and each of its 1-neighborhood cubes is covered by the cluster union."""
    clusters = list(clusters)
    report = VerifyReport()
    for cube, cid, neighbor in unreached_neighbors(formula, clusters,
                                                   transport, report):
        if is_covered(neighbor, clusters) != COVERED:
            report.fail(f"{member_name(cube)}: neighbor "
                        f"{neighbor.to_text() or 'T'} via clause {cid} "
                        f"is not covered")
    return report


def expand_body_to_points(body, transport):
    """Flatten clusters to an explicit point set with a point transport.

    Points in several clusters take the clause of the first cluster (in
    the given order) containing them; any choice keeps the set stable.
    """
    points: dict[tuple, int] = {}
    for cube in body:
        cid = transport[cube]
        for point in cube.points():
            points.setdefault(point, cid)
    return list(points), points
