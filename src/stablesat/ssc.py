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
from operator import attrgetter

from .core import (Clause, CnfFormula, VerifyReport, falsified_among,
                   meeting_among, resolvable_on)
from .coverage import COVERED, CoverIndex, is_covered, union_count
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
    coverage: str = "full"               # or "shared": shared-literal covers only
    xi_log: bool = False                 # log (iteration, |Union(Body)|, |F|) per iteration
    record_trace: bool = False

    def __post_init__(self):
        if self.init_strategy not in ("single-cube", "ne-style"):
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")
        if self.pop_policy not in ("fifo", "lifo"):
            raise ValueError(f"unknown pop policy {self.pop_policy!r}")
        if self.coverage not in ("full", "shared"):
            raise ValueError(f"unknown coverage scope {self.coverage!r}")
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
    """Insertion-ordered cube set with front pops and front/back pushes.

    Pushed cubes are pending: `flush` adds them to `covers`, the index
    the Body shares, just before the engine's next coverage query, so a
    cube popped before then never enters it. A popped cube that did enter
    stays there: the engine discards it or keeps that copy as its Body
    copy.
    """

    def __init__(self, covers: CoverIndex):
        self.items: list[Cube] = []
        self.members: set[Cube] = set()
        self.pending: dict[Cube, None] = {}   # members not yet in covers
        self.covers = covers

    def pop(self) -> tuple[Cube, bool]:
        """The front cube, and whether it is in `covers`."""
        cube = self.items.pop(0)
        self.members.discard(cube)
        if cube in self.pending:
            del self.pending[cube]
            return cube, False
        return cube, True

    def push_front(self, cubes):
        fresh = [c for c in cubes if c not in self.members]
        self.items[0:0] = fresh
        self.members.update(fresh)
        self.pending.update(dict.fromkeys(fresh))

    def push_back(self, cube: Cube):
        if cube not in self.members:
            self.items.append(cube)
            self.members.add(cube)
            self.pending[cube] = None

    def remove(self, cube: Cube):
        self.items.remove(cube)
        self.members.discard(cube)
        if cube in self.pending:
            del self.pending[cube]
        else:
            self.covers.discard(cube)

    def flush(self):
        """Add the pending cubes to `covers`, in push order."""
        for cube in self.pending:
            self.covers.add(cube)
        self.pending.clear()

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


class _Falsified:
    """The clauses each Boundary cube falsifies, in formula order, and for
    a split half the clauses its parent met.

    A child's lists are derived from its parent's when it is pushed
    (`seed`); a cube without an entry is scanned in full. Clauses are
    only appended, so an entry needs only the clauses learned since it
    was made. The engine drops an entry when its cube leaves the
    Boundary, so the cache never outgrows it.
    """

    __slots__ = ("formula", "entries")

    def __init__(self, formula: CnfFormula):
        self.formula = formula
        # Cube -> (clauses tested, falsified, met); a split half's met is
        # (clauses tested, clauses its parent met, split bit), else None.
        self.entries: dict = {}

    def __call__(self, cube: Cube) -> list:
        count, hits, met = self.entries.get(cube, (0, [], None))
        if count != len(self.formula.clauses):
            hits = hits + self.formula.falsified(cube.mask, cube.val, count)
            self.entries[cube] = (len(self.formula.clauses), hits, met)
        return hits

    def meeting(self, cube: Cube) -> list:
        """The clauses the cube meets, in formula order. A split half keeps
        those of its parent's that the split pin does not satisfy."""
        entry = self.entries.get(cube)
        if entry is None or entry[2] is None:
            return self.formula.meeting(cube.mask, cube.val)
        count, met, bit = entry[2]
        met = meeting_among(met, bit, cube.val)
        if count != len(self.formula.clauses):
            met += self.formula.meeting(cube.mask, cube.val, count)
        return met

    def seed(self, cube: Cube, hits: list, met=None):
        """Enter lists derived over every clause so far (see `entries`)."""
        self.entries[cube] = (len(self.formula.clauses), hits, met)

    def drop(self, cube: Cube):
        self.entries.pop(cube, None)


def _falsified_after_pin(formula: CnfFormula, h: list, cube: Cube,
                         bit: int) -> list:
    """The clauses the cube falsifies, in id order, from the clauses `h` a
    cube falsifies that differs from it only at the variable of `bit`,
    which it leaves free or pins the other way.

    Only clauses holding that variable change: those in h go, and those
    the cube falsifies join from the occurrence list of the literal its
    pin falsifies.
    """
    kept = [c for c in h if not c.fmask & bit]
    slot = 2 * bit.bit_length() - (1 if cube.val & bit else 2)
    gained = falsified_among(formula.occurs[slot], cube.mask, cube.val)
    if not kept:
        return gained
    return sorted(kept + gained, key=attrgetter("cid")) if gained else kept


def _find_merge(boundary, p: Cube, h_p: list, falsified: _Falsified):
    """Scan the Boundary in insertion order for a merge partner of p, which
    falsifies the clauses h_p."""
    for q in boundary:
        for c2 in falsified(q):
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
    shared = config.coverage == "shared"

    covers = CoverIndex(n)   # Body + Boundary, with multiplicity
    boundary = _Boundary(covers)
    falsified = _Falsified(work)
    if config.init_strategy == "ne-style":
        # One start per clause; with no clause to falsify, the whole space.
        starts = [(unsat_cube(c, n), c) for c in work.clauses] or \
            [(Cube.full(n), None)]
    else:
        init = config.init_cube if config.init_cube is not None else Cube.full(n)
        if init.n != n:
            raise ValueError(f"init cube arity {init.n}, expected {n}")
        first = work.falsified(init.mask, init.val)
        falsified.seed(init, first)
        starts = [(init, first[0] if first else None)]
    for cube, clause in starts:
        if cube not in boundary:
            boundary.push_back(cube)
            log.add("initialize", lambda: f"cube {cube.to_text()} 0" + (
                "" if clause is None else f" clause {clause.cid}"))

    transport: dict[Cube, int] = {}   # the Body, in insertion order
    learned: list[Clause] = []
    learn_steps: list[LearnStep] = []
    iterations = 0

    def record_xi():
        if config.xi_log:
            xi_log.append((iterations, union_size, len(work.clauses)))

    while len(boundary):
        iterations += 1
        p, indexed = boundary.pop()
        h = falsified(p)
        meeting = None if h else falsified.meeting(p)
        falsified.drop(p)
        # A cube falsifying nothing may still meet clauses: split it.
        if not h:
            if not meeting:
                log.add("satisfied", lambda: f"cube {p.to_text()} 0")
                log.add("finish", lambda: "result SAT")
                record_xi()
                return SscResult(True, witness=p, learned=learned,
                                 learn_steps=learn_steps, formula=work,
                                 xi_log=xi_log, iterations=iterations,
                                 trace=log.records)
            if indexed:
                covers.discard(p)   # it contains both halves
            var = pick_split_var(p, meeting, config.split_heuristic)
            halves = p.split(var)
            boundary.flush()
            base = covers.narrow(p.mask, p.val, shared)
            verdicts = [is_covered(half, covers, shared, base)
                        for half in halves]
            bit = 1 << (var - 1)
            kept = [half for half, verdict in zip(halves, verdicts)
                    if verdict != COVERED]
            for half in kept:
                falsified.seed(half, _falsified_after_pin(work, h, half, bit),
                               (len(work.clauses), meeting, bit))
            boundary.push_front(kept)
            log.add("split", lambda: f"cube {p.to_text()} 0 var {var} -> " +
                    " | ".join(f"cube {half.to_text()} 0 "
                               f"{'covered' if verdict == COVERED else 'kept'}"
                               for half, verdict in zip(halves, verdicts)))
        else:
            outcome = None
            if config.merge_enabled:
                outcome = _find_merge(boundary, p, h, falsified)
            if outcome is not None:
                if indexed:
                    covers.discard(p)
                partner = outcome.merged[1]
                boundary.remove(partner)
                falsified.drop(partner)
                clause, created = work.learn(outcome.resolvent.lits)
                if created:
                    learned.append(clause)
                    learn_steps.append(LearnStep(clause.cid, clause.lits,
                                                 outcome.left.cid,
                                                 outcome.right.cid,
                                                 outcome.pivot))
                if outcome.cube not in boundary:
                    # It contains p, so it falsifies only clauses p does,
                    # and the resolvent; a reused resolvent is among h.
                    falsified.seed(outcome.cube, falsified_among(
                        h, outcome.cube.mask, outcome.cube.val) +
                        ([clause] if created else []))
                boundary.push_front([outcome.cube])
                log.add("merge", lambda: (
                    f"cube {p.to_text()} 0 clause {outcome.left.cid} "
                    f"with cube {partner.to_text()} 0 clause {outcome.right.cid} "
                    f"pivot {outcome.pivot} -> cube {outcome.cube.to_text()} 0 "
                    + (f"learn {clause.cid} {' '.join(map(str, clause.lits + (0,)))}"
                       if created else f"reuse {clause.cid}")))
            else:
                clause = h[0]
                # The neighbours are pairwise disjoint, so none can cover
                # another: all are judged before any is pushed, on one
                # narrowing by p's literals outside the clause. p is in
                # the index as its Body copy; it meets none of them.
                boundary.flush()
                if not indexed:
                    covers.add(p)
                base = covers.narrow(p.mask & ~clause.fmask, p.val, shared)
                fresh = []
                for lit, neighbor in zip(clause.lits, cube_nbhd(p, clause)):
                    new = is_covered(neighbor, covers, shared, base) != COVERED
                    log.add("nbhd", lambda: (
                        f"cube {p.to_text()} 0 clause {clause.cid} dir {abs(lit)} "
                        f"-> cube {neighbor.to_text()} 0 "
                        f"{'new' if new else 'covered'}"))
                    if new:
                        fresh.append(neighbor)
                        falsified.seed(neighbor, _falsified_after_pin(
                            work, h, neighbor, 1 << (abs(lit) - 1)))
                for neighbor in fresh:
                    if config.pop_policy == "fifo":
                        boundary.push_back(neighbor)
                    else:
                        boundary.push_front([neighbor])
                if p in transport:
                    covers.discard(p)   # the Body holds a copy already
                elif config.xi_log:
                    overlap = [Cube(n, p.mask | q.mask, p.val | q.val)
                               for q in transport if q.intersects(p)]
                    union_size += p.count_points() - union_count(overlap, n)
                transport[p] = clause.cid
                log.add("move-to-body",
                        lambda: f"cube {p.to_text()} 0 clause {clause.cid}")
        record_xi()

    log.add("finish", lambda: "result UNSAT")
    return SscResult(False, body=list(transport), transport=transport,
                     learned=learned, learn_steps=learn_steps, formula=work,
                     xi_log=xi_log, iterations=iterations, trace=log.records)


def verify_ssc(formula: CnfFormula, clusters, transport) -> VerifyReport:
    """Check cluster stability: every cluster falsifies its transport clause
    and each of its 1-neighborhood cubes is covered by the cluster union.

    The cluster index is built at the first neighbour that is not itself a
    member, so point certificates never pay for it, and it is narrowed
    once per member on the member's literals outside its transport
    clause, which all its neighbours hold. It only narrows the
    candidates of each query: a cover it dropped could only turn an
    accept into a reject, never the other way.
    """
    clusters = list(clusters)
    report = VerifyReport()
    index = member = base = None
    for cube, cid, neighbor in unreached_neighbors(formula, clusters,
                                                   transport, report):
        if index is None:
            index = CoverIndex(neighbor.n, clusters)
        if cube is not member:
            member = cube
            outside = cube.mask & ~formula.clause_by_id(cid).fmask
            base = index.narrow(outside, cube.val)
        if is_covered(neighbor, index, False, base) != COVERED:
            report.fail(f"{member_name(cube)}: neighbor {member_name(neighbor)} "
                        f"via clause {cid} is not covered")
    return report


def expand_body_to_points(body, transport):
    """Flatten clusters to one-point cubes with a transport keyed by them.

    Points in several clusters take the clause of the first cluster (in
    the given order) containing them; any choice keeps the set stable.
    """
    points: dict[Cube, int] = {}
    for cube in body:
        cid = transport[cube]
        for point in cube.points():
            points.setdefault(Cube.from_point(point), cid)
    return list(points), points
