"""Cube-cluster engine: grow a stable set of clusters, or find a model.

Clusters are cubes. The loop pops a cube from the Boundary and either
declares it satisfying (it misses every clause's falsifying cube),
splits it on a pinned variable, merges it with another Boundary cube
falsifying a resolvable clause (learning the resolvent), or expands its
1-neighborhood and moves it to the Body. Coverage queries against
Body + Boundary keep already-reached regions out of the Boundary. From
the all-free start with the full coverage scope every such query has a
known answer, so the engine asks none and keeps no cover index; the
proof is in `gen_ssc`.

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
                   resolvable_on)
from .coverage import COVERED, UNCOVERED, CoverIndex, is_covered
from .cubes import (Cube, checked_members, cube_nbhd, member_name, merge,
                    unreached_neighbors, unsat_cube)
from .trace import TraceLog


@dataclass
class SscConfig:
    init_strategy: str = "single-cube"   # or "ne-style"
    init_cube: Cube | None = None        # single-cube start, all-free cube by default
    pop_policy: str = "fifo"             # or "lifo"
    split_heuristic: str = "unit-first"  # or "first-intersecting"
    merge_enabled: bool = True
    coverage: str = "full"               # or "shared": shared-literal covers only
    record_trace: bool = False

    def __post_init__(self):
        if self.init_strategy not in ("single-cube", "ne-style"):
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")
        if self.pop_policy not in ("fifo", "lifo"):
            raise ValueError(f"unknown pop policy {self.pop_policy!r}")
        if self.coverage not in ("full", "shared"):
            raise ValueError(f"unknown coverage scope {self.coverage!r}")
        if self.init_strategy == "ne-style" and self.init_cube is not None:
            raise ValueError("ne-style starts from every clause's cube; "
                             "it reads no init cube")
        if self.split_heuristic not in ("unit-first", "first-intersecting"):
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
    partner: Cube       # the Boundary cube merged with the popped one
    cube: Cube          # their component-wise union
    resolvent: Clause   # resolvent falsified by the union; learn registers it
    left: Clause
    right: Clause
    pivot: int
    record: list        # the partner's Boundary record


@dataclass
class SscResult:
    satisfiable: bool
    witness: Cube | None = None
    body: list = field(default_factory=list)        # insertion order
    transport: dict = field(default_factory=dict)   # Cube -> clause id
    learned: list = field(default_factory=list)     # Clause objects, learn order
    learn_steps: list = field(default_factory=list)
    formula: CnfFormula | None = None               # learned-extended copy
    iterations: int = 0
    trace: list = field(default_factory=list)


class _Boundary:
    """The Boundary: a stack of per-cube records, its front at the end.

    A record is a list [cube, tested, falsified, met]. `falsified` lists
    in id order the clauses among the formula's first `tested` that the
    cube falsifies. `met` holds, as a bitset over clause ids (bit
    cid - 1), those among the same clauses that the cube meets; it is
    None unless the cube is a split half, whose bitset derives from its
    parent's. Clauses are only appended, so `refresh` brings a record up
    to date in place from the clauses learned since it was made. Each
    record owns its lists.

    `pop` takes the front and `push` puts records there; `push_back`
    puts one at the back, index 0. The engine reads `stack` directly.

    It keeps no cover index and tests no membership: from the all-free
    full-scope start no cube enters it twice (see `gen_ssc`). Every
    other start uses `_IndexedBoundary`.
    """

    def __init__(self, formula: CnfFormula):
        self.formula = formula
        self.stack: list[list] = []

    def pop(self) -> tuple[Cube, list, int | None]:
        """The front cube, the clauses it falsifies and, when it falsifies
        none, the ids of the clauses it meets, as a bitset."""
        record = self.stack.pop()
        if record[1] != len(self.formula.clauses):
            self.refresh(record)
        cube, _, hits, met = record
        if not hits and met is None:
            met = self.formula.meeting_bits(cube.mask, cube.val)
        return cube, hits, met

    def push(self, records):
        """Put records at the front, the first of them frontmost."""
        self.stack += reversed(records)

    def push_back(self, record):
        self.stack.insert(0, record)

    def remove(self, record):
        """Remove a record, found by identity from the front."""
        stack = self.stack
        i = len(stack) - 1
        while stack[i] is not record:
            i -= 1
        del stack[i]

    def refresh(self, record) -> list:
        """Bring a record up to the formula's clauses; its falsified list."""
        cube, tested, hits, met = record
        clauses = self.formula.clauses
        record[1] = len(clauses)
        new, mask, val = clauses[tested:], cube.mask, cube.val
        hits += falsified_among(new, mask, val)
        if met is not None:
            # Few clauses are new: test each, not every pinned variable.
            for clause in new:
                if not (val ^ clause.fval) & mask & clause.fmask:
                    met |= 1 << (clause.cid - 1)
            record[3] = met
        return hits


class _IndexedBoundary(_Boundary):
    """A Boundary whose cubes also sit in `covers`, the cover index the
    Body shares, and that holds each cube once: a push skips a cube
    already here, which keeps its place and record.

    A cube enters `covers` when it is pushed and leaves when it is
    removed. A popped cube stays there: the engine discards it or keeps
    that copy as its Body copy.
    """

    def __init__(self, formula: CnfFormula, covers: CoverIndex):
        super().__init__(formula)
        self.members: set[Cube] = set()
        self.covers = covers

    def pop(self) -> tuple[Cube, list, int | None]:
        popped = super().pop()
        self.members.remove(popped[0])
        return popped

    def push(self, records):
        fresh = [record for record in records if record[0] not in self.members]
        super().push(fresh)
        for record in fresh:
            self.members.add(record[0])
            self.covers.add(record[0])

    def push_back(self, record):
        if record[0] not in self.members:
            super().push_back(record)
            self.members.add(record[0])
            self.covers.add(record[0])

    def remove(self, record):
        super().remove(record)
        self.members.remove(record[0])
        self.covers.discard(record[0])


def pick_split_var(cube: Cube, meeting, heuristic: str = "unit-first") -> int:
    """Choose a free variable of the cube pinned by one of the clauses in
    `meeting`, an iterable of the clauses the cube meets in id order
    (`CnfFormula.clauses_of` its `meeting_bits`).

    Splitting there makes one half falsify strictly more literals of each
    clause holding it. first-intersecting takes the first clause with a free literal
    and its lowest free variable; a cube that falsifies no clause leaves
    a variable of each clause it meets free, so it reads only the first
    clause. unit-first stops at the first clause with one free literal,
    the unit rule, and takes that variable. With no unit it takes MOMS,
    maximum occurrences in clauses of minimum size (Freeman, PhD thesis
    1995; Jeroslow and Wang, AMAI 1990): the free variable in the most
    met clauses of the fewest free literals, the lowest on ties.
    """
    free = ~cube.mask
    narrowest, fewest = [], float("inf")
    unit_first = heuristic == "unit-first"
    for clause in meeting:
        pinned = clause.fmask & free
        if pinned:
            if not unit_first:
                return (pinned & -pinned).bit_length()
            width = pinned.bit_count()
            if width < fewest:
                if width == 1:
                    return pinned.bit_length()
                narrowest, fewest = [pinned], width
            elif width == fewest:
                narrowest.append(pinned)
    if not narrowest:
        raise ValueError("no intersecting clause pins a free variable")
    # Bit-sliced counters: bit v of slices[j] is bit j of the count of
    # variable v + 1. Then keep, from the top slice down, the variables
    # whose count has that bit, while any does.
    slices, best = [], 0
    for pinned in narrowest:
        best |= pinned
        carry = pinned
        for j, bits in enumerate(slices):
            slices[j] = bits ^ carry
            carry &= bits
            if not carry:
                break
        else:
            slices.append(carry)
    for bits in reversed(slices):
        if best & bits:
            best &= bits
    return (best & -best).bit_length()


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


def _find_merge(boundary: _Boundary, p: Cube, h_p: list):
    """Scan the Boundary from the front for a merge partner of p, which
    falsifies the clauses h_p."""
    tested = len(boundary.formula.clauses)
    for record in reversed(boundary.stack):
        hits = record[2] if record[1] == tested else boundary.refresh(record)
        for c2 in hits:
            for c1 in h_p:
                pivot = resolvable_on(c1, c2)
                if pivot is None:
                    continue
                outcome = merge(p, record[0], pivot, c1, c2)
                if outcome is not None:
                    cube, resolvent = outcome
                    return MergeOutcome(record[0], cube, resolvent, c1, c2,
                                        pivot, record)
    return None


def gen_ssc(formula: CnfFormula, config: SscConfig | None = None) -> SscResult:
    """Run the cube-cluster generator; the input formula is not mutated.

    Returns either a cube whose every point satisfies the original
    clauses, or the final Body with its transport function and the
    resolvents learned along the way. Termination is guaranteed: the
    measure |Union(Body)| + |F| never decreases and only finitely many
    iterations can leave it unchanged.

    No step shrinks the union of Body + Boundary: a split's halves
    partition its cube and one is dropped only when other cubes cover
    it, a merge pushes a cube holding both parents, and a Body move only
    adds cubes. From an all-free start with the full scope (`whole`)
    that union is the whole space at every step, so every neighbour of a
    Body move is covered and the engine judges it so without a query.
    With the trace off it builds no neighbour cube either: a Body move
    records the cube's transport clause and nothing else. With the trace
    on it builds each neighbour and records it as `covered`.

    There no split half meets another cube either, so the engine keeps
    both halves without a query and builds no cover index at all:

    - No neighbour is pushed, so every push is a front push: split
      halves or a merge result. A merge result falsifies its resolvent
      for good, so it is never split. The split cubes thus form one
      binary tree rooted at the start cube, explored depth first. Apart
      from a merge result at the front, the Boundary holds unsplit tree
      nodes only, each a sibling of the last popped node or of one of
      its ancestors.
    - The popped cube y is the last popped node or, by induction, a
      merge result that is the region of one of its ancestors. A merge
      partner b is the sibling of a node a on that node's root path, as
      y is. The two pin the merge pivot apart, so b does not lie inside
      y, and y lies inside a. So the merge result hull(y, b) is b's
      parent: y and b agree on the parent's pins and differ at its split
      variable. Every merge result is the region of a tree node.
    - When a tree node x that falsifies nothing is split, every other
      Body or Boundary cube is the region of a tree node, so it misses x
      or contains it: no node below x exists yet. One that contains x is
      not an unsplit node, since x's ancestors were all split, so it is
      a merge result, and then x falsifies its resolvent. So each half
      of x meets no other cube, and a query would answer UNCOVERED.

    Nor does a cube enter the Boundary twice: a split half meets no
    other cube, and a merge result is the region of a split node, while
    after a pop the Boundary holds unsplit nodes only. So this path keeps
    the Boundary as a bare stack with no membership test.

    An ne-style start is the all-free cube alone only when the formula
    holds no clause but the empty one. With the empty clause among
    others the all-free cube is one start of several and a merge may
    rebuild another start, so that run keeps the index and the
    membership test; every neighbour query answers covered. The
    shared-literal scope asks every query, as it may miss a cover, and
    so does every other start, through an index over Body + Boundary.
    """
    config = config or SscConfig()
    n = formula.num_vars
    work = formula.copy()
    log = TraceLog(config.record_trace)
    tracing = log.enabled   # trace payloads are built only under this test
    shared = config.coverage == "shared"

    if config.init_strategy == "ne-style":
        # One start per distinct clause cube, named by its first clause;
        # with no clause to falsify, the whole space.
        firsts: dict[Cube, Clause] = {}
        for c in work.clauses:
            firsts.setdefault(unsat_cube(c, n), c)
        starts = list(firsts.items()) or [(Cube.full(n), None)]
    else:
        init = config.init_cube if config.init_cube is not None else Cube.full(n)
        if init.n != n:
            raise ValueError(f"init cube arity {init.n}, expected {n}")
        starts = [(init, None)]
    # Body + Boundary is the whole space at every step, and no split half
    # meets another cube (see above): no coverage query is needed.
    whole = not shared and len(starts) == 1 and not starts[0][0].mask
    if whole:
        covers = None
        boundary = _Boundary(work)
    else:
        covers = CoverIndex(n)   # Body + Boundary, with multiplicity
        boundary = _IndexedBoundary(work, covers)
    for cube, clause in starts:
        hits = work.falsified(cube.mask, cube.val)
        boundary.push_back([cube, len(work.clauses), hits, None])
        if clause is None and hits:
            clause = hits[0]   # the single start names its first clause
        if tracing:
            log.add("initialize", lambda: f"cube {cube.to_text()} 0" + (
                "" if clause is None else f" clause {clause.cid}"))

    transport: dict[Cube, int] = {}   # the Body, in insertion order
    learn_steps: list[LearnStep] = []
    iterations = 0
    stack, occurs, occ_bits = boundary.stack, work.occurs, work.occ_bits

    while stack:
        iterations += 1
        p, h, meeting = boundary.pop()
        # A cube falsifying nothing may still meet clauses: split it.
        if not h:
            if meeting == 0:
                if tracing:
                    log.add("satisfied", lambda: f"cube {p.to_text()} 0")
                    log.add("finish", lambda: "result SAT")
                return SscResult(True, witness=p,
                                 learned=work.clauses[len(formula.clauses):],
                                 learn_steps=learn_steps, formula=work,
                                 iterations=iterations, trace=log.records)
            var = pick_split_var(p, work.clauses_of(meeting),
                                 config.split_heuristic)
            halves = low, high = p.split(var)
            # p falsifies nothing, so a half falsifies only clauses holding
            # the literal its pin falsifies, x_var for the low half and
            # -x_var for the high one, and meets those p meets that hold
            # no literal its pin satisfies.
            slot, tested = 2 * var - 2, len(work.clauses)
            records = [
                [low, tested, falsified_among(occurs[slot], low.mask, low.val),
                 meeting & ~occ_bits[slot + 1]],
                [high, tested, falsified_among(occurs[slot + 1], high.mask,
                                               high.val),
                 meeting & ~occ_bits[slot]]]
            if whole:
                verdicts = (UNCOVERED, UNCOVERED)
            else:
                covers.discard(p)   # it contains both halves
                verdicts = [is_covered(half, covers, shared)
                            for half in halves]
                records = [record for record, verdict in zip(records, verdicts)
                           if verdict != COVERED]
            boundary.push(records)
            if tracing:
                log.add("split", lambda: f"cube {p.to_text()} 0 var {var} -> " +
                        " | ".join(f"cube {half.to_text()} 0 "
                                   f"{'covered' if verdict == COVERED else 'kept'}"
                                   for half, verdict in zip(halves, verdicts)))
        else:
            outcome = None
            if config.merge_enabled:
                outcome = _find_merge(boundary, p, h)
            if outcome is not None:
                if not whole:
                    covers.discard(p)
                partner = outcome.partner
                boundary.remove(outcome.record)
                clause, created = work.learn(outcome.resolvent)
                if created:
                    learn_steps.append(LearnStep(clause.cid, clause.lits,
                                                 outcome.left.cid,
                                                 outcome.right.cid,
                                                 outcome.pivot))
                # It contains p, so it falsifies only clauses p does, and
                # the resolvent; a reused resolvent is among h.
                merged = outcome.cube
                boundary.push([[merged, len(work.clauses), falsified_among(
                    h, merged.mask, merged.val) + ([clause] if created else []),
                    None]])
                if tracing:
                    log.add("merge", lambda: (
                        f"cube {p.to_text()} 0 clause {outcome.left.cid} "
                        f"with cube {partner.to_text()} 0 "
                        f"clause {outcome.right.cid} pivot {outcome.pivot} "
                        f"-> cube {outcome.cube.to_text()} 0 " + (
                            f"learn {clause.cid} "
                            f"{' '.join(map(str, clause.lits + (0,)))}"
                            if created else f"reuse {clause.cid}")))
            else:
                clause = h[0]
                # The neighbours are pairwise disjoint, so none can cover
                # another: each is pushed as soon as it is judged. p is in
                # the index as its Body copy; it meets none of them. From
                # the all-free start every neighbour is covered, so only
                # the trace reads them.
                if tracing or not whole:
                    for lit, neighbor in zip(clause.lits, cube_nbhd(p, clause)):
                        new = not whole and \
                            is_covered(neighbor, covers, shared) != COVERED
                        if tracing:
                            log.add("nbhd", lambda: (
                                f"cube {p.to_text()} 0 clause {clause.cid} "
                                f"dir {abs(lit)} -> cube {neighbor.to_text()} 0 "
                                f"{'new' if new else 'covered'}"))
                        if not new:
                            continue
                        record = [neighbor, len(work.clauses),
                                  _falsified_after_pin(work, h, neighbor,
                                                       1 << (abs(lit) - 1)),
                                  None]
                        if config.pop_policy == "fifo":
                            boundary.push_back(record)
                        else:
                            boundary.push([record])
                if p in transport and not whole:
                    covers.discard(p)   # the Body holds a copy already
                transport[p] = clause.cid
                if tracing:
                    log.add("move-to-body",
                            lambda: f"cube {p.to_text()} 0 clause {clause.cid}")

    if tracing:
        log.add("finish", lambda: "result UNSAT")
    return SscResult(False, body=list(transport), transport=transport,
                     learned=work.clauses[len(formula.clauses):],
                     learn_steps=learn_steps, formula=work,
                     iterations=iterations, trace=log.records)


def verify_ssc(formula: CnfFormula, clusters, transport) -> VerifyReport:
    """Check an UNSAT certificate: every cluster falsifies its transport
    clause, and the clusters cover the whole space or each of their
    1-neighborhood cubes is covered by the cluster union (stability).

    A cover of the space is a certificate by itself: every point lies in
    a cluster and so falsifies that cluster's clause, a clause of the
    formula. The cover is tried only when every member passed and the
    clusters' point counts sum to at least 2^n, so a point certificate
    of fewer points goes straight to the neighbour check. Either way
    the verdict comes from this function's own coverage queries; it reads
    nothing the engine computed.

    The cluster index is built at the cover query or the first neighbour
    that is not itself a member, so point certificates never pay for it.
    It only narrows the candidates of each query: a cover it dropped
    could only turn an accept into a reject, never the other way.
    """
    report = VerifyReport()
    members = checked_members(formula, clusters, transport, report)
    n = next(iter(members)).n
    index = None
    # The point counts 2^(n - width) sum to 2^n or more exactly when the
    # 2^(top - width) do to 2^top, top the widest member's width: integers
    # of the widths' size, not of n's, under a wide header.
    widths = [cube.mask.bit_count() for cube in members]
    top = max(widths)
    if report and sum([1 << top - width for width in widths]) >= 1 << top:
        index = CoverIndex(n, members)
        if is_covered(Cube.full(n), index) == COVERED:
            return report
    for cube, cid, neighbor in unreached_neighbors(members):
        if index is None:
            index = CoverIndex(n, members)
        if is_covered(neighbor, index) != COVERED:
            report.fail(f"{member_name(cube)}: neighbor {member_name(neighbor)} "
                        f"via clause {cid} is not covered")
    return report
