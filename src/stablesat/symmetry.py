"""Permutational symmetry: orbits, the stable-modulo-symmetry engine,
orbit expansion back to a plain stable set, and pigeon-hole formulas.

A permutation acts on variable indices; applying it to a point pushes
values forward (output[pi(i)] = input[i]) and applying it to a clause
relabels variables keeping polarities. With that pairing, a point
falsifies a clause exactly when its image falsifies the image clause,
which is all the stability arguments need.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from operator import getitem

from .core import Clause, CnfFormula, VerifyReport, bits_to_point, point_bits
from .cubes import Cube, member_name, unreached_neighbors
from .ssp import SspConfig, SspResult, gen_ssp

ORBIT_LIMIT = 10 ** 6


class OrbitLimitExceeded(RuntimeError):
    """Raised when an orbit expansion outgrows the caller's point limit."""


class Permutation:
    """A bijection on variable indices 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection on 1..n")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Permutation":
        """Build from cycle lists, e.g. [[1, 4], [2, 5]] over n variables."""
        images = list(range(1, n + 1))
        for cycle in cycles:
            for v in cycle:
                if not 1 <= v <= n:
                    raise ValueError(f"cycle element x{v} outside 1..{n}")
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated element in cycle {cycle}")
            for i, v in enumerate(cycle):
                images[v - 1] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    def __call__(self, var: int) -> int:
        return self.images[var - 1]

    @property
    def n(self) -> int:
        return len(self.images)

    def cycles(self):
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                seen.add(start)
                continue
            cycle = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = self(v)
            out.append(cycle)
        return out

    def to_cycle_text(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.to_cycle_text()}, n={self.n})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like '(1 4)(2 5)(3 6)'."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation text")
    if re.fullmatch(r"(\s*\(\s*[\d\s,]*\)\s*)+", stripped) is None:
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        body = body.replace(",", " ").strip()
        if body:
            cycles.append([int(tok) for tok in body.split()])
    return Permutation.from_cycles(cycles, n)


@dataclass
class SymmetryGroup:
    generators: list
    num_vars: int

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.num_vars:
                raise ValueError("generator arity mismatch")


def parse_symmetry_file(text: str, num_vars: int) -> SymmetryGroup:
    """One permutation per non-comment line, in cycle notation."""
    gens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        gens.append(parse_permutation(line, num_vars))
    return SymmetryGroup(gens, num_vars)


def format_symmetry_file(group: SymmetryGroup) -> str:
    return "".join(g.to_cycle_text() + "\n" for g in group.generators)


def apply_perm_point(perm: Permutation, point):
    """Push the point forward: the image's value at pi(i) is the value at i."""
    if len(point) != perm.n:
        raise ValueError("point arity mismatch")
    out = [0] * perm.n
    for i, value in enumerate(point, start=1):
        out[perm(i) - 1] = value
    return tuple(out)


def apply_perm_clause(perm: Permutation, clause: Clause) -> Clause:
    """Relabel clause variables, keeping literal polarities."""
    if clause.max_var() > perm.n:
        raise ValueError("clause arity mismatch")
    return Clause((1 if l > 0 else -1) * perm(abs(l)) for l in clause.lits)


def is_symmetric(formula: CnfFormula, perm: Permutation) -> bool:
    """True when the permuted formula has exactly the same clause multiset."""
    if perm.n != formula.num_vars:
        return False
    original: dict[tuple, int] = {}
    for clause in formula.clauses:
        original[clause.lits] = original.get(clause.lits, 0) + 1
    for clause in formula.clauses:
        key = apply_perm_clause(perm, clause).lits
        count = original.get(key, 0)
        if not count:
            return False
        original[key] = count - 1
    return True


def _byte_tables(perm: Permutation):
    """Lookup tables that push a packed point through the permutation a
    byte at a time: entry b of table k is the image of the bits
    b << 8k. Entry b is entry b minus its lowest bit, plus that bit's
    image, so a table costs one step per entry."""
    tables = []
    for shift in range(0, perm.n, 8):
        images = [1 << (v - 1) for v in perm.images[shift:shift + 8]]
        table = [0]
        for b in range(1, 1 << len(images)):
            low = b & -b
            table.append(table[b ^ low] | images[low.bit_length() - 1])
        tables.append(table)
    return tables


class _OrbitWalker:
    """Bounded BFS over generator applications, on packed points."""

    def __init__(self, group: SymmetryGroup, limit: int):
        if limit < 1:
            raise ValueError("orbit limit must be positive")
        self.tables = [_byte_tables(g) for g in group.generators]
        self.shifts = range(0, group.num_vars, 8)
        self.limit = limit

    def walk(self, bits: int, seen):
        """Breadth-first walk of the orbit of bits. Yields (image, parent,
        generator index) for each image not in `seen`; the caller adds it."""
        shifts = self.shifts
        frontier = [bits]
        while frontier:
            nxt = []
            for b in frontier:
                chunks = [(b >> shift) & 255 for shift in shifts]
                for gi, tables in enumerate(self.tables):
                    # The bytes' images have disjoint bits: the sum is their OR.
                    image = sum(map(getitem, tables, chunks))
                    if image not in seen:
                        yield image, b, gi
                        nxt.append(image)
            frontier = nxt

    def orbit(self, bits: int):
        """Return (parents, complete flag): each orbit point maps to the
        point the walk reached it from, the start to itself. Incomplete
        when the limit hits."""
        parents = {bits: bits}
        for image, parent, _ in self.walk(bits, parents):
            if len(parents) >= self.limit:
                return parents, False
            parents[image] = parent
        return parents, True


def gen_ssp_mod_symmetry(formula: CnfFormula, group: SymmetryGroup, init=None,
                         orbit_limit: int = ORBIT_LIMIT) -> SspResult:
    """Point engine that skips neighbors already represented up to symmetry.

    A neighborhood point is dropped when some reached point lies in its
    orbit, so the result is stable modulo the group: its existence still
    proves unsatisfiability. Every generator must leave the formula's
    clause multiset unchanged. An orbit larger than orbit_limit is not
    searched; its point stands for itself.
    """
    for gen in group.generators:
        if not is_symmetric(formula, gen):
            raise ValueError(f"formula is not symmetric under {gen!r}")
    walker = _OrbitWalker(group, orbit_limit)
    cache: dict[int, int] = {}

    def canonical(bits: int) -> int:
        rep = cache.get(bits)
        if rep is None:
            orbit, complete = walker.orbit(bits)
            if complete:
                rep = min(orbit)
                # Pairs, not dict.fromkeys(orbit): a temporary orbit-sized
                # dict (orbits of PH(6,5) reach 46656 points) can set the
                # process's peak memory.
                cache.update(zip(orbit, repeat(rep)))
            else:
                rep = cache[bits] = bits
        return rep

    return gen_ssp(formula, init, SspConfig(canonical=canonical))


def _replayed_start(links, bits: int, group: SymmetryGroup, replayed):
    """Follow the walk's parent links from `bits` to the start of its walk
    (the point linked to itself) and return that start, or None when some
    link is no generator step. Each link is checked with the plain
    `apply_perm_point`, not the walker's tables; `replayed` remembers the
    links already checked (child -> parent)."""
    for _ in range(len(links)):
        parent = links[bits]
        if parent == bits:
            return bits
        if replayed.get(bits) != parent:
            point = bits_to_point(parent, group.num_vars)
            if not any(point_bits(apply_perm_point(g, point)) == bits
                       for g in group.generators):
                return None
            replayed[bits] = parent
        bits = parent
    return None


def verify_stable_mod_symmetry(formula: CnfFormula, points, transport,
                               group: SymmetryGroup,
                               limit: int = ORBIT_LIMIT) -> VerifyReport:
    """Check stability modulo the group: every neighbor is in the set or
    symmetric to a member. The members are one-point cubes. Orbit
    overflows fail the check conservatively.

    Every generator must map the formula onto itself; otherwise the
    check fails before any orbit is walked. A member found in a
    neighbor's orbit counts only after a replay: the walk's parent links
    from the member and from the neighbor back to the walk's start are
    each checked with `apply_perm_point`. So a fault in the walker's
    lookup tables can make the check reject, never accept.

    Each complete orbit is walked once; its parent links serve all its
    points. A walk cut by the limit is not remembered, because what it
    saw depends on where it started."""
    report = VerifyReport()
    for gen in group.generators:
        if not is_symmetric(formula, gen):
            report.fail(f"formula is not symmetric under {gen!r}")
    for cube in points:
        if not cube.is_point():
            report.fail(f"{member_name(cube)}: not a point")
    if not report:
        return report
    member_bits = {cube.val for cube in points}
    walker = _OrbitWalker(group, limit)
    links: dict[int, int] = {}     # parent links of every complete orbit walked
    member_of: dict[int, int | None] = {}  # walk start -> a member in its orbit
    replayed: dict[int, int] = {}  # links checked by _replayed_start
    for cube, cid, neighbor in unreached_neighbors(formula, points, transport,
                                                   report):
        tree, complete = links, True
        if neighbor.val not in links:
            tree, complete = walker.orbit(neighbor.val)
            member_of[neighbor.val] = min(tree.keys() & member_bits,
                                          default=None)
            if complete:
                links.update(tree)
                tree = links
        start = _replayed_start(tree, neighbor.val, group, replayed)
        member = member_of.get(start)
        if start is None or (member is not None and _replayed_start(
                tree, member, group, replayed) != start):
            failure = "reaches no member by generator steps"
        elif member is None and complete:
            failure = "has no symmetric member"
        elif member is None:
            failure = (f"orbit exceeded the limit {limit} before any member "
                       f"was found")
        else:
            continue
        report.fail(f"{member_name(cube)}: neighbor {member_name(neighbor)} "
                    f"{failure}")
    return report


def expand_mod_sym_to_ssp(formula: CnfFormula, points, transport,
                          group: SymmetryGroup, limit: int = ORBIT_LIMIT):
    """Blow the representative set up to the union of its orbits.

    Each orbit member q = pi(p) gets the transport clause pi(g(p)); the
    result is a plain stable set, as one-point cubes with their transport.
    Raises OrbitLimitExceeded when the expansion would hold more than
    `limit` points. The formula maps the permuted clauses back to clause
    ids; representatives keep theirs.
    """
    walker = _OrbitWalker(group, limit)
    expanded: dict[Cube, int] = {}
    full = (1 << group.num_vars) - 1
    images: dict[tuple[int, int], int] = {}   # (generator, id) -> image id

    def image_id(gi: int, cid: int) -> int:
        if (gi, cid) not in images:
            clause = apply_perm_clause(group.generators[gi],
                                       formula.clause_by_id(cid))
            target = formula.find(clause.lits)
            if target is None:
                raise ValueError(
                    f"permuted transport clause {clause!r} not in formula")
            images[gi, cid] = target.cid
        return images[gi, cid]

    for point in points:
        if point in expanded:
            continue
        if formula.clause_by_id(transport[point]) is None:
            raise ValueError(f"transport id {transport[point]} not in formula")
        # Each image inherits its parent's clause moved by the generator.
        ids = {point.val: transport[point]}
        for image, parent, gi in walker.walk(point.val, ids):
            if len(expanded) + len(ids) >= limit:
                raise OrbitLimitExceeded(f"expansion exceeds {limit} points")
            ids[image] = image_id(gi, ids[parent])
        for member, cid in ids.items():
            expanded[Cube(group.num_vars, full, member)] = cid
    return list(expanded), expanded


@dataclass
class PhInstance:
    """Pigeon-hole layout: variable v(i,j) says pigeon i sits in hole j."""
    pigeons: int
    holes: int

    def var(self, pigeon: int, hole: int) -> int:
        if not (1 <= pigeon <= self.pigeons and 1 <= hole <= self.holes):
            raise ValueError(f"no variable for pigeon {pigeon}, hole {hole}")
        return (pigeon - 1) * self.holes + hole

    @property
    def num_vars(self) -> int:
        return self.pigeons * self.holes


def ph_formula(n: int, m: int):
    """PH(n, m): n pigeons into m holes, no hole shared.

    One placement clause per pigeon and one exclusion clause per hole and
    pigeon pair: n + m*n*(n-1)/2 clauses. Unsatisfiable exactly when
    n > m.
    """
    if n < 1 or m < 1:
        raise ValueError("need at least one pigeon and one hole")
    inst = PhInstance(n, m)
    clauses = [[inst.var(i, j) for j in range(1, m + 1)] for i in range(1, n + 1)]
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                clauses.append([-inst.var(i, j), -inst.var(k, j)])
    return CnfFormula(inst.num_vars, clauses), inst


def ph_symmetry_generators(inst: PhInstance) -> SymmetryGroup:
    """Adjacent pigeon swaps and adjacent hole swaps.

    These transpositions generate the full symmetric groups on pigeons
    and on holes, and each one maps the formula onto itself.
    """
    gens = []
    for i in range(1, inst.pigeons):
        cycles = [[inst.var(i, j), inst.var(i + 1, j)]
                  for j in range(1, inst.holes + 1)]
        gens.append(Permutation.from_cycles(cycles, inst.num_vars))
    for j in range(1, inst.holes):
        cycles = [[inst.var(i, j), inst.var(i, j + 1)]
                  for i in range(1, inst.pigeons + 1)]
        gens.append(Permutation.from_cycles(cycles, inst.num_vars))
    return SymmetryGroup(gens, inst.num_vars)
