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

from .core import Clause, CnfFormula, VerifyReport, bits_to_point, point_bits
from .cubes import member_name, unreached_neighbors
from .ssp import SspConfig, SspResult, gen_ssp, point_clusters

ORBIT_LIMIT = 10 ** 6

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


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

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        return Permutation(self.images[i - 1] for i in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

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


def _perm_bits(perm: Permutation):
    """Precompute bit relabeling tables for fast point pushes."""
    return [(1 << (i - 1), 1 << (perm(i) - 1)) for i in range(1, perm.n + 1)]


class _OrbitWalker:
    """Bounded BFS over generator applications, on packed points."""

    def __init__(self, group: SymmetryGroup, limit: int):
        if limit < 1:
            raise ValueError("orbit limit must be positive")
        self.tables = [_perm_bits(g) for g in group.generators]
        self.limit = limit

    def _apply(self, table, bits: int) -> int:
        out = 0
        for src, dst in table:
            if bits & src:
                out |= dst
        return out

    def walk(self, bits: int, seen):
        """Breadth-first walk of the orbit of bits. Yields (image, parent,
        generator index) for each image not in `seen`; the caller adds it."""
        frontier = [bits]
        while frontier:
            nxt = []
            for b in frontier:
                for gi, table in enumerate(self.tables):
                    image = self._apply(table, b)
                    if image not in seen:
                        yield image, b, gi
                        nxt.append(image)
            frontier = nxt

    def orbit(self, bits: int):
        """Return (orbit set, complete flag); incomplete when the limit hits."""
        seen = {bits}
        for image, _, _ in self.walk(bits, seen):
            if len(seen) >= self.limit:
                return seen, False
            seen.add(image)
        return seen, True


def in_same_orbit(p1, p2, group: SymmetryGroup, limit: int = ORBIT_LIMIT) -> str:
    """Whether some group element maps p1 to p2, by a walk of the orbit
    of p1 that stops at `limit` points in all."""
    if len(p1) != group.num_vars or len(p2) != group.num_vars:
        raise ValueError("point arity mismatch")
    orbit, complete = _OrbitWalker(group, limit).orbit(point_bits(p1))
    if point_bits(p2) in orbit:
        return YES
    return NO if complete else UNKNOWN


def group_order(group: SymmetryGroup, limit: int = ORBIT_LIMIT) -> int:
    """Size of the generated group by closure enumeration (bounded)."""
    elements = {Permutation.identity(group.num_vars)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for perm in frontier:
            for gen in group.generators:
                image = gen.compose(perm)
                if image not in elements:
                    if len(elements) >= limit:
                        raise OrbitLimitExceeded(
                            f"group closure exceeds {limit} elements")
                    elements.add(image)
                    nxt.append(image)
        frontier = nxt
    return len(elements)


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
                cache.update(dict.fromkeys(orbit, rep))
            else:
                rep = cache[bits] = bits
        return rep

    return gen_ssp(formula, init, SspConfig(canonical=canonical))


def verify_stable_mod_symmetry(formula: CnfFormula, points, transport,
                               group: SymmetryGroup,
                               limit: int = ORBIT_LIMIT) -> VerifyReport:
    """Check stability modulo the group: every neighbor is in the set or
    symmetric to a member. Orbit overflows fail the check conservatively.

    Each complete orbit is walked once; its verdict holds for all its
    points. A walk cut by the limit is not remembered, because what it
    saw depends on where it started."""
    report = VerifyReport()
    clusters, by_cube = point_clusters(points, transport)
    member_bits = {cube.val for cube in clusters}
    walker = _OrbitWalker(group, limit)
    known: dict[int, str] = {}   # point bits -> YES / NO for its whole orbit
    for cube, cid, neighbor in unreached_neighbors(formula, clusters, by_cube,
                                                   report):
        verdict = known.get(neighbor.val)
        if verdict is None:
            orbit, complete = walker.orbit(neighbor.val)
            verdict = YES if orbit & member_bits else NO if complete else UNKNOWN
            if complete:
                known.update(dict.fromkeys(orbit, verdict))
        if verdict == NO:
            report.fail(f"{member_name(cube)}: neighbor {member_name(neighbor)} "
                        f"has no symmetric member")
        elif verdict == UNKNOWN:
            report.fail(f"{member_name(cube)}: neighbor {member_name(neighbor)} "
                        f"orbit exceeded the limit {limit} before any member "
                        f"was found")
    return report


def expand_mod_sym_to_ssp(formula: CnfFormula, points, transport,
                          group: SymmetryGroup, limit: int = ORBIT_LIMIT):
    """Blow the representative set up to the union of its orbits.

    Each orbit member q = pi(p) gets the transport clause pi(g(p)); the
    result is a plain stable set. Raises OrbitLimitExceeded when the
    expansion would hold more than `limit` points. The formula maps the
    permuted clauses back to clause ids.
    """
    walker = _OrbitWalker(group, limit)
    expanded: dict[tuple, int] = {}
    n = group.num_vars
    for point in points:
        bits = point_bits(point)
        if bits_to_point(bits, n) in expanded:
            continue
        base_clause = formula.clause_by_id(transport[point])
        if base_clause is None:
            raise ValueError(f"transport id {transport[point]} not in formula")
        # Each image inherits its parent's clause moved by the generator.
        clauses = {bits: base_clause}
        for image, parent, gi in walker.walk(bits, clauses):
            if len(expanded) + len(clauses) >= limit:
                raise OrbitLimitExceeded(f"expansion exceeds {limit} points")
            clauses[image] = apply_perm_clause(group.generators[gi],
                                               clauses[parent])
        for member, clause in clauses.items():
            target = formula.find(clause.lits)
            if target is None:
                raise ValueError(
                    f"permuted transport clause {clause!r} not in formula")
            expanded[bits_to_point(member, n)] = target.cid
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
