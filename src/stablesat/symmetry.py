"""Permutational symmetry: orbits, the stable-modulo-symmetry engine,
orbit expansion back to a plain stable set, and pigeon-hole formulas.

A permutation acts on variable indices; applying it to a point pushes
values forward (output[pi(i)] = input[i]) and applying it to a clause
relabels variables keeping polarities. With that pairing, a point
falsifies a clause exactly when its image falsifies the image clause,
which is all the stability arguments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, pairwise
from operator import getitem

from .core import Clause, CnfFormula, VerifyReport, cycle_text, parse_cycles
from .cubes import (Cube, _cube, checked_members, member_name,
                    unreached_neighbors)
from .ssp import SspConfig, SspResult, gen_ssp

ORBIT_LIMIT = 10 ** 6
# Bytes the orbit walker's lookup tables may take (see table_bytes): a
# symmetry file or proof that needs more is refused before any is built.
TABLE_LIMIT = 64 * 2 ** 20


class OrbitLimitExceeded(ValueError):
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
    def from_cycles(cls, cycles, n: int) -> "Permutation":
        """Build from cycle lists, e.g. [[1, 4], [2, 5]] over n variables."""
        images = list(range(1, n + 1))
        placed = set()
        for cycle in cycles:
            for v in cycle:
                if not 1 <= v <= n:
                    raise ValueError(f"cycle element x{v} outside 1..{n}")
                # (1 3)(3 5) is a product, not a permutation in cycle form.
                if v in placed:
                    raise ValueError(f"x{v} appears twice; cycles must be "
                                     f"disjoint")
                placed.add(v)
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
        return cycle_text(self.cycles())

    def inverse(self) -> "Permutation":
        """The permutation that maps each image back to its variable."""
        images = [0] * self.n
        for v, image in enumerate(self.images, start=1):
            images[image - 1] = v
        return Permutation(images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.to_cycle_text()}, n={self.n})"


def table_bytes(generators: int, num_vars: int) -> int:
    """About the bytes of the orbit walker's lookup tables (_byte_tables):
    256 entries per 8-bit chunk of a point, each a list slot and an int
    of generators * num_vars bits (CPython keeps 30 bits in 4 bytes). It
    errs high."""
    return 256 * -(-num_vars // 8) * (40 + generators * num_vars // 7)


def _check_table_size(generators: int, num_vars: int, copies: int = 1):
    size = copies * table_bytes(generators, num_vars)
    if size > TABLE_LIMIT:
        raise ValueError(
            f"{generators} generators over {num_vars} variables need about "
            f"{size / 2 ** 20:.0f} MB of orbit tables, over the limit of "
            f"{TABLE_LIMIT / 2 ** 20:.0f} MB")


@dataclass
class SymmetryGroup:
    generators: list
    num_vars: int

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.num_vars:
                raise ValueError("generator arity mismatch")
        _check_table_size(len(self.generators), self.num_vars)


def group_from_cycles(cycle_lists, num_vars: int) -> SymmetryGroup:
    """The group generated by one permutation per list of cycles. A list
    too long for the table limit is refused before any permutation is
    built: `()` is two characters of text and n ints as a permutation."""
    _check_table_size(len(cycle_lists), num_vars)
    return SymmetryGroup([Permutation.from_cycles(cycles, num_vars)
                          for cycles in cycle_lists], num_vars)


def parse_symmetry_file(text: str, num_vars: int) -> SymmetryGroup:
    """One permutation per non-comment line, in cycle notation."""
    lines = (raw.strip() for raw in text.splitlines())
    return group_from_cycles([parse_cycles(line) for line in lines
                              if line and not line.startswith(("#", "c"))],
                             num_vars)


def format_symmetry_file(group: SymmetryGroup) -> str:
    return "".join(g.to_cycle_text() + "\n" for g in group.generators)


def _bit_images(perm: Permutation) -> list:
    """The image bit of each variable's bit under the permutation."""
    return [1 << (v - 1) for v in perm.images]


def is_symmetric(formula: CnfFormula, perm: Permutation) -> bool:
    """True when the permuted formula has exactly the same clause multiset.

    A clause's image is its bits pushed through the permutation, literal
    polarities kept: a bijection makes no duplicate literal and no
    tautology."""
    if perm.n != formula.num_vars:
        return False
    bit_images = _bit_images(perm)
    original: dict[tuple, int] = {}
    for clause in formula.clauses:
        key = clause.fmask, clause.fval
        original[key] = original.get(key, 0) + 1
    for clause in formula.clauses:
        # Both masks in one walk, as `_pushed` would push each: a third
        # faster than two calls of it on the pigeon-hole formulas.
        mask = val = 0
        rest, neg = clause.fmask, clause.fval
        while rest:
            low = rest & -rest
            image = bit_images[low.bit_length() - 1]
            mask |= image
            if neg & low:
                val |= image
            rest ^= low
        key = mask, val
        count = original.get(key, 0)
        if not count:
            return False
        original[key] = count - 1
    return True


def _byte_tables(generators, n: int):
    """Lookup tables that push a packed point through every generator a
    byte at a time: entry b of table k holds the images of the bits
    b << 8k, generator i's at bits i*n to i*n + n - 1. Entry b is entry b
    minus its lowest bit, plus that bit's images, so a table costs one
    step per entry."""
    size = -(-len(generators) * n // 8)
    tables = []
    for shift in range(0, n, 8):
        images = []
        for v in range(shift, min(shift + 8, n)):
            packed = bytearray(size)
            for gi, g in enumerate(generators):
                bit = gi * n + g.images[v] - 1
                packed[bit >> 3] |= 1 << (bit & 7)
            images.append(int.from_bytes(packed, "little"))
        table = [0] * (1 << len(images))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] | images[low.bit_length() - 1]
        tables.append(table)
    return tables


class _OrbitWalker:
    """Breadth-first walks over generator applications, on packed points.
    One table sum per point gives its images under every generator;
    generator i's is the n-bit slice at i*n."""

    def __init__(self, group: SymmetryGroup):
        n = group.num_vars
        self.group = group
        self.tables = _byte_tables(group.generators, n)
        self.nbytes = len(self.tables)
        self.offsets = [gi * n for gi in range(len(group.generators))]
        self.full = (1 << n) - 1
        # bits * spread copies bits into every generator's slice.
        self.spread = sum(1 << offset for offset in self.offsets)

    @cached_property
    def inverse_tables(self):
        """The tables of the inverse generators, built at the first read:
        the forward tables themselves when every generator is an
        involution, as every pigeon-hole swap is."""
        inverses = [g.inverse() for g in self.group.generators]
        if inverses == self.group.generators:
            return self.tables
        return _byte_tables(inverses, self.group.num_vars)

    def fixes(self, bits: int) -> bool:
        """Whether every generator maps bits onto itself: its orbit is
        bits alone."""
        images = sum(map(getitem, self.tables,
                         bits.to_bytes(self.nbytes, "little")))
        return images == bits * self.spread

    def walk(self, bits: int, seen, inverse: bool = False):
        """Breadth-first walk of the orbit of bits. Yields (image, parent,
        generator index) for each image not in `seen`; the caller adds it.
        The image is the generator's image of the parent, or with
        `inverse` its preimage: then the parent is the image's image."""
        tables = self.inverse_tables if inverse else self.tables
        nbytes, offsets, full = self.nbytes, self.offsets, self.full
        frontier = [bits]
        while frontier:
            nxt = []
            for b in frontier:
                # The bytes' images have disjoint bits: the sum is their OR.
                images = sum(map(getitem, tables, b.to_bytes(nbytes, "little")))
                for gi, offset in enumerate(offsets):
                    image = images >> offset & full
                    if image not in seen:
                        yield image, b, gi
                        nxt.append(image)
            frontier = nxt


def _orbit_key(clauses, bits: int) -> tuple:
    """An orbit invariant of the packed point: its true-literal count in
    each clause, sorted. A symmetry maps the clause multiset onto itself
    and the point's true literals onto its image's, so every point of an
    orbit has one key; points with different keys lie in different
    orbits."""
    return tuple(sorted(((bits ^ c.fval) & c.fmask).bit_count()
                        for c in clauses))


def _meet(walker, walks, links, walked, bits: int, limit: int) -> bool:
    """Link `bits` to a linked point of its orbit, if the orbit has one;
    return whether it did.

    A breadth-first search from bits over the inverse generators takes
    one step, then the suspended walks one step, each in turn, adding
    every walk step to `links` and to `walked`, the walks' seen set. A
    search that meets a linked point y links its path bits -> ... -> y,
    each point to the one it was reached from, its image under some
    generator, from bits' end up to the first path point already linked.
    A search that exhausts the orbit meets no point: the orbit has no
    root. A search cut at `limit` points proves nothing, and bits is then
    linked only by a walk; once every walk is done (a finished walk is
    dropped) it is not linked."""
    back = {bits: bits}    # search point -> the point it was reached from
    search = islice(walker.walk(bits, back, inverse=True), limit - 1)
    i = 0
    while walks:
        if search is not None:
            step = next(search, None)
            if step is not None:
                image, parent, _ = step
                if image in links:
                    path = [image, parent]
                    while path[-1] != bits:
                        path.append(back[path[-1]])
                    for child, parent in pairwise(reversed(path)):
                        if child in links:
                            break
                        links[child] = parent
                    return True
                back[image] = parent
            elif len(back) < limit:
                return False
            else:
                search = None
        i %= len(walks)
        step = next(walks[i], None)
        if step is None:
            del walks[i]
        else:
            image, parent, _ = step
            links[image] = parent
            walked.add(image)
            if image == bits:
                return True
            i += 1
    return False


def gen_ssp_mod_symmetry(formula: CnfFormula, group: SymmetryGroup,
                         init: Cube | None = None,
                         orbit_limit: int = ORBIT_LIMIT) -> SspResult:
    """Point engine that skips neighbors already represented up to symmetry.
    It starts from `init`, a one-point cube, as `gen_ssp` does.

    A neighborhood point is dropped when some reached point lies in its
    orbit, so the result is stable modulo the group: its existence still
    proves unsatisfiability. Every generator must leave the formula's
    clause multiset unchanged.

    Orbits are searched only as far as the engine's queries need. The
    first point the engine meets of an orbit starts a breadth-first walk
    that is suspended at once and filed under the point's orbit key
    (`_orbit_key`), which is the same on a whole orbit; a point every
    generator fixes is an orbit alone and starts none. A later point not
    yet linked, under a key with running walks, is met halfway
    (`_meet`): a search from it over the inverse generators alternates
    with one step of each of those walks, until the search meets a
    linked point, a walk reaches the point, or the search exhausts its
    orbit or every walk is done; in the last two cases it starts a walk
    of its own. `result.links` maps each linked point to the point it
    was reached from, which some generator maps onto it, and a walk's
    start to itself; the links form a forest. A point's representative
    is that start, the root of its links, and the engine pushes it, so on
    UNSAT every root is a member. The walks keep their own seen set, so a
    search's links never stop one; a walk that reaches a searched point
    relinks it towards the same root. So each point's root, and with it
    every representative, transport and proof, is that of walking every
    orbit whole.

    A walk stops after orbit_limit points, its start included, and a
    search visits at most orbit_limit points. A cut walk keeps the links
    it has made: each is a generator step back towards its start, a
    member, so the result is still stable modulo the group, and the
    orbit's later points start walks of their own. A search may still
    meet the points such a walk linked, so under a binding limit the
    representatives can be fewer than with walks alone, never unsound.
    A group with a generator that is no involution needs inverse tables
    too, and is refused when both sets together exceed `TABLE_LIMIT`.
    """
    for gen in group.generators:
        if not is_symmetric(formula, gen):
            raise ValueError(f"formula is not symmetric under {gen!r}")
    if orbit_limit < 1:
        raise ValueError("orbit limit must be positive")
    if any(g.inverse() != g for g in group.generators):
        _check_table_size(len(group.generators), group.num_vars, copies=2)
    walker = _OrbitWalker(group)
    links: dict[int, int] = {}
    walked: set[int] = set()          # the walks' seen set
    running: dict[tuple, list] = {}   # orbit key -> suspended walks

    def canonical(bits: int) -> int:
        if bits not in links:
            if walker.fixes(bits):   # an orbit of one point needs no walk
                links[bits] = bits
                return bits
            walks = running.setdefault(_orbit_key(formula.clauses, bits), [])
            if not _meet(walker, walks, links, walked, bits, orbit_limit):
                links[bits] = bits
                walked.add(bits)
                walks.append(islice(walker.walk(bits, walked), orbit_limit - 1))
                return bits
        parent = links[bits]
        while parent != bits:
            bits, parent = parent, links[parent]
        return bits

    result = gen_ssp(formula, init, SspConfig(canonical=canonical))
    result.links = links
    return result


def _pushed(bit_images, bits: int) -> int:
    """Push a packed point through one generator, given as the image bit
    of each variable's bit; bits above the arity are dropped."""
    bits &= (1 << len(bit_images)) - 1
    image = 0
    while bits:
        low = bits & -bits
        image |= bit_images[low.bit_length() - 1]
        bits ^= low
    return image


def _replayed_start(links, bits: int, bit_images, replayed):
    """Follow parent links from `bits` to the start of its walk, the
    first point linked to itself or not linked at all, and return that
    start; None when some link is no generator step or the links cycle.
    Each link is checked by pushing the parent through every generator's
    `bit_images` (one list per generator, built from its images), not
    through the walker's tables; `replayed` remembers the links already
    checked (child -> parent)."""
    for _ in range(len(links) + 1):
        parent = links.get(bits, bits)
        if parent == bits:
            return bits
        if replayed.get(bits) != parent:
            if not any(_pushed(images, parent) == bits
                       for images in bit_images):
                return None
            replayed[bits] = parent
        bits = parent
    return None


def verify_stable_mod_symmetry(formula: CnfFormula, points, transport,
                               group: SymmetryGroup, links) -> VerifyReport:
    """Check stability modulo the group: every neighbor is in the set or
    symmetric to a member. The members are one-point cubes.

    The check walks no orbit: it replays `links` (point -> parent point),
    as `gen_ssp_mod_symmetry` returns them. Every generator must map the
    formula onto itself; otherwise the check fails before any link is
    read. A neighbor that is not a member must follow its links to a
    member, and each link it follows must be some generator's image,
    pushed bit by bit from the generator's images (not the walker's
    tables), so the check is sound for any links: a forged link or a
    cycle of links fails it. It accepts the engine's own links, whose
    roots are all members."""
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
    replayed: dict[int, int] = {}  # links checked by _replayed_start
    bit_images = [_bit_images(g) for g in group.generators]
    members = checked_members(formula, points, transport, report)
    for cube, cid, neighbor in unreached_neighbors(members):
        start = _replayed_start(links, neighbor.val, bit_images, replayed)
        if start is None:
            failure = "reaches no member by generator steps"
        elif start not in member_bits:
            failure = "has no symmetric member"
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
    `limit` points, and ValueError on a member that is not a point or a
    transport clause the formula lacks. The formula maps the permuted
    clauses back to clause ids; representatives keep theirs. Nothing
    else is checked: `verify_ssc` judges the result.
    """
    walker = _OrbitWalker(group)
    n = group.num_vars
    expanded: dict[Cube, int] = {}
    full = (1 << n) - 1
    bit_images = [_bit_images(g) for g in group.generators]
    images: dict[tuple[int, int], int] = {}   # (generator, id) -> image id

    def image_id(gi: int, cid: int) -> int:
        if (gi, cid) not in images:
            clause = formula.clause_by_id(cid)
            if clause.fmask >> n:
                raise ValueError("clause arity mismatch")
            # The image's bits, pushed through the generator as in
            # is_symmetric; the duplicate table maps them to the clause.
            mask = _pushed(bit_images[gi], clause.fmask)
            val = _pushed(bit_images[gi], clause.fval)
            target = formula.find_bits(mask, val)
            if target is None:
                raise ValueError(f"permuted transport clause "
                                 f"{Clause.from_unsat(mask, val)!r} not in "
                                 f"formula")
            images[gi, cid] = target.cid
        return images[gi, cid]

    for point in points:
        if point in expanded:
            continue
        if not point.is_point():
            raise ValueError(f"{member_name(point)}: not a point")
        if formula.clause_by_id(transport[point]) is None:
            raise ValueError(f"transport id {transport[point]} not in formula")
        if len(expanded) >= limit:   # the representative counts too
            raise OrbitLimitExceeded(f"expansion exceeds {limit} points")
        # Each image inherits its parent's clause moved by the generator.
        ids = {point.val: transport[point]}
        for image, parent, gi in walker.walk(point.val, ids):
            if len(expanded) + len(ids) >= limit:
                raise OrbitLimitExceeded(f"expansion exceeds {limit} points")
            ids[image] = image_id(gi, ids[parent])
        # Each member is a generator image of a checked point.
        for member, cid in ids.items():
            expanded[_cube(n, full, member)] = cid
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
