"""Cubes: Cartesian products of non-empty {0,1} subsets, one per variable.

A cube is stored as two bitmasks over variables 1..n (bit v-1 for
variable v): `mask` marks the literal components, `val` holds their
values. A clear mask bit means the component is the full set {0,1}.
The conjunction form lists the literal components in ascending variable
order, e.g. "-2 -3" for the cube fixing x2=0, x3=0.
"""

from __future__ import annotations

from .core import Clause, bits_to_point, point_str, resolvable_on, resolve


class Cube:
    __slots__ = ("n", "mask", "val")

    def __init__(self, n: int, mask: int = 0, val: int = 0):
        if n < 0:
            raise ValueError("cube arity must be >= 0")
        if mask >> n:
            raise ValueError("literal component above cube arity")
        if val & ~mask:
            raise ValueError("value bits outside literal components")
        self.n = n
        self.mask = mask
        self.val = val

    @classmethod
    def full(cls, n: int) -> "Cube":
        """The all-{0,1} cube covering the whole space."""
        return cls(n, 0, 0)

    @classmethod
    def from_literals(cls, lits, n: int) -> "Cube":
        mask = val = 0
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            v = abs(lit)
            if v > n:
                raise ValueError(f"variable x{v} above cube arity {n}")
            bit = 1 << (v - 1)
            if mask & bit and bool(val & bit) != (lit > 0):
                raise ValueError(f"conflicting literals for x{v}")
            mask |= bit
            if lit > 0:
                val |= bit
        return cls(n, mask, val)

    @classmethod
    def from_point(cls, point) -> "Cube":
        mask = (1 << len(point)) - 1
        val = 0
        for i, bit_value in enumerate(point):
            if bit_value:
                val |= 1 << i
        return cls(len(point), mask, val)

    def literals(self):
        """Signed literals of the literal components, ascending by variable."""
        out = []
        for i in range(self.n):
            bit = 1 << i
            if self.mask & bit:
                out.append(i + 1 if self.val & bit else -(i + 1))
        return tuple(out)

    @property
    def free_mask(self) -> int:
        return ~self.mask & ((1 << self.n) - 1)

    def free_count(self) -> int:
        return self.n - self.mask.bit_count()

    def count_points(self) -> int:
        return 1 << self.free_count()

    def is_point(self) -> bool:
        return self.free_count() == 0

    def to_point(self):
        if not self.is_point():
            raise ValueError("cube has free variables, not a single point")
        return bits_to_point(self.val, self.n)

    def points_bits(self):
        """Iterate the packed points of the cube in increasing bit order."""
        free = [i for i in range(self.n) if not self.mask & (1 << i)]
        for k in range(1 << len(free)):
            bits = self.val
            for j, i in enumerate(free):
                if k & (1 << j):
                    bits |= 1 << i
            yield bits

    def points(self):
        for bits in self.points_bits():
            yield bits_to_point(bits, self.n)

    def contains(self, inner: "Cube") -> bool:
        """True when every component of inner is a subset of ours."""
        return (self.mask & ~inner.mask) == 0 and \
            ((self.val ^ inner.val) & self.mask) == 0

    def intersects(self, other: "Cube") -> bool:
        return ((self.val ^ other.val) & self.mask & other.mask) == 0

    def split(self, var: int):
        """The two halves fixing variable var to 0 and to 1, in that order."""
        bit = 1 << (var - 1)
        if var < 1 or var > self.n:
            raise ValueError(f"variable x{var} outside cube arity {self.n}")
        if self.mask & bit:
            raise ValueError(f"cannot split on literal component x{var}")
        return (Cube(self.n, self.mask | bit, self.val),
                Cube(self.n, self.mask | bit, self.val | bit))

    def nbhd_dir(self, var: int) -> "Cube":
        """1-neighborhood cube in direction var: the literal component flipped."""
        bit = 1 << (var - 1)
        if var < 1 or var > self.n:
            raise ValueError(f"variable x{var} outside cube arity {self.n}")
        if not self.mask & bit:
            raise ValueError(f"x{var} is a free component, not a literal")
        return Cube(self.n, self.mask, self.val ^ bit)

    def to_text(self, pretty: bool = False) -> str:
        lits = self.literals()
        if pretty:
            if not lits:
                return "T"
            return " ".join(f"x{l}" if l > 0 else f"¬x{-l}" for l in lits)
        return " ".join(str(l) for l in lits)

    def __eq__(self, other):
        return isinstance(other, Cube) and \
            (self.n, self.mask, self.val) == (other.n, other.mask, other.val)

    def __hash__(self):
        return hash((self.n, self.mask, self.val))

    def __repr__(self):
        return f"Cube({self.to_text() or 'T'}, n={self.n})"


def unsat_cube(clause: Clause, num_vars: int) -> Cube:
    """The cube of all points falsifying the clause.

    Each clause variable is pinned to the value falsifying its literal;
    everything else stays free. The empty clause gives the full cube.
    """
    if clause.max_var() > num_vars:
        raise ValueError(f"clause {clause!r} exceeds arity {num_vars}")
    return Cube(num_vars, clause.fmask, clause.fval)


def cube_falsifies(cube: Cube, clause: Clause) -> bool:
    """True when every point of the cube falsifies the clause."""
    return unsat_cube(clause, cube.n).contains(cube)


def cube_satisfies(cube: Cube, clause: Clause) -> bool:
    """True when every point of the cube satisfies the clause."""
    return not unsat_cube(clause, cube.n).intersects(cube)


def cube_nbhd(cube: Cube, clause: Clause):
    """1-neighborhood cubes of a falsifying cube, one per clause variable."""
    if not cube_falsifies(cube, clause):
        raise ValueError("cube neighborhood requires a cube falsifying the clause")
    return [cube.nbhd_dir(abs(l)) for l in clause.lits]


def member_name(cube: Cube) -> str:
    """How failure messages name a member: `point 0101` or `cluster -2 -3`."""
    if cube.is_point():
        return "point " + point_str(cube.to_point())
    return "cluster " + (cube.to_text() or "T")


def unreached_neighbors(formula, clusters, transport, report):
    """The member half of the stability check, shared by every verifier.

    Reports on `report` each cluster whose transport id is missing, not
    in the formula, or names a clause the cluster does not falsify. For
    every other cluster, yields (cluster, clause id, neighbor) for each
    neighborhood cube through the transport clause that is not itself a
    member; the caller judges whether the set reaches it.
    """
    members = dict.fromkeys(clusters)
    if not members:
        raise ValueError("a stable set must be non-empty")
    for cube in members:
        cid = transport.get(cube)
        if cid is None:
            report.fail(f"{member_name(cube)}: no transport clause")
            continue
        clause = formula.clause_by_id(cid)
        if clause is None:
            report.fail(f"{member_name(cube)}: transport id {cid} not in formula")
            continue
        if not cube_falsifies(cube, clause):
            report.fail(f"{member_name(cube)}: does not falsify clause {cid}")
            continue
        for neighbor in cube_nbhd(cube, clause):
            if neighbor not in members:
                yield cube, cid, neighbor


def merge(p1: Cube, p2: Cube, pivot: int, c1: Clause, c2: Clause):
    """Merge two cubes falsifying clauses resolvable on pivot.

    Returns (merged cube, resolvent clause) or None when inapplicable.
    The merged cube is the component-wise union, which is valid exactly
    when both cubes falsify every literal of the resolvent; that check is
    part of the precondition, so failure is a normal fall-through for the
    caller, not an error.
    """
    if p1.n != p2.n:
        raise ValueError("cube arity mismatch")
    if resolvable_on(c1, c2) != pivot:
        return None
    if not (cube_falsifies(p1, c1) and cube_falsifies(p2, c2)):
        return None
    # Falsifying resolvable clauses already pins the pivot components to
    # opposite values, so no separate pivot check is needed.
    resolvent = resolve(c1, c2, pivot)
    if not (cube_falsifies(p1, resolvent) and cube_falsifies(p2, resolvent)):
        return None
    mask = p1.mask & p2.mask & ~(p1.val ^ p2.val)
    merged = Cube(p1.n, mask, p1.val & mask)
    return merged, resolvent
