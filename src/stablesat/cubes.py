"""Cubes: Cartesian products of non-empty {0,1} subsets, one per variable.

A cube is stored as two bitmasks over variables 1..n (bit v-1 for
variable v): `mask` marks the literal components, `val` holds their
values. A clear mask bit means the component is the full set {0,1}.
The conjunction form lists the literal components in ascending variable
order, e.g. "-2 -3" for the cube fixing x2=0, x3=0.
"""

from __future__ import annotations

from .core import Clause, lits_to_masks, masks_to_lits, point_row


class Cube:
    __slots__ = ("n", "mask", "val", "_hash")

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
        # Cubes are never changed after construction, and they key the
        # engine's sets and maps: hash once.
        self._hash = hash((n, mask, val))

    @classmethod
    def full(cls, n: int) -> "Cube":
        """The all-{0,1} cube covering the whole space."""
        return cls(n, 0, 0)

    @classmethod
    def from_literals(cls, lits, n: int) -> "Cube":
        """The cube of some literals, each range-checked before it becomes
        a shift count."""
        lits = tuple(lits)      # read twice
        if lits and (max(lits) > n or min(lits) < -n):
            raise ValueError(f"variable x{max(map(abs, lits))} above cube "
                             f"arity {n}")
        pos, neg = lits_to_masks(lits)
        if pos & neg:
            raise ValueError(
                f"conflicting literals for x{(pos & neg).bit_length()}")
        return cls(n, pos | neg, pos)

    def literals(self):
        """Signed literals of the literal components, ascending by variable."""
        return masks_to_lits(self.val, self.mask ^ self.val)

    def free_count(self) -> int:
        return self.n - self.mask.bit_count()

    def is_point(self) -> bool:
        return self.free_count() == 0

    def split(self, var: int):
        """The two halves fixing variable var to 0 and to 1, in that order."""
        if var < 1 or var > self.n:
            raise ValueError(f"variable x{var} outside cube arity {self.n}")
        bit = 1 << (var - 1)
        if self.mask & bit:
            raise ValueError(f"cannot split on literal component x{var}")
        mask = self.mask | bit
        return _cube(self.n, mask, self.val), _cube(self.n, mask, self.val | bit)

    def nbhd_dir(self, var: int) -> "Cube":
        """1-neighborhood cube in direction var: the literal component flipped."""
        if var < 1 or var > self.n:
            raise ValueError(f"variable x{var} outside cube arity {self.n}")
        bit = 1 << (var - 1)
        if not self.mask & bit:
            raise ValueError(f"x{var} is a free component, not a literal")
        return Cube(self.n, self.mask, self.val ^ bit)

    def to_text(self) -> str:
        return " ".join(str(l) for l in self.literals())

    def __eq__(self, other):
        return isinstance(other, Cube) and self.val == other.val and \
            self.mask == other.mask and self.n == other.n

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cube({self.to_text() or 'T'}, n={self.n})"


def _cube(n: int, mask: int, val: int) -> Cube:
    """A Cube built without the range checks of `Cube.__init__`, for a
    cube derived from a valid one (a split half, a merge hull): the
    caller guarantees mask >> n == 0 and val & ~mask == 0. Every cube
    read from outside goes through `Cube` itself."""
    cube = object.__new__(Cube)
    cube.n = n
    cube.mask = mask
    cube.val = val
    cube._hash = hash((n, mask, val))
    return cube


def unsat_cube(clause: Clause, num_vars: int) -> Cube:
    """The cube of all points falsifying the clause.

    Each clause variable is pinned to the value falsifying its literal;
    everything else stays free. The empty clause gives the full cube.
    """
    if clause.max_var() > num_vars:
        raise ValueError(f"clause {clause!r} exceeds arity {num_vars}")
    return Cube(num_vars, clause.fmask, clause.fval)


def cube_falsifies(cube: Cube, clause: Clause) -> bool:
    """True when every point of the cube falsifies the clause: the cube
    pins every clause variable to its falsifying value."""
    if clause.fmask >> cube.n:
        raise ValueError(f"clause {clause!r} exceeds arity {cube.n}")
    return not clause.fmask & ~cube.mask and \
        cube.val & clause.fmask == clause.fval


def cube_satisfies(cube: Cube, clause: Clause) -> bool:
    """True when every point of the cube satisfies the clause: the cube
    pins some clause variable to its satisfying value, so it misses
    Unsat(C)."""
    if clause.fmask >> cube.n:
        raise ValueError(f"clause {clause!r} exceeds arity {cube.n}")
    return (cube.val ^ clause.fval) & cube.mask & clause.fmask != 0


def cube_nbhd(cube: Cube, clause: Clause):
    """1-neighborhood cubes of a falsifying cube, one per clause variable."""
    if not cube_falsifies(cube, clause):
        raise ValueError("cube neighborhood requires a cube falsifying the clause")
    return [cube.nbhd_dir(abs(l)) for l in clause.lits]


def member_name(cube: Cube) -> str:
    """How failure messages name a member: `point 0101` or `cluster -2 -3`."""
    if cube.is_point():
        return "point " + point_row(cube.val, cube.n)
    return "cluster " + (cube.to_text() or "T")


def checked_members(formula, clusters, transport, report) -> dict:
    """The member half of the stability check, shared by every verifier.

    Reports on `report` each cluster whose transport id is missing, not
    in the formula, or names a clause the cluster does not falsify.
    Returns the distinct clusters in order, each mapped to its transport
    clause, or to None when it failed. Clusters of mixed arity fail the
    certificate as a whole: the first cluster whose arity differs from
    the first cluster's is reported, and every cluster maps to None.
    """
    members = dict.fromkeys(clusters)
    if not members:
        raise ValueError("a stable set must be non-empty")
    n = next(iter(members)).n
    for cube in members:
        if cube.n != n:
            report.fail(f"{member_name(cube)}: arity {cube.n}, the first "
                        f"member's is {n}")
            return dict.fromkeys(members)
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
        members[cube] = clause
    return members


def unreached_neighbors(members: dict):
    """The neighbour half of the stability check, on `checked_members`.

    Yields (cluster, clause id, neighbor) for each neighborhood cube of a
    cluster that passed, through its transport clause, that is not itself
    a member, in member order and then by ascending clause variable; the
    caller judges whether the set reaches it.

    Membership is one set lookup per neighbour on packed ints: a member's
    key is mask << n | val, equal for two cubes of one arity exactly when
    the cubes are equal (`checked_members` refuses mixed arities), and
    the neighbour in direction v is its member's key with bit v-1 of the
    value flipped. A neighbour Cube is built only for a non-member.
    """
    n = next(iter(members)).n
    keys = {cube.mask << n | cube.val for cube in members}
    for cube, clause in members.items():
        if clause is None:
            continue
        # The flip of a pinned bit of a checked member is a valid cube, and
        # checked_members already made cube_nbhd's falsify test.
        mask, val = cube.mask, cube.val
        key, rest = mask << n | val, clause.fmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if key ^ bit not in keys:
                yield cube, clause.cid, _cube(n, mask, val ^ bit)


def merge(p1: Cube, p2: Cube, pivot: int, c1: Clause, c2: Clause):
    """Merge two cubes falsifying clauses resolvable on pivot.

    Returns (merged cube, resolvent clause) or None when inapplicable.
    The merged cube is the component-wise union, which is valid exactly
    when both cubes falsify every literal of the resolvent; that check is
    part of the precondition, so failure is a normal fall-through for the
    caller, not an error. The precondition is decided on bits, and the
    resolvent is built from the clauses' bits only for a merge that
    happens: its falsifying cube pins both clauses' variables but the
    pivot.
    """
    if p1.n != p2.n:
        raise ValueError("cube arity mismatch")
    bit = 1 << (pivot - 1)
    if c1.fmask & c2.fmask & (c1.fval ^ c2.fval) != bit:
        return None   # the clauses do not clash exactly on pivot
    # Each cube lies inside Unsat of its own clause and of the resolvent:
    # it pins every variable of both clauses, each to its falsifying value
    # (the pivot to its own clause's).
    need = c1.fmask | c2.fmask
    if need & ~(p1.mask & p2.mask):
        return None
    rval = (c1.fval | c2.fval) & ~bit
    if p1.val & need != rval | c1.fval & bit or \
            p2.val & need != rval | c2.fval & bit:
        return None
    mask = p1.mask & p2.mask & ~(p1.val ^ p2.val)
    return (_cube(p1.n, mask, p1.val & mask),
            Clause.from_unsat(need & ~bit, rval))
