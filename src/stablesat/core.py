"""Propositional basics: clauses, CNF formulas, points, resolution.

Literals are signed DIMACS-style integers (3 means x3, -3 means not-x3).
A point is a complete assignment, stored as a tuple of 0/1 ints indexed
by variable - 1. Variable indices are 1-based externally; bit positions
used internally are variable - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Point = tuple


class Clause:
    """A disjunction of literals, kept sorted by variable index.

    Duplicate literals collapse. A clause holding both polarities of one
    variable is tautological and rejected at construction. Equality and
    hashing use the literal set only, so learned duplicates are detectable
    regardless of id.
    """

    __slots__ = ("lits", "cid", "fmask", "fval")

    def __init__(self, lits, cid: int = 0):
        seen = {}
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            v = abs(lit)
            if seen.get(v, lit) != lit:
                raise ValueError(f"tautological clause: both polarities of x{v}")
            seen[v] = lit
        self.lits = tuple(sorted(seen.values(), key=abs))
        self.cid = cid
        # Bit view of Unsat(C): fmask marks the clause variables, fval holds
        # the falsifying value of each (1 exactly for negative literals).
        fmask = fval = 0
        for lit in self.lits:
            bit = 1 << (abs(lit) - 1)
            fmask |= bit
            if lit < 0:
                fval |= bit
        self.fmask = fmask
        self.fval = fval

    def variables(self):
        return tuple(abs(l) for l in self.lits)

    def max_var(self) -> int:
        return abs(self.lits[-1]) if self.lits else 0

    def __len__(self):
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __eq__(self, other):
        return isinstance(other, Clause) and self.lits == other.lits

    def __hash__(self):
        return hash(self.lits)

    def __repr__(self):
        body = " ".join(str(l) for l in self.lits) or "<empty>"
        return f"Clause({body}, id={self.cid})"


class CnfFormula:
    """An ordered clause list over num_vars variables.

    Clause ids are 1-based list positions and stay stable as learned
    clauses are appended. original_count marks the input/learned boundary.
    """

    def __init__(self, num_vars: int, clause_lits=()):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        self.num_vars = num_vars
        self.clauses: list[Clause] = []
        self._by_lits: dict[tuple, Clause] = {}
        # Slot 2(v-1)+b lists, in id order, the clauses holding the literal
        # that x_v = b falsifies: x_v for b = 0, -x_v for b = 1.
        self.occurs: list[list[Clause]] = [[] for _ in range(2 * num_vars)]
        for lits in clause_lits:
            self._register(Clause(lits, cid=len(self.clauses) + 1))
        self.original_count = len(self.clauses)

    def _register(self, clause: Clause) -> Clause:
        if clause.max_var() > self.num_vars:
            raise ValueError(
                f"clause {clause!r} uses a variable above num_vars={self.num_vars}")
        self.clauses.append(clause)
        self._by_lits.setdefault(clause.lits, clause)
        for lit in clause.lits:
            self.occurs[2 * abs(lit) - 2 + (lit < 0)].append(clause)
        return clause

    def learn(self, lits):
        """Append a learned clause unless its literal set already exists.

        Returns (clause, created); created is False when an equal clause
        was already present, in which case that clause is returned.
        """
        clause = Clause(lits, cid=len(self.clauses) + 1)
        existing = self._by_lits.get(clause.lits)
        if existing is not None:
            return existing, False
        return self._register(clause), True

    def find(self, lits):
        """Look up a clause by literal set; None when absent."""
        try:
            probe = Clause(lits)
        except ValueError:
            return None
        return self._by_lits.get(probe.lits)

    def clause_by_id(self, cid: int):
        if 1 <= cid <= len(self.clauses):
            return self.clauses[cid - 1]
        return None

    def falsified(self, mask: int, val: int, start: int = 0):
        """Clauses every point of the cube (mask, val) falsifies, in order,
        among the clauses after the first `start`."""
        return falsified_among(self.clauses[start:] if start else self.clauses,
                               mask, val)

    def meeting(self, mask: int, val: int, start: int = 0):
        """Clauses some point of the cube (mask, val) falsifies, in order,
        among the clauses after the first `start`."""
        return meeting_among(self.clauses[start:] if start else self.clauses,
                             mask, val)

    @property
    def learned(self):
        return self.clauses[self.original_count:]

    def copy(self) -> "CnfFormula":
        dup = CnfFormula(self.num_vars)
        dup.clauses = list(self.clauses)
        dup._by_lits = dict(self._by_lits)
        dup.occurs = [list(occ) for occ in self.occurs]
        dup.original_count = self.original_count
        return dup

    def __len__(self):
        return len(self.clauses)

    def __repr__(self):
        return f"CnfFormula(n={self.num_vars}, clauses={len(self.clauses)})"


def falsified_among(clauses, mask: int, val: int):
    """Those of `clauses` every point of the cube (mask, val) falsifies, in
    their order: the cube lies inside Unsat(C), each clause variable is
    pinned to its falsifying value. A point is the cube with every
    variable pinned."""
    free = ~mask
    # The value test goes first: it rejects most clauses of a point.
    return [c for c in clauses
            if val & c.fmask == c.fval and not c.fmask & free]


def meeting_among(clauses, mask: int, val: int):
    """Those of `clauses` some point of the cube (mask, val) falsifies, in
    their order: the cube meets Unsat(C), no pinned variable satisfies the
    clause. With one bit as `mask`, the test reads that variable alone."""
    return [c for c in clauses if not (c.fval ^ val) & c.fmask & mask]


def point_bits(point) -> int:
    """Pack a point tuple into an int with variable i at bit i-1."""
    bits = 0
    for i, v in enumerate(point):
        if v:
            bits |= 1 << i
    return bits


def bits_to_point(bits: int, num_vars: int):
    return tuple((bits >> i) & 1 for i in range(num_vars))


def point_str(point) -> str:
    """Render a point the way the variable order reads, x1 first."""
    return "".join(str(v) for v in point)


def parse_point(text: str):
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a 0/1 point string: {text!r}")
    return tuple(int(ch) for ch in text)


def _check_arity(clause: Clause, point):
    if clause.max_var() > len(point):
        raise ValueError(
            f"point of length {len(point)} cannot evaluate clause {clause!r}")


def evaluate_clause(clause: Clause, point) -> bool:
    """True when the point satisfies the clause (some literal agrees).

    The empty clause is falsified by every point.
    """
    _check_arity(clause, point)
    return any((point[abs(l) - 1] == 1) == (l > 0) for l in clause.lits)


def resolvable_on(c1: Clause, c2: Clause):
    """The unique clash variable of two clauses, or None.

    None covers both no clash and two or more clashes (the latter would
    only produce tautological resolvents).
    """
    # A clash variable is in both clauses with differing falsifying values.
    clash = c1.fmask & c2.fmask & (c1.fval ^ c2.fval)
    if clash == 0 or clash & (clash - 1):
        return None
    return clash.bit_length()


def resolve(c1: Clause, c2: Clause, pivot: int) -> Clause:
    """Resolvent of c1 and c2 on pivot: all their literals minus the pivot's."""
    if resolvable_on(c1, c2) != pivot:
        raise ValueError(f"clauses do not clash exactly on x{pivot}")
    lits = {l for l in c1.lits if abs(l) != pivot}
    lits.update(l for l in c2.lits if abs(l) != pivot)
    return Clause(lits)


def point_nbhd(point, clause: Clause):
    """1-neighborhood of a falsifying point: flip each clause variable.

    One point per literal, ordered by ascending variable index.
    """
    _check_arity(clause, point)
    if evaluate_clause(clause, point):
        raise ValueError("1-neighborhood requires a point falsifying the clause")
    out = []
    for lit in clause.lits:
        i = abs(lit) - 1
        out.append(point[:i] + (1 - point[i],) + point[i + 1:])
    return out


@dataclass
class VerifyReport:
    """Outcome of a certificate check; falsy when any condition failed."""

    ok: bool = True
    failures: list = field(default_factory=list)

    def fail(self, message: str):
        self.ok = False
        self.failures.append(message)

    def __bool__(self):
        return self.ok
