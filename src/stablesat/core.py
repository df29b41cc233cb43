"""Propositional basics: clauses, CNF formulas, the 0/1 row of a point
and the 0/1/- row of a cube, resolution, and the cycle notation of
variable permutations.

Literals are signed DIMACS-style integers (3 means x3, -3 means not-x3).
A point is a complete assignment, kept as a one-point `Cube` whose value
bits hold x_v at bit v - 1; `point_row` and `row_bits` write and read it
as text. `cube_row` and `row_masks` do the same for a cube's two
bitsets, `-` marking a free variable. Variable indices are 1-based
externally; bit positions used internally are variable - 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress

# Binary digits "0"/"1" as the bytes 0/1, selectors for itertools.compress.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def lits_to_masks(lits):
    """The variables occurring positively and negatively in `lits`, as two
    bitsets (bit v - 1 for variable v); 0 is refused. Each literal is a
    shift count, so bound one from outside the program first."""
    pos = neg = 0
    for lit in lits:
        if lit > 0:
            pos |= 1 << (lit - 1)
        elif lit:
            neg |= 1 << ~lit        # ~lit is -lit - 1
        else:
            raise ValueError("0 is not a literal")
    return pos, neg


def masks_to_lits(pos: int, neg: int) -> tuple:
    """The literals of two disjoint bitsets, ascending by variable: v for
    each variable of `pos`, -v for each of `neg`."""
    lits = []
    rest = pos | neg
    while rest:
        low = rest & -rest
        var = low.bit_length()
        lits.append(-var if neg & low else var)
        rest ^= low
    return tuple(lits)


class Clause:
    """A disjunction of literals, stored as the bits of its falsifying cube.

    `fmask` marks the clause variables and `fval` holds the falsifying
    value of each (1 exactly for negative literals); these bits are the
    clause. `lits`, its literals sorted by variable, is built from them at
    its first read and then kept. Duplicate literals collapse. A clause
    holding both polarities of one variable is tautological and rejected
    at construction. Equality, hashing, length and `max_var` read the bits
    only, so learned duplicates are detectable regardless of id.
    """

    __slots__ = ("fmask", "fval", "cid", "_lits")

    def __init__(self, lits, cid: int = 0):
        pos, neg = lits_to_masks(lits)
        if pos & neg:
            raise ValueError("tautological clause: both polarities of "
                             f"x{(pos & neg).bit_length()}")
        self.fmask = pos | neg
        self.fval = neg
        self.cid = cid
        self._lits = None

    @classmethod
    def from_unsat(cls, fmask: int, fval: int) -> "Clause":
        """The clause (id 0) whose falsifying cube pins the variables of
        `fmask` to their bits in `fval`."""
        if fval & ~fmask:
            raise ValueError("falsifying values outside the clause variables")
        clause = cls.__new__(cls)
        clause.fmask = fmask
        clause.fval = fval
        clause.cid = 0
        clause._lits = None
        return clause

    @property
    def lits(self) -> tuple:
        """The literals, ascending by variable."""
        if self._lits is None:
            self._lits = masks_to_lits(self.fmask ^ self.fval, self.fval)
        return self._lits

    def max_var(self) -> int:
        return self.fmask.bit_length()

    def __len__(self):
        return self.fmask.bit_count()

    def __iter__(self):
        return iter(self.lits)

    def __eq__(self, other):
        return isinstance(other, Clause) and self.fmask == other.fmask \
            and self.fval == other.fval

    def __hash__(self):
        return hash((self.fmask, self.fval))

    def __repr__(self):
        body = " ".join(str(l) for l in self.lits) or "<empty>"
        return f"Clause({body}, id={self.cid})"


class CnfFormula:
    """An ordered clause list over num_vars variables.

    Clause ids are 1-based list positions and stay stable as learned
    clauses are appended.
    `clause_lits` holds literal iterables or Clauses; a Clause no formula
    holds (id 0) is registered itself, as `learn` does.

    The occurrence index (`occurs`, `occ_bits`) is built at its first read.
    """

    def __init__(self, num_vars: int, clause_lits=()):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        self.num_vars = num_vars
        self.clauses: list[Clause] = []
        self._by_bits: dict[tuple, Clause] = {}   # (fmask, fval) -> first
        self._occurs = self._occ_bits = None
        for lits in clause_lits:
            fresh = isinstance(lits, Clause) and not lits.cid
            self._register(lits if fresh else self._clause(lits))

    def _clause(self, lits) -> Clause:
        """The Clause of a literal iterable, refused before the codec
        shifts by a literal when one is above num_vars."""
        lits = tuple(lits)
        if lits and max(map(abs, lits)) > self.num_vars:
            raise self._too_wide(" ".join(map(str, sorted(set(lits), key=abs))))
        return Clause(lits)

    def _too_wide(self, shown: str) -> ValueError:
        """The refusal of a clause, shown by its literals, over a variable
        above num_vars."""
        return ValueError(f"clause Clause({shown}, id=0) uses a variable "
                         f"above num_vars={self.num_vars}")

    def _register(self, clause: Clause) -> Clause:
        """Append a clause no formula holds yet, giving it the next id."""
        if clause.max_var() > self.num_vars:
            raise self._too_wide(" ".join(map(str, clause.lits)))
        self.clauses.append(clause)
        clause.cid = len(self.clauses)
        self._by_bits.setdefault((clause.fmask, clause.fval), clause)
        if self._occurs is not None:
            _index(clause, self._occurs, self._occ_bits)
        return clause

    def _build_index(self):
        """Build the index whole, then publish it, `_occurs` last, so that
        `copy` never sees half of it."""
        occurs = [[] for _ in range(2 * self.num_vars)]
        occ_bits = [0] * (2 * self.num_vars)
        for clause in self.clauses:
            _index(clause, occurs, occ_bits)
        self._occ_bits = occ_bits
        self._occurs = occurs

    @property
    def occurs(self) -> list:
        """Slot 2(v-1)+b lists, in id order, the clauses holding the literal
        that x_v = b falsifies: x_v for b = 0, -x_v for b = 1."""
        if self._occurs is None:
            self._build_index()
        return self._occurs

    @property
    def occ_bits(self) -> list:
        """The clauses of each `occurs` slot as a bitset over ids, bit
        cid - 1."""
        if self._occ_bits is None:
            self._build_index()
        return self._occ_bits

    def learn(self, lits):
        """Append a learned clause unless its literal set already exists.

        `lits` is a literal iterable or a Clause. A Clause no formula holds
        (id 0, as `resolve` builds it) is registered itself; one that a
        formula holds keeps its id there, and a new Clause is registered.
        Returns (clause, created); created is False when an equal clause
        was already present, in which case that clause is returned.
        """
        clause = lits if isinstance(lits, Clause) else self._clause(lits)
        existing = self._by_bits.get((clause.fmask, clause.fval))
        if existing is not None:
            return existing, False
        if clause.cid:
            clause = Clause.from_unsat(clause.fmask, clause.fval)
        return self._register(clause), True

    def find_bits(self, fmask: int, fval: int):
        """Look up a clause by its bits, as `Clause` keeps them; None when
        absent."""
        return self._by_bits.get((fmask, fval))

    def clause_by_id(self, cid: int):
        if 1 <= cid <= len(self.clauses):
            return self.clauses[cid - 1]
        return None

    def clauses_of(self, bits: int):
        """An iterator over the clauses a bitset over ids (bit cid - 1)
        holds, in id order: one C-level `compress` of the clause list by
        the bitset's binary digits, linear in the bitset's width."""
        digits = bin(bits)[:1:-1]     # digit i is bit i
        return compress(self.clauses, digits.encode().translate(_DIGIT_FLAGS))

    def falsified(self, mask: int, val: int):
        """Clauses every point of the cube (mask, val) falsifies, in order."""
        return falsified_among(self.clauses, mask, val)

    def meeting_bits(self, mask: int, val: int) -> int:
        """The clauses some point of the cube (mask, val) falsifies, as a
        bitset over ids (bit cid - 1): the cube meets Unsat(C) when no
        pinned variable satisfies the clause, so it is every id but those
        in the occurrence bitset of each literal a pin satisfies."""
        bits, occ_bits = (1 << len(self.clauses)) - 1, self.occ_bits
        while mask:
            low = mask & -mask
            bits &= ~occ_bits[2 * low.bit_length() - (2 if val & low else 1)]
            mask ^= low
        return bits

    def copy(self) -> "CnfFormula":
        dup = CnfFormula(self.num_vars)
        dup.clauses = list(self.clauses)
        dup._by_bits = dict(self._by_bits)
        if self._occurs is not None:
            dup._occurs = [list(occ) for occ in self._occurs]
            dup._occ_bits = list(self._occ_bits)
        return dup

    def __len__(self):
        return len(self.clauses)

    def __repr__(self):
        return f"CnfFormula(n={self.num_vars}, clauses={len(self.clauses)})"


def _index(clause: Clause, occurs: list, occ_bits: list):
    """File a registered clause in an occurrence index's lists, from its
    bits: slot 2(v-1) for x_v, 2(v-1)+1 for -x_v."""
    bit = 1 << (clause.cid - 1)
    rest, neg = clause.fmask, clause.fval
    while rest:
        low = rest & -rest
        slot = 2 * low.bit_length() - (1 if neg & low else 2)
        occurs[slot].append(clause)
        occ_bits[slot] |= bit
        rest ^= low


def falsified_among(clauses, mask: int, val: int):
    """Those of `clauses` every point of the cube (mask, val) falsifies, in
    their order: the cube lies inside Unsat(C), each clause variable is
    pinned to its falsifying value. A point is the cube with every
    variable pinned."""
    free = ~mask
    # The value test goes first: it rejects most clauses of a point.
    return [c for c in clauses
            if val & c.fmask == c.fval and not c.fmask & free]


def point_row(bits: int, n: int) -> str:
    """The 0/1 row of the point with value bits `bits` over n variables,
    x1 first, exactly n characters. A sentinel bit above x_n makes the
    binary string n + 1 digits, also for n = 0; reversed, the sentinel
    is dropped."""
    return format(bits | 1 << n, "b")[:0:-1]


def non_decimal_chars(text: str) -> bool:
    """Whether the text holds a character that int() reads inside a
    number but ASCII decimal lacks: '_' ('1_0') or a non-ASCII digit
    ('٣'). The readers refuse such text."""
    return "_" in text or not text.isascii()


def row_bits(text: str, n: int) -> int:
    """The value bits of a 0/1 row, x1 first; anything but exactly n
    characters of 0 and 1 is refused."""
    # int() alone would also read a sign, "_" or whitespace.
    if len(text) != n or text.strip("01"):
        raise ValueError(f"{text!r} is not a 0/1 string of {n} variables")
    return int(text[::-1] or "0", 2)


# A cube row's characters, from the base-16 digit sum of its two bitsets
# (0 free, 1 pinned to 0, 2 pinned to 1), and back to each bitset's digits.
_TERNARY_CHARS = str.maketrans("012", "-01")
_ROW_MASK = str.maketrans("-01", "011")
_ROW_VAL = str.maketrans("-", "0")


def cube_row(mask: int, val: int, n: int) -> str:
    """The 0/1/- row of the cube (mask, val) over n variables, x1 first,
    exactly n characters: `-` for a free variable, else its value. Each
    bitset's binary digits, read in base 16, put one bit in each hex
    digit, so their sum's hex digit v - 1 is x_v's character; a sentinel
    above x_n keeps n + 1 digits, also for n = 0, and is dropped."""
    digits = int(format(mask | 1 << n, "b"), 16) + int(format(val, "b"), 16)
    return format(digits, "x")[:0:-1].translate(_TERNARY_CHARS)


def row_masks(text: str, n: int):
    """The (mask, val) bitsets of a 0/1/- row, x1 first; anything but
    exactly n characters of -, 0 and 1 is refused."""
    # int() alone would also read a sign, "_" or whitespace.
    if len(text) != n or text.strip("-01"):
        raise ValueError(f"{text!r} is not a 0/1/- string of {n} variables")
    text = text[::-1] or "-"    # int() reads no empty string
    return int(text.translate(_ROW_MASK), 2), int(text.translate(_ROW_VAL), 2)


# One way to match each character, so a long bad line fails in linear time.
# ASCII: a Unicode \d would let int() read non-ASCII digits.
_CYCLES_RE = re.compile(r"(?:\([\d\s,]*\)\s*)+", re.ASCII)
_CYCLE_RE = re.compile(r"\(([^()]*)\)", re.ASCII)


def parse_cycles(text: str):
    """Cycle notation like '(1 4)(2 5)(3 6)' as lists of variables; `()`
    is the identity. Syntax only: the permutation checks the range."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation text")
    if _CYCLES_RE.fullmatch(stripped) is None:
        raise ValueError(f"bad cycle notation: {text!r}")
    return [[int(tok) for tok in body.replace(",", " ").split()]
            for body in _CYCLE_RE.findall(stripped) if body.strip()]


def cycle_text(cycles) -> str:
    """Cycle notation of cycle lists; `()` for none."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"


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
    # The clauses clash on the pivot alone, so the resolvent's bits are
    # theirs OR-ed, less the pivot bit.
    keep = ~(1 << (pivot - 1))
    return Clause.from_unsat((c1.fmask | c2.fmask) & keep,
                             (c1.fval | c2.fval) & keep)


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
