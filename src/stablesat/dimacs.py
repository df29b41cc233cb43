"""DIMACS CNF reading and writing."""

from __future__ import annotations

import warnings

from .core import Clause, CnfFormula, masks_to_lits


class DimacsError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def parse_dimacs(text) -> CnfFormula:
    """Parse DIMACS CNF text (str or bytes) into a formula.

    Comments and blank lines are skipped, clauses may span lines, a lone
    '%' ends the clause section. Duplicate literals collapse; tautological
    clauses and out-of-range variables are errors. A clause count that
    disagrees with the header is only a warning; the actual count wins.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    num_vars = declared = None
    clauses: list[Clause] = []
    # Each distinct token read so far -> its checked literal (_literal), so
    # int() and the range test run once per token; bits are shifted at use.
    lits: dict[str, int] = {}
    pos = neg = 0        # the pending clause's positive and negative variables
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or declared < 0:
                raise DimacsError(f"malformed header {line!r}", lineno)
            continue
        if num_vars is None:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        if not pos | neg:
            pending_line = lineno
        for token in line.split():
            lit = lits.get(token)
            if lit is None:
                lit = lits[token] = _literal(token, num_vars, lineno)
            if lit > 0:
                pos |= 1 << (lit - 1)
            elif lit:
                neg |= 1 << ~lit        # ~lit is -lit - 1
            else:
                if pos & neg:   # Clause names the tautology
                    try:
                        Clause(masks_to_lits(pos, 0) + masks_to_lits(0, neg))
                    except ValueError as exc:
                        raise DimacsError(str(exc), lineno) from None
                clauses.append(Clause.from_unsat(pos | neg, neg))
                pos = neg = 0
                pending_line = lineno
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pos | neg:
        raise DimacsError("clause missing its 0 terminator", pending_line)
    if len(clauses) != declared:
        warnings.warn(f"header declares {declared} clauses, file has "
                      f"{len(clauses)}; using the actual count")
    return CnfFormula(num_vars, clauses)


def _literal(token: str, num_vars: int, lineno: int) -> int:
    """The literal int() reads in the token, 0 for the terminator; refused
    unless its variable is within num_vars."""
    try:
        lit = int(token)
    except ValueError:
        raise DimacsError(f"bad literal {token!r}", lineno) from None
    if abs(lit) > num_vars:
        raise DimacsError(
            f"variable x{abs(lit)} above declared count {num_vars}", lineno)
    return lit


def write_dimacs(formula: CnfFormula, comments=()) -> str:
    """Serialize the formula, learned clauses included if present."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause.lits + (0,)))
    return "\n".join(lines) + "\n"
