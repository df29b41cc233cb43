"""DIMACS CNF reading and writing."""

from __future__ import annotations

import warnings

from .core import Clause, CnfFormula


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
    pending: list[int] = []
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
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad literal {token!r}", lineno) from None
            if lit == 0:
                try:
                    clauses.append(Clause(pending))
                except ValueError as exc:
                    raise DimacsError(str(exc), lineno) from None
                pending = []
                continue
            if abs(lit) > num_vars:
                raise DimacsError(
                    f"variable x{abs(lit)} above declared count {num_vars}", lineno)
            if not pending:
                pending_line = lineno
            pending.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("clause missing its 0 terminator", pending_line)
    if len(clauses) != declared:
        warnings.warn(f"header declares {declared} clauses, file has "
                      f"{len(clauses)}; using the actual count")
    return CnfFormula(num_vars, clauses)


def write_dimacs(formula: CnfFormula, comments=()) -> str:
    """Serialize the formula, learned clauses included if present."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause.lits + (0,)))
    return "\n".join(lines) + "\n"
