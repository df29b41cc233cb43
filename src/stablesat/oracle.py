"""Exhaustive truth-table oracle for desk-scale validation.

Scans all 2^n points in lexicographic order (x1 is the most significant
position) and reports the first satisfying point, if any. Kept entirely
independent of the solver engines so it can act as their referee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CnfFormula

DEFAULT_CAP = 24
_CHUNK = 1 << 16


@dataclass
class OracleResult:
    satisfiable: bool
    witness: tuple | None = None


def brute_force_sat(formula: CnfFormula, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exhaustive SAT check; refuses formulas above the variable cap."""
    n = formula.num_vars
    if n > cap:
        raise ValueError(f"oracle refuses {n} variables (cap {cap})")
    if n == 0:
        sat = all(len(c) > 0 for c in formula.clauses)
        return OracleResult(sat, () if sat else None)
    # Imported here, not at the top: every other command would pay for it.
    import numpy as np

    # Lexicographic point order means x_i sits at bit n-i of the scan index.
    # uint64 keeps raised caps safe; the default cap stays at 24 variables.
    masks = np.empty(len(formula.clauses), dtype=np.uint64)
    vals = np.empty(len(formula.clauses), dtype=np.uint64)
    for row, clause in enumerate(formula.clauses):
        m = v = 0
        for lit in clause.lits:
            bit = 1 << (n - abs(lit))
            m |= bit
            if lit < 0:
                v |= bit
        masks[row], vals[row] = m, v
    total = 1 << n
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.uint64)
        falsified = np.zeros(len(idx), dtype=bool)
        for m, v in zip(masks, vals):
            falsified |= (idx & m) == v
        open_points = np.nonzero(~falsified)[0]
        if len(open_points):
            k = int(idx[open_points[0]])
            return OracleResult(True, tuple((k >> (n - i)) & 1
                                            for i in range(1, n + 1)))
    return OracleResult(False)
