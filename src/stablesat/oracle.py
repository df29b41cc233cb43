"""Exhaustive truth-table oracle for desk-scale validation: scans all 2^n
points in lexicographic order (x1 is the most significant position) for the
first satisfying one. It reads only `clause.lits`, to referee the engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CnfFormula

DEFAULT_CAP = 24
_LOW = 16   # the last min(n, _LOW) variables vary inside one scan block


@dataclass
class OracleResult:
    satisfiable: bool
    witness: tuple | None = None


def brute_force_sat(formula: CnfFormula, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exhaustive SAT check; refuses formulas above the variable cap.

    Blocks of 2^16 points are ints, one bit per point, numbered by the high
    variables. A clause is a row: its pins on the high variables, their
    falsifying values, and the block points its low literals falsify.
    Rows with equal pins are OR-ed into one; from n = 16 a row is 8 KB.
    """
    n = formula.num_vars
    if n > cap:
        raise ValueError(f"oracle refuses {n} variables (cap {cap})")
    low = min(n, _LOW)
    high, full = n - low, (1 << (1 << low)) - 1
    # x_v is bit e = n-v of a point: in a block, x_v = 1 on runs of p = 2^e
    # points, one per 2p; full // (2^(2p) - 1) marks where each 2p begins.
    ones = {n - e: full // ((1 << 2 * p) - 1) * (((1 << p) - 1) << p)
            for e, p in ((e, 1 << e) for e in range(low))}
    rows = {}
    for clause in formula.clauses:
        pins, vals, falsified = 0, 0, full
        for lit in clause.lits:
            if abs(lit) > high:
                falsified &= ones[-lit] if lit < 0 else full ^ ones[lit]
            else:
                pins |= 1 << (high - abs(lit))
                vals |= (lit < 0) << (high - abs(lit))
        rows[pins, vals] = rows.get((pins, vals), 0) | falsified
    for block in range(1 << high):
        falsified = 0
        for (pins, vals), points in rows.items():
            if block & pins == vals:
                falsified |= points
        if falsified != full:
            k = block << low | ((falsified + 1) & ~falsified).bit_length() - 1
            return OracleResult(True, tuple(k >> e & 1 for e in range(n)[::-1]))
    return OracleResult(False)
