"""Output checks for the benchmark, independent of the program under test.

Nothing here imports stablesat: DIMACS files are read back with a tiny
reader of our own, SAT models are evaluated clause by clause, and a
small DPLL serves as the referee that fixes each random formula's
expected verdict at set-up time.
"""

from __future__ import annotations

import re

EXIT_SAT = 10
EXIT_UNSAT = 20
VERDICT = {EXIT_SAT: "SAT", EXIT_UNSAT: "UNSAT"}


def read_dimacs(path: str):
    """(num_vars, clauses) of a DIMACS file written by the generator."""
    num_vars, clauses, pending = 0, [], []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("c") or not line.strip():
                continue
            if line.startswith("p"):
                num_vars = int(line.split()[2])
                continue
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    clauses.append(pending)
                    pending = []
                else:
                    pending.append(lit)
    return num_vars, clauses


def dpll_sat(clauses) -> bool:
    """Plain DPLL with unit propagation; fast enough for n = 30 at ratio 4.26."""

    def simplify(cls, lit):
        out = []
        for clause in cls:
            if lit in clause:
                continue
            if -lit in clause:
                clause = [l for l in clause if l != -lit]
                if not clause:
                    return None
            out.append(clause)
        return out

    def rec(cls):
        while True:
            unit = next((c[0] for c in cls if len(c) == 1), None)
            if unit is None:
                break
            cls = simplify(cls, unit)
            if cls is None:
                return False
        if not cls:
            return True
        lit = min(cls, key=len)[0]
        for choice in (lit, -lit):
            rest = simplify(cls, choice)
            if rest is not None and rec(rest):
                return True
        return False

    return rec([list(c) for c in clauses])


_MODEL_LINE = re.compile(r"^v( -?\d+)+$")


def parse_model(stdout: str):
    """Signed literals from the `v` lines, 0 terminator dropped."""
    lits = []
    for line in stdout.splitlines():
        if line.startswith("v "):
            if not _MODEL_LINE.match(line):
                raise ValueError(f"malformed model line {line!r}")
            lits += [int(t) for t in line.split()[1:] if t != "0"]
    return lits


def check_solve(code: int, stdout: str, num_vars: int, clauses, expect: str):
    """Failure reasons for one solve command; an empty list means it passed.

    The exit code must be 10 or 20 and match the status line and the
    expected verdict; a SAT model must assign every variable once and
    satisfy every clause.
    """
    if code not in VERDICT:
        return [f"solve exit code {code}"]
    verdict = VERDICT[code]
    status = "s SATISFIABLE" if verdict == "SAT" else "s UNSATISFIABLE"
    problems = []
    if status not in stdout.splitlines():
        problems.append(f"exit code {code} without status line {status!r}")
    if verdict != expect:
        problems.append(f"verdict {verdict}, expected {expect}")
    if verdict == "SAT":
        try:
            lits = parse_model(stdout)
        except ValueError as exc:
            return problems + [str(exc)]
        if sorted(abs(l) for l in lits) != list(range(1, num_vars + 1)):
            return problems + ["model does not assign every variable once"]
        model = set(lits)
        bad = sum(1 for clause in clauses if not any(l in model for l in clause))
        if bad:
            problems.append(f"model falsifies {bad} clauses")
    return problems


def check_verify(code: int, stdout: str, verdict: str):
    """Failure reasons for one verify command of a proof of that verdict."""
    if code != 0:
        return [f"verify rejected the proof (exit code {code})"]
    if f"verified: result {verdict}" not in stdout.splitlines():
        return [f"verify did not confirm result {verdict}"]
    return []
