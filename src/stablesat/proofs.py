"""Proof records: emission, parsing and independent replay.

An unsatisfiability proof is line-oriented:

    learn <new-id> <lit...> 0 from <id1> <id2> pivot <var>
    cluster <cube-literals> 0 clause <id>
    result UNSAT

Learn lines replay through the resolution engine; cluster lines rebuild
the Body, which the cluster verifier then checks against the extended
formula. A proof modulo symmetry opens with one `sym <cycles>` record
per generator, in cycle notation, and holds no learn record; its
cluster lines are points, one representative per orbit, and the
verifier checks the union of their orbits, which the caller expands.
Satisfiable runs emit a witness line followed by `result SAT`; the
witness cube must satisfy every input clause. The result line is
always last, and no record carries tokens after its last field; the
parser rejects either, and a misplaced sym record, with
`proof line N: ...`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (Clause, CnfFormula, VerifyReport, cycle_text, parse_cycles,
                   resolvable_on, resolve)
from .cubes import Cube, cube_satisfies
from .ssc import LearnStep, SscResult, verify_ssc
from .ssp import SspResult


@dataclass
class Proof:
    generators: list = field(default_factory=list)  # cycle lists, one each
    learns: list = field(default_factory=list)     # LearnStep records
    clusters: list = field(default_factory=list)   # (literal tuple, clause id)
    witness: tuple | None = None                   # literal tuple
    result: str = ""                               # "SAT" or "UNSAT"


def proof_from_result(result, generators=()) -> Proof:
    """Build the proof object for an SscResult or SspResult. An UNSAT
    result stable modulo a group names its generators (cycle lists)."""
    if isinstance(result, SscResult):
        proof = Proof(learns=list(result.learn_steps))
        members, witness = result.body, result.witness
    elif isinstance(result, SspResult):
        proof = Proof()
        members, witness = result.points, result.witness
        if witness is not None:   # () is the model of zero variables
            witness = Cube.from_point(witness)
    else:
        raise TypeError(f"no proof form for {type(result).__name__}")
    if result.satisfiable:
        proof.witness = witness.literals()
        proof.result = "SAT"
    else:
        proof.generators = list(generators)
        proof.clusters = [(cube.literals(), result.transport[cube])
                          for cube in members]
        proof.result = "UNSAT"
    return proof


def _terminated(lits) -> str:
    """Integer literals and the closing 0, space-separated. An int's repr
    is its decimal digits; one join over map(repr) is the fastest form on
    CPython 3.11, where map(str) pays a type call per literal."""
    return " ".join(map(repr, (*lits, 0)))


def format_proof(proof: Proof) -> str:
    lines = ["sym " + cycle_text(cycles) for cycles in proof.generators]
    for step in proof.learns:
        lines.append(f"learn {step.cid} {_terminated(step.lits)} "
                     f"from {step.left} {step.right} pivot {step.pivot}")
    for lits, cid in proof.clusters:
        lines.append(f"cluster {_terminated(lits)} clause {cid}")
    if proof.witness is not None:
        lines.append("witness " + _terminated(proof.witness))
    lines.append(f"result {proof.result}")
    return "\n".join(lines) + "\n"


def emit_proof(certificate, sink):
    """Serialize a certificate, a Proof or a solver result, to a text sink."""
    if not isinstance(certificate, Proof):
        certificate = proof_from_result(certificate)
    sink.write(format_proof(certificate))


def _take_zero_terminated(tokens, start):
    lits = []
    i = start
    while i < len(tokens):
        value = int(tokens[i])
        i += 1
        if value == 0:
            return tuple(lits), i
        lits.append(value)
    raise ValueError("missing 0 terminator")


def parse_proof(text: str) -> Proof:
    proof = Proof()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c "):
            continue
        tokens = line.split()
        try:
            if proof.result:
                raise ValueError(f"{tokens[0]} record after the result line")
            if proof.generators and tokens[0] in ("learn", "witness"):
                raise ValueError(f"{tokens[0]} record in a proof with sym "
                                 f"records")
            if tokens[0] == "sym":
                if proof.learns or proof.clusters or proof.witness is not None:
                    raise ValueError("sym record after a learn, cluster or "
                                     "witness record")
                proof.generators.append(parse_cycles(line[len("sym"):]))
                end = len(tokens)
            elif tokens[0] == "learn":
                cid = int(tokens[1])
                lits, i = _take_zero_terminated(tokens, 2)
                if tokens[i] != "from" or tokens[i + 3] != "pivot":
                    raise ValueError("malformed learn line")
                proof.learns.append(LearnStep(cid, lits, int(tokens[i + 1]),
                                              int(tokens[i + 2]),
                                              int(tokens[i + 4])))
                end = i + 5
            elif tokens[0] == "cluster":
                lits, i = _take_zero_terminated(tokens, 1)
                if tokens[i] != "clause":
                    raise ValueError("malformed cluster line")
                proof.clusters.append((lits, int(tokens[i + 1])))
                end = i + 2
            elif tokens[0] == "witness":
                proof.witness, end = _take_zero_terminated(tokens, 1)
            elif tokens[0] == "result":
                if tokens[1] not in ("SAT", "UNSAT"):
                    raise ValueError(f"unknown result {tokens[1]!r}")
                proof.result = tokens[1]
                end = 2
            else:
                raise ValueError(f"unknown record {tokens[0]!r}")
            if len(tokens) > end:
                raise ValueError(f"unexpected {tokens[end]!r} after the "
                                 f"{tokens[0]} record")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"proof line {lineno}: {exc}") from None
    if not proof.result:
        raise ValueError("proof has no result line")
    return proof


def replay_proof(formula: CnfFormula, proof: Proof,
                 expand=None) -> VerifyReport:
    """Re-derive every learn step and re-verify the certificate.

    The caller's formula is not modified; learn steps extend a copy. An
    UNSAT proof must yield clusters that the independent cluster verifier
    accepts; a SAT proof must carry a witness cube satisfying every input
    clause. A proof with sym records needs `expand`, which maps its
    clusters and their transport to the union of their orbits, as cubes
    and transport again; the cluster verifier judges that union, so a
    wrong generator or a faulty expansion can only make it reject.
    """
    report = VerifyReport()
    work = formula.copy()
    for step in proof.learns:
        left = work.clause_by_id(step.left)
        right = work.clause_by_id(step.right)
        if left is None or right is None:
            report.fail(f"learn {step.cid}: antecedent missing")
            return report
        if resolvable_on(left, right) != step.pivot:
            report.fail(f"learn {step.cid}: clauses {step.left},{step.right} "
                        f"do not clash exactly on x{step.pivot}")
            return report
        # The antecedents clash on the pivot alone, so their resolvent holds
        # every literal of either but the pivot's: their bits OR-ed, less
        # the pivot bit.
        keep = ~(1 << (step.pivot - 1))
        try:
            stated = Clause(step.lits)
        except ValueError:   # a tautology is no resolvent
            stated = None
        if stated is None or stated.fmask != (left.fmask | right.fmask) & keep \
                or stated.fval != (left.fval | right.fval) & keep:
            report.fail(f"learn {step.cid}: stated literals differ from the "
                        f"resolvent {resolve(left, right, step.pivot).lits}")
            return report
        if step.cid != len(work.clauses) + 1:
            report.fail(f"learn {step.cid}: expected id {len(work.clauses) + 1}")
            return report
        work.learn(stated)

    if proof.result == "SAT":
        if proof.witness is None:
            report.fail("SAT proof without a witness")
            return report
        try:
            cube = Cube.from_literals(proof.witness, formula.num_vars)
        except ValueError as exc:
            report.fail(f"witness invalid: {exc}")
            return report
        for clause in formula.clauses:
            if not cube_satisfies(cube, clause):
                report.fail(f"witness does not satisfy clause {clause.cid}")
        return report

    if not proof.clusters:
        report.fail("UNSAT proof without clusters")
        return report
    clusters = []
    transport = {}
    for lits, cid in proof.clusters:
        try:
            cube = Cube.from_literals(lits, work.num_vars)
        except ValueError as exc:
            report.fail(f"cluster invalid: {exc}")
            return report
        clusters.append(cube)
        transport[cube] = cid
    if proof.generators:
        if expand is None:
            report.fail("sym records without an orbit expansion")
            return report
        clusters, transport = expand(clusters, transport)
    inner = verify_ssc(work, clusters, transport)
    report.ok = report.ok and inner.ok
    report.failures.extend(inner.failures)
    return report
