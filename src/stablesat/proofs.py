"""Proof records: emission, parsing and independent replay.

An unsatisfiability proof is line-oriented:

    learn <new-id> <lit...> 0 from <id1> <id2> pivot <var>
    cube <row> clause <id>
    cluster <cube-literals> 0 clause <id>
    point <bits> clause <id>
    result UNSAT

Learn lines replay through the resolution engine; cube and cluster
lines rebuild the Body, in file order, which the cluster verifier then
checks against the extended formula. A cube line's `<row>` is the cube
as a 0/1/- string, x1 first, exactly num_vars characters long, `-` for
a free variable; a cluster line lists the cube's pinned literals
instead. The writer picks the form from num_vars and the cube's width
alone: the row while num_vars is at most 2.5 times the width, so a
narrow cube under a wide header keeps a short line. The point engines
write each member as a point line: `<bits>` is the point as a 0/1
string, x1 first, exactly num_vars characters long. The row of zero
variables leaves its token out (`cube clause <id>`, `point clause
<id>`). A point line is the one-point cube of the fully pinned cube or
cluster line, which is read as well. A proof modulo symmetry
opens with one `sym <cycles>` record per generator, in cycle notation,
and holds no learn record; its members are points, one representative
per orbit, and the verifier checks the union of their orbits, which
the caller expands. Satisfiable runs emit a witness line followed by
`result SAT`; the witness cube must satisfy every input clause. Lines end
at a newline, a carriage return before it dropped, and records are
ASCII. Blank lines, and lines that are `c` or start with `c ` or `#`,
are comments.
The result line is always last, and no record carries tokens after its
last field; the parser rejects either, and a misplaced sym record,
with `proof line N: ...`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, takewhile

from .core import (CnfFormula, VerifyReport, cube_row, cycle_text,
                   lits_to_masks, non_decimal_chars, parse_cycles, point_row,
                   resolvable_on, resolve, row_bits, row_masks)
from .cubes import Cube, cube_satisfies
from .ssc import LearnStep, SscResult, verify_ssc
from .ssp import SspResult


@dataclass
class Proof:
    generators: list = field(default_factory=list)  # cycle lists, one each
    learns: list = field(default_factory=list)     # LearnStep records
    # (0/1/- string or literal tuple, clause id), in file order
    clusters: list = field(default_factory=list)
    points: list = field(default_factory=list)     # (0/1 string, clause id)
    witness: tuple | None = None                   # literal tuple
    result: str = ""                               # "SAT" or "UNSAT"


def proof_from_result(result, generators=()) -> Proof:
    """Build the proof object for an SscResult or SspResult. An UNSAT
    result stable modulo a group names its generators (cycle lists)."""
    if isinstance(result, SscResult):
        proof = Proof(learns=list(result.learn_steps))
    elif isinstance(result, SspResult):
        proof = Proof()
    else:
        raise TypeError(f"no proof form for {type(result).__name__}")
    if result.satisfiable:
        proof.witness = result.witness.literals()
        proof.result = "SAT"
        return proof
    proof.generators = list(generators)
    transport = result.transport
    if isinstance(result, SscResult):
        # A row costs n bytes and a literal about 2.5: a narrow cube under
        # a wide header keeps the literal form, whose line does not grow
        # with n.
        proof.clusters = [
            (cube_row(cube.mask, cube.val, cube.n)
             if 2 * cube.n <= 5 * cube.mask.bit_count() else cube.literals(),
             transport[cube]) for cube in result.body]
    else:
        proof.points = [(point_row(cube.val, cube.n), transport[cube])
                        for cube in result.points]
    proof.result = "UNSAT"
    return proof


def _terminated(lits) -> str:
    """Integer literals and the closing 0, space-separated. An int's repr
    is its decimal digits; one join over map(repr) is the fastest form on
    CPython 3.11, where map(str) pays a type call per literal."""
    return " ".join(map(repr, (*lits, 0)))


def _row_record(kind: str, row: str, cid: int) -> str:
    """A cube or point line; the row of zero variables leaves its token out."""
    return f"{kind} {row} clause {cid}" if row else f"{kind} clause {cid}"


def format_proof(proof: Proof) -> str:
    lines = ["sym " + cycle_text(cycles) for cycles in proof.generators]
    for step in proof.learns:
        lines.append(f"learn {step.cid} {_terminated(step.lits)} "
                     f"from {step.left} {step.right} pivot {step.pivot}")
    for form, cid in proof.clusters:
        if isinstance(form, str):
            lines.append(_row_record("cube", form, cid))
        else:
            lines.append(f"cluster {_terminated(form)} clause {cid}")
    lines += [_row_record("point", bits, cid) for bits, cid in proof.points]
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
    """Literals up to the first zero of any spelling (`0`, `00`, `-0`),
    and the index after it; no later token is converted. A list, not a
    tuple grown from the iterator: that raised `verify`'s peak RSS 0.8 MB."""
    lits = [*takewhile(bool, map(int, islice(tokens, start, None)))]
    if start + len(lits) == len(tokens):
        raise ValueError("missing 0 terminator")
    return tuple(lits), start + len(lits) + 1


def parse_proof(text: str) -> Proof:
    proof = Proof()
    # Records end at "\n" alone, as in DIMACS; strip() drops a "\r".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "c ")) or line == "c":
            continue
        tokens = line.split()
        try:
            if non_decimal_chars(raw):
                raise ValueError("'_' or a non-ASCII character: numbers are "
                                 "ASCII decimal")
            if proof.result:
                raise ValueError(f"{tokens[0]} record after the result line")
            if proof.generators and tokens[0] in ("learn", "witness"):
                raise ValueError(f"{tokens[0]} record in a proof with sym "
                                 f"records")
            if tokens[0] == "sym":
                if (proof.learns or proof.clusters or proof.points
                        or proof.witness is not None):
                    # A cube record is a cluster in row form.
                    raise ValueError("sym record after a learn, cluster, "
                                     "point or witness record")
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
            elif tokens[0] in ("cube", "point"):
                # The row of zero variables has no token.
                row = "" if tokens[1] == "clause" else tokens[1]
                i = 2 if row else 1
                if tokens[i] != "clause":
                    raise ValueError(f"malformed {tokens[0]} line")
                members = proof.clusters if tokens[0] == "cube" else proof.points
                members.append((row, int(tokens[i + 1])))
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
            if isinstance(exc, IndexError):   # a field past the line's end
                exc = f"truncated {tokens[0]} record"
            raise ValueError(f"proof line {lineno}: {exc}") from None
    if not proof.result:
        raise ValueError("proof has no result line")
    return proof


def replay_proof(formula: CnfFormula, proof: Proof,
                 expand=None) -> VerifyReport:
    """Re-derive every learn step and re-verify the certificate.

    The caller's formula is not modified; learn steps extend a copy. An
    UNSAT proof's cube, cluster and point lines must yield cubes that the
    independent cluster verifier accepts, a cube line the cube of its
    0/1/- string, a point line the one-point cube of its 0/1 string; a
    SAT proof must carry a witness cube satisfying every input
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
        resolvent = resolve(left, right, step.pivot)
        # Refused before the codec: 0, or a variable above num_vars, so no
        # stated literal becomes a shift count. As masks, duplicates
        # collapse and a tautology differs: its positive mask meets fval.
        lits = step.lits
        if not (all(lits) and max(map(abs, lits), default=0) <= work.num_vars
                and lits_to_masks(lits) == (resolvent.fmask ^ resolvent.fval,
                                            resolvent.fval)):
            report.fail(f"learn {step.cid}: stated literals differ from the "
                        f"resolvent {resolvent.lits}")
            return report
        if step.cid != len(work.clauses) + 1:
            report.fail(f"learn {step.cid}: expected id {len(work.clauses) + 1}")
            return report
        work.learn(resolvent)

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

    if not proof.clusters and not proof.points:
        report.fail("UNSAT proof without clusters")
        return report
    n = work.num_vars
    clusters = []
    transport = {}
    for form, cid in proof.clusters:
        try:
            cube = (Cube(n, *row_masks(form, n)) if isinstance(form, str)
                    else Cube.from_literals(form, n))
        except ValueError as exc:
            report.fail(f"cluster invalid: {exc}")
            return report
        clusters.append(cube)
        transport[cube] = cid
    full = (1 << n) - 1
    for bits, cid in proof.points:
        try:
            cube = Cube(n, full, row_bits(bits, n))
        except ValueError as exc:
            report.fail(f"point invalid: {exc}")
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
