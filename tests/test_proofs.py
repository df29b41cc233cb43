import ast
import io
import random
from pathlib import Path
from unittest import mock

import pytest

from stablesat import core, proofs
from stablesat.cli import cli_main
from stablesat.core import Clause, CnfFormula
from stablesat.cubes import Cube
from stablesat.dimacs import parse_dimacs, write_dimacs
from stablesat.proofs import (Proof, emit_proof, format_proof, parse_proof,
                              proof_from_result, replay_proof)
from stablesat.ssc import LearnStep, SscConfig, SscResult, gen_ssc
from stablesat.ssp import gen_ssp
from stablesat.symmetry import ph_formula
from conftest import (CHAIN6_POINTS, CHAIN6_TRANSPORT, proof_cube,
                      random_3cnf, traced_peak, tuple_cube)

# The worked example's proof as earlier versions wrote it, each Body
# cluster as its literals; it must keep verifying.
GOLDEN_PROOF = """\
learn 6 -2 3 0 from 2 3 pivot 1
learn 7 -3 0 from 4 5 pivot 4
cluster -2 -3 0 clause 1
cluster 2 -3 0 clause 6
cluster -2 3 0 clause 7
cluster 2 3 0 clause 7
result UNSAT
"""

# The same proof as the writer emits it: each cluster of width 2 over 4
# variables as its 0/1/- row.
GOLDEN_CUBE_PROOF = """\
learn 6 -2 3 0 from 2 3 pivot 1
learn 7 -3 0 from 4 5 pivot 4
cube -00- clause 1
cube -10- clause 6
cube -01- clause 7
cube -11- clause 7
result UNSAT
"""


def test_golden_proof_text(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    sink = io.StringIO()
    emit_proof(result, sink)
    assert sink.getvalue() == GOLDEN_CUBE_PROOF


def test_parse_format_roundtrip():
    for text in (GOLDEN_PROOF, GOLDEN_CUBE_PROOF):
        proof = parse_proof(text)
        assert format_proof(proof) == text
        assert [s.cid for s in proof.learns] == [6, 7]
        assert proof.result == "UNSAT"


def test_replay_accepts_golden(vb_formula):
    proof = parse_proof(GOLDEN_PROOF)
    assert replay_proof(vb_formula, proof)
    assert replay_proof(vb_formula, parse_proof(GOLDEN_CUBE_PROOF))


def test_both_cluster_forms_read_as_one_list_in_file_order(vb_formula):
    # Both golden proofs name the same cubes in the same order, and a
    # proof that mixes the forms verifies.
    old, new = (parse_proof(text).clusters
                for text in (GOLDEN_PROOF, GOLDEN_CUBE_PROOF))
    assert [(proof_cube(form, 4), cid) for form, cid in old] == \
        [(proof_cube(form, 4), cid) for form, cid in new]
    mixed = GOLDEN_CUBE_PROOF.replace("cube -10- clause 6",
                                      "cluster 2 -3 0 clause 6").replace(
        "cube -11- clause 7", "cluster 2 3 0 clause 7")
    proof = parse_proof(mixed)
    assert [form for form, _ in proof.clusters] == \
        ["-00-", (2, -3), "-01-", (2, 3)]
    assert format_proof(proof) == mixed
    assert replay_proof(vb_formula, proof)
    # Dropping a cluster of either form is noticed.
    for line in ("cube -01- clause 7\n", "cluster 2 3 0 clause 7\n"):
        report = replay_proof(vb_formula, parse_proof(mixed.replace(line, "")))
        assert any("not covered" in msg for msg in report.failures)


def test_one_variable_cluster_and_cube_lines_differ():
    # `cluster 0` lists no literal: the all-free cube. `cube 0` is the
    # row of x1 = 0. The record name alone tells them apart.
    cluster = parse_proof("cluster 0 clause 1\nresult UNSAT\n")
    cube = parse_proof("cube 0 clause 1\nresult UNSAT\n")
    assert proof_cube(cluster.clusters[0][0], 1) == Cube.full(1)
    assert proof_cube(cube.clusters[0][0], 1) == Cube(1, 1, 0)
    f = CnfFormula(1, [[1], [-1]])
    assert replay_proof(f, parse_proof("cube 0 clause 1\ncube 1 clause 2\n"
                                       "result UNSAT\n"))
    report = replay_proof(f, parse_proof("cluster 0 clause 1\ncube 1 clause 2"
                                         "\nresult UNSAT\n"))
    assert report.failures == ["cluster T: does not falsify clause 1"]


@pytest.mark.parametrize("n, width, form", [
    (0, 0, "cube clause 3"),
    (1, 0, "cluster 0 clause 3"),
    (1, 1, "cube 0 clause 3"),
    (5, 2, "cube 00--- clause 3"),
    (6, 2, "cluster -1 -2 0 clause 3"),
    (20, 8, "cube " + "0" * 8 + "-" * 12 + " clause 3"),
    (21, 8, "cluster " + " ".join(map(str, range(-1, -9, -1))) + " 0 clause 3"),
])
def test_writer_picks_the_row_while_n_is_at_most_two_and_a_half_widths(
        n, width, form):
    # The form depends on n and the cube's width alone.
    cube = Cube(n, (1 << width) - 1, 0)
    result = SscResult(False, body=[cube], transport={cube: 3})
    assert format_proof(proof_from_result(result)).splitlines()[0] == form


def test_huge_header_cluster_keeps_the_literal_form_in_bounded_memory(
        tmp_path, capsys):
    # A one-literal cluster under 10^7 variables: a row would be 10^7
    # bytes, the literal line does not grow with n, and verify stays small.
    def proof_text(n):
        low, high = Cube(n, 1, 0), Cube(n, 1, 1)
        result = SscResult(False, body=[low, high],
                           transport={low: 1, high: 2})
        return format_proof(proof_from_result(result))
    text = proof_text(10 ** 7)
    assert text == proof_text(3) == ("cluster -1 0 clause 1\n"
                                     "cluster 1 0 clause 2\nresult UNSAT\n")
    cnf, proof = tmp_path / "huge.cnf", tmp_path / "huge.proof"
    cnf.write_text("p cnf 10000000 2\n1 0\n-1 0\n")
    proof.write_text(text)
    code, peak = traced_peak(
        lambda: cli_main(["verify", "--proof", str(proof), str(cnf)]))
    assert code == 0 and peak < 4 * 2 ** 20
    assert capsys.readouterr().out == "verified: result UNSAT\n"


def test_ph32_row_mutations_are_rejected():
    # Each `-` pinned to 0 or 1 and each 0 flipped to 1, in every cube
    # line of a valid proof, gives a proof verify rejects.
    formula = ph_formula(3, 2)[0]
    text = format_proof(proof_from_result(gen_ssc(formula)))
    lines = text.splitlines(keepends=True)
    rows = [(i, line.split()[1]) for i, line in enumerate(lines)
            if line.startswith("cube ")]
    assert rows and any(l.startswith("cluster ") for l in lines)
    assert replay_proof(formula, parse_proof(text))
    mutants = 0
    for i, row in rows:
        for at, ch in enumerate(row):
            for new in {"-": "01", "0": "1", "1": ""}[ch]:
                line = lines[i].replace(row, row[:at] + new + row[at + 1:])
                proof = parse_proof("".join(lines[:i] + [line] + lines[i + 1:]))
                assert not replay_proof(formula, proof), line
                mutants += 1
    assert mutants > 2 * len(rows)


def test_replay_builds_one_clause_per_learn_step():
    # Each step's resolvent is the clause the replay registers, built from
    # literals or, as `resolve` does, from bits.
    formula = ph_formula(4, 3)[0]
    sink = io.StringIO()
    emit_proof(gen_ssc(formula), sink)
    proof = parse_proof(sink.getvalue())
    assert proof.learns
    built = []
    init, from_unsat = Clause.__init__, Clause.from_unsat.__func__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_unsat(cls, fmask, fval):
        built.append(from_unsat(cls, fmask, fval))
        return built[-1]

    with mock.patch.object(Clause, "__init__", counting), \
            mock.patch.object(Clause, "from_unsat", classmethod(counting_unsat)):
        assert replay_proof(formula, proof)
    assert len(built) == len(proof.learns)


def test_reading_and_replaying_a_sat_proof_builds_no_literal_tuple(monkeypatch):
    # A clause is its bits: parsing DIMACS and replaying learn steps and a
    # witness read only those, so no clause lists its literals.
    rng = random.Random(5)
    while True:
        formula = random_3cnf(20, 80, rng)
        result = gen_ssc(formula)
        if result.satisfiable and result.learn_steps:
            break
    text = write_dimacs(formula)
    sink = io.StringIO()
    emit_proof(result, sink)
    proof = parse_proof(sink.getvalue())
    listed = []
    masks_to_lits = core.masks_to_lits

    def counting(pos, neg):
        listed.append((pos, neg))
        return masks_to_lits(pos, neg)

    monkeypatch.setattr(core, "masks_to_lits", counting)
    report = replay_proof(parse_dimacs(text), proof)
    assert report and listed == []


def test_replay_refuses_a_zero_stated_literal():
    # No parsed record holds a 0 (it ends the list), but a Proof built in
    # code may; it is refused like any other wrong literal.
    formula = CnfFormula(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    proof = Proof(learns=[LearnStep(5, (2, 0), 1, 2, 1)], result="UNSAT")
    assert replay_proof(formula, proof).failures == [
        "learn 5: stated literals differ from the resolvent (2,)"]


def test_replay_refuses_a_huge_stated_literal_in_bounded_memory():
    # A 40-byte learn line: were its literal a shift count, the resolvent
    # check would build a 50 MB integer first.
    formula = CnfFormula(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    proof = parse_proof("learn 5 2 400000000 0 from 1 2 pivot 1\n"
                        "result UNSAT\n")
    report, peak = traced_peak(lambda: replay_proof(formula, proof))
    assert report.failures == ["learn 5: stated literals differ from the "
                               "resolvent (2,)"]
    assert peak < 5 * 2 ** 20


def test_replay_rejects_wrong_resolvent(vb_formula):
    broken = GOLDEN_PROOF.replace("learn 6 -2 3 0", "learn 6 -2 -3 0")
    report = replay_proof(vb_formula, parse_proof(broken))
    assert not report
    assert "learn 6" in report.failures[0]


def test_replay_rejects_a_tautological_learn_statement(vb_formula):
    # C2 = x1 | -x2 and C3 = -x1 | -x2 | x3 resolve on x1 to -x2 | x3.
    broken = GOLDEN_PROOF.replace("learn 6 -2 3 0", "learn 6 -2 2 3 0")
    report = replay_proof(vb_formula, parse_proof(broken))
    assert report.failures == ["learn 6: stated literals differ from the "
                               "resolvent (-2, 3)"]


def test_replay_collapses_duplicate_learn_literals(vb_formula):
    proof = parse_proof(GOLDEN_PROOF.replace("learn 6 -2 3 0",
                                             "learn 6 3 -2 3 -2 0"))
    assert proof.learns[0].lits == (3, -2, 3, -2)
    learn = CnfFormula.learn
    registered = []

    def recording(self, clause):
        registered.append(clause)
        return learn(self, clause)

    with mock.patch.object(CnfFormula, "learn", recording):
        assert replay_proof(vb_formula, proof)
    assert [(c.cid, c.lits) for c in registered] == [(6, (-2, 3)), (7, (-3,))]


def test_replay_rejects_wrong_pivot(vb_formula):
    broken = GOLDEN_PROOF.replace("from 2 3 pivot 1", "from 2 3 pivot 2")
    assert not replay_proof(vb_formula, parse_proof(broken))


def test_replay_rejects_missing_cluster(vb_formula):
    broken = GOLDEN_PROOF.replace("cluster 2 3 0 clause 7\n", "")
    report = replay_proof(vb_formula, parse_proof(broken))
    assert not report
    assert any("not covered" in msg for msg in report.failures)


def test_replay_rejects_nonsequential_learn_id(vb_formula):
    broken = GOLDEN_PROOF.replace("learn 7", "learn 9")
    assert not replay_proof(vb_formula, parse_proof(broken))


def test_sat_proof_with_witness():
    f = CnfFormula(2, [[1, 2]])
    result = gen_ssc(f)
    assert result.satisfiable
    text = format_proof(proof_from_result(result))
    assert text.endswith("result SAT\n")
    proof = parse_proof(text)
    assert proof.witness is not None
    assert replay_proof(f, proof)


def test_sat_proof_bad_witness_rejected():
    f = CnfFormula(2, [[1], [2]])
    proof = parse_proof("witness -1 2 0\nresult SAT\n")
    report = replay_proof(f, proof)
    assert not report


def test_ssp_unsat_proof_replays(chain6_formula):
    result = gen_ssp(chain6_formula)
    proof = proof_from_result(result)
    assert len(proof.points) == 14 and not proof.clusters
    assert replay_proof(chain6_formula, proof)
    text = format_proof(proof)
    assert text.splitlines()[:2] == ["point 000000 clause 1",
                                     "point 100000 clause 5"]
    assert sorted(text.splitlines()[:-1]) == sorted(
        f"point {bits} clause {cid}"
        for bits, cid in zip(CHAIN6_POINTS, CHAIN6_TRANSPORT))
    assert parse_proof(text) == proof
    assert replay_proof(chain6_formula, parse_proof(text))


def test_zero_variable_point_leaves_the_bits_out():
    f = CnfFormula(0, [[]])
    proof = proof_from_result(gen_ssp(f))
    assert proof.points == [("", 1)]
    text = format_proof(proof)
    assert text == "point clause 1\nresult UNSAT\n"
    assert parse_proof(text) == proof
    assert replay_proof(f, proof)
    # A bits token of a zero-variable point is one character too many.
    report = replay_proof(f, parse_proof("point 0 clause 1\nresult UNSAT\n"))
    assert report.failures == ["point invalid: '0' is not a 0/1 string of "
                               "0 variables"]


@pytest.mark.parametrize("bits", [
    "", "01", "0101", "0120", "01-", "+01", "0_1", "0x1", "ab1", "１01",
])
def test_replay_refuses_a_point_not_of_num_vars_binary_digits(bits):
    f = CnfFormula(3, [[1, 2, 3]])
    report = replay_proof(f, Proof(points=[(bits, 1)], result="UNSAT"))
    assert report.failures == [f"point invalid: {bits!r} is not a 0/1 string "
                               f"of 3 variables"]


@pytest.mark.parametrize("row", [
    "", "-0", "-0-0", "-02", "+-0", "-_0", "- 0", "0٣-", "１-0",
])
def test_replay_refuses_a_cube_not_of_num_vars_ternary_digits(row):
    f = CnfFormula(3, [[1, 2, 3]])
    report = replay_proof(f, Proof(clusters=[(row, 1)], result="UNSAT"))
    assert report.failures == [f"cluster invalid: {row!r} is not a 0/1/- "
                               f"string of 3 variables"]


def test_replay_refuses_a_free_variable_in_a_point_line():
    f = CnfFormula(3, [[1, 2, 3]])
    report = replay_proof(f, parse_proof("point 0-0 clause 1\nresult UNSAT\n"))
    assert report.failures == ["point invalid: '0-0' is not a 0/1 string of "
                               "3 variables"]


def test_ssp_sat_proof():
    f = CnfFormula(2, [[1, 2]])
    result = gen_ssp(f, init=tuple_cube((1, 0)))
    proof = proof_from_result(result)
    assert proof.result == "SAT" and proof.witness == (1, -2)
    assert replay_proof(f, proof)


def test_parse_proof_errors():
    with pytest.raises(ValueError):
        parse_proof("learn 6 -2 3 from 2 3 pivot 1\nresult UNSAT\n")
    with pytest.raises(ValueError):
        parse_proof("cluster 1 0 clause 1\n")  # no result line
    with pytest.raises(ValueError):
        parse_proof("result MAYBE\n")
    with pytest.raises(ValueError):
        parse_proof("result SAT\nresult SAT\n")


def test_parse_proof_rejects_records_after_the_result():
    with pytest.raises(ValueError, match="proof line 2: cluster record after "
                                         "the result line"):
        parse_proof("result UNSAT\ncluster -1 0 clause 1 9 9\n"
                    "learn 3 0 from 1 2 pivot 1 junk\n")
    with pytest.raises(ValueError, match="proof line 3: cube record after "
                                         "the result line"):
        parse_proof("cube 0- clause 1\nresult UNSAT\ncube 1- clause 2\n")
    # Comments may follow it.
    assert parse_proof("result UNSAT\nc done\n\n").result == "UNSAT"


def test_parse_proof_skips_comment_lines():
    # As in DIMACS, a bare `c` is a comment; a record name starting with
    # c is not.
    text = "c\n  c  \nc a comment\n# another\n\npoint 01 clause 2\nresult UNSAT\n"
    proof = parse_proof(text)
    assert proof.points == [("01", 2)] and proof.result == "UNSAT"
    with pytest.raises(ValueError, match="proof line 1: unknown record 'cx'"):
        parse_proof("cx\nresult UNSAT\n")


@pytest.mark.parametrize("line, extra", [
    ("learn 3 0 from 1 2 pivot 1 junk", "junk"),
    ("cluster -1 0 clause 1 9 9", "9"),
    ("point 01 clause 1 9", "9"),
    ("point clause 1 clause", "clause"),
    ("cube -0 clause 1 9", "9"),
    ("cube clause 1 clause", "clause"),
    ("witness 1 0 1", "1"),
    ("result UNSAT 0", "0"),
])
def test_parse_proof_rejects_trailing_tokens(line, extra):
    text = "\n".join(["c header", line] + ["result UNSAT"] * (
        not line.startswith("result"))) + "\n"
    with pytest.raises(ValueError, match=f"proof line 2: unexpected '{extra}' "
                                         f"after the {line.split()[0]} record"):
        parse_proof(text)


@pytest.mark.parametrize("line", [
    "learn 3 0 from 1 2 pivot",
    "cluster 1 0",
    "point 01",
    "point 01 clause",
    "point clause",
    "point",
    "cube -0",
    "cube -0 clause",
    "cube clause",
    "cube",
    "learn",
    "result",
])
def test_parse_proof_names_a_truncated_record(line):
    with pytest.raises(ValueError, match=f"^proof line 1: truncated "
                                         f"{line.split()[0]} record$"):
        parse_proof(line + "\nresult UNSAT\n")


@pytest.mark.parametrize("line", [
    "learn ٣ 1 0 from 1 2 pivot 3",
    "learn 3 1_0 0 from 1 2 pivot 3",
    "cluster -2 0 clause ٣",
    "point 01 clause 1_0",
    "cube 0٣- clause 1",
    "cube -_0 clause 1",
])
def test_parse_proof_refuses_numbers_not_in_ascii_decimal(line):
    # int() would read "٣" as 3 and "1_0" as 10.
    with pytest.raises(ValueError, match="^proof line 1: '_' or a non-ASCII "
                                         "character: numbers are ASCII "
                                         "decimal$"):
        parse_proof(line + "\nresult UNSAT\n")


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
def test_records_break_at_newline_only(sep):
    # str.splitlines would read two records here, each valid.
    with pytest.raises(ValueError, match="^proof line 1: "):
        parse_proof(f"point 01 clause 1{sep}result UNSAT\n")
    proof = parse_proof("point 01 clause 1\r\nresult UNSAT\r\n")
    assert proof.points == [("01", 1)] and proof.result == "UNSAT"


@pytest.mark.parametrize("zero", ["0", "00", "-0"])
def test_any_spelling_of_zero_closes_a_literal_list(zero):
    proof = parse_proof(f"learn 3 1 {zero} from 1 2 pivot 4\n"
                        f"cluster -2 {zero} clause 3\nresult UNSAT\n")
    assert proof.learns[0].lits == (1,) and proof.learns[0].pivot == 4
    assert proof.clusters == [((-2,), 3)]


def test_empty_clause_learn_line():
    f = CnfFormula(1, [[1], [-1]])
    result = gen_ssc(f, SscConfig(init_strategy="ne-style"))
    text = format_proof(proof_from_result(result))
    proof = parse_proof(text)
    assert replay_proof(f, proof)
    assert any(step.lits == () for step in proof.learns)


def test_empty_literal_lines_format_and_parse():
    # The empty clause and the all-free cluster and witness hold no
    # literal: the 0 follows the record name directly.
    text = ("learn 3 0 from 1 2 pivot 1\n"
            "cluster 0 clause 3\n"
            "result UNSAT\n")
    proof = parse_proof(text)
    assert proof.learns[0].lits == () and proof.clusters == [((), 3)]
    assert format_proof(proof) == text
    assert format_proof(parse_proof("witness 0\nresult SAT\n")) == \
        "witness 0\nresult SAT\n"


SYM_PROOF = """\
sym (1 3)(2 4)
sym (1 2)(3 4)
cluster -1 -2 -3 -4 0 clause 1
result UNSAT
"""


def test_sym_records_parse_and_format():
    proof = parse_proof(SYM_PROOF)
    assert proof.generators == [[[1, 3], [2, 4]], [[1, 2], [3, 4]]]
    assert format_proof(proof) == SYM_PROOF
    assert parse_proof("sym ()\nresult UNSAT\n").generators == [[]]
    assert format_proof(parse_proof("sym ( 1, 2 )\nresult UNSAT\n")) == \
        "sym (1 2)\nresult UNSAT\n"


@pytest.mark.parametrize("text, message", [
    ("sym (1 2\nresult UNSAT\n", "proof line 1: bad cycle notation"),
    ("sym (1 -2)\nresult UNSAT\n", "proof line 1: bad cycle notation"),
    ("sym\nresult UNSAT\n", "proof line 1: empty permutation text"),
    ("sym ()" + "    ()" * 40 + " x\nresult UNSAT\n",
     "proof line 1: bad cycle notation"),
    ("sym (1 2)\ncluster 1 2 0 clause 1\nsym (1 2)\nresult UNSAT\n",
     "proof line 3: sym record after a learn, cluster, point or witness "
     "record"),
    ("sym (1 2)\npoint 11 clause 1\nsym (1 2)\nresult UNSAT\n",
     "proof line 3: sym record after a learn, cluster, point or witness "
     "record"),
    # A cube record is a cluster in row form.
    ("sym (1 2)\ncube 1- clause 1\nsym (1 2)\nresult UNSAT\n",
     "proof line 3: sym record after a learn, cluster, point or witness "
     "record"),
    ("sym (1 2)\nresult UNSAT\nsym (1 2)\n",
     "proof line 3: sym record after the result line"),
    ("learn 3 0 from 1 2 pivot 1\nsym (1 2)\nresult UNSAT\n",
     "proof line 2: sym record after a learn, cluster, point or witness "
     "record"),
    ("sym (1 2)\nlearn 3 0 from 1 2 pivot 1\nresult UNSAT\n",
     "proof line 2: learn record in a proof with sym records"),
    ("witness 1 2 0\nsym (1 2)\nresult SAT\n",
     "proof line 2: sym record after a learn, cluster, point or witness "
     "record"),
    ("sym (1 2)\nwitness 1 2 0\nresult SAT\n",
     "proof line 2: witness record in a proof with sym records"),
])
def test_parse_proof_rejects_misplaced_or_malformed_sym(text, message):
    with pytest.raises(ValueError, match=message):
        parse_proof(text)


def test_sym_proof_needs_an_expansion():
    f = CnfFormula(4, [[1, 2, 3, 4]])
    report = replay_proof(f, parse_proof(SYM_PROOF))
    assert not report
    assert report.failures == ["sym records without an orbit expansion"]
    # Under the identity expansion the one point is checked as it stands:
    # its neighbours are not members.
    report = replay_proof(f, parse_proof(SYM_PROOF), lambda *set_: set_)
    assert not report and "is not covered" in report.failures[0]


def test_proofs_module_imports_no_symmetry():
    tree = ast.parse(Path(proofs.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "symmetry" not in imported
