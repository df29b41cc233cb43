import ast
import io
from pathlib import Path
from unittest import mock

import pytest

from stablesat import proofs
from stablesat.core import Clause, CnfFormula
from stablesat.proofs import (emit_proof, format_proof, parse_proof,
                              proof_from_result, replay_proof)
from stablesat.ssc import SscConfig, gen_ssc
from stablesat.ssp import gen_ssp
from stablesat.symmetry import ph_formula

GOLDEN_PROOF = """\
learn 6 -2 3 0 from 2 3 pivot 1
learn 7 -3 0 from 4 5 pivot 4
cluster -2 -3 0 clause 1
cluster 2 -3 0 clause 6
cluster -2 3 0 clause 7
cluster 2 3 0 clause 7
result UNSAT
"""


def test_golden_proof_text(vb_formula, golden_config):
    result = gen_ssc(vb_formula, golden_config)
    sink = io.StringIO()
    emit_proof(result, sink)
    assert sink.getvalue() == GOLDEN_PROOF


def test_parse_format_roundtrip():
    proof = parse_proof(GOLDEN_PROOF)
    assert format_proof(proof) == GOLDEN_PROOF
    assert [s.cid for s in proof.learns] == [6, 7]
    assert proof.result == "UNSAT"


def test_replay_accepts_golden(vb_formula):
    proof = parse_proof(GOLDEN_PROOF)
    assert replay_proof(vb_formula, proof)


def test_replay_builds_one_clause_per_learn_step():
    # Each step's resolvent is the clause the replay registers.
    formula = ph_formula(4, 3)[0]
    sink = io.StringIO()
    emit_proof(gen_ssc(formula), sink)
    proof = parse_proof(sink.getvalue())
    assert proof.learns
    built = []
    init = Clause.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(Clause, "__init__", counting):
        assert replay_proof(formula, proof)
    assert len(built) == len(proof.learns)


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
    assert len(proof.clusters) == 14
    assert replay_proof(chain6_formula, proof)


def test_ssp_sat_proof():
    f = CnfFormula(2, [[1, 2]])
    result = gen_ssp(f, init=(1, 0))
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
    # Comments may follow it.
    assert parse_proof("result UNSAT\nc done\n\n").result == "UNSAT"


@pytest.mark.parametrize("line, extra", [
    ("learn 3 0 from 1 2 pivot 1 junk", "junk"),
    ("cluster -1 0 clause 1 9 9", "9"),
    ("witness 1 0 1", "1"),
    ("result UNSAT 0", "0"),
])
def test_parse_proof_rejects_trailing_tokens(line, extra):
    text = "\n".join(["c header", line] + ["result UNSAT"] * (
        not line.startswith("result"))) + "\n"
    with pytest.raises(ValueError, match=f"proof line 2: unexpected '{extra}' "
                                         f"after the {line.split()[0]} record"):
        parse_proof(text)


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
     "proof line 3: sym record after a learn, cluster or witness record"),
    ("sym (1 2)\nresult UNSAT\nsym (1 2)\n",
     "proof line 3: sym record after the result line"),
    ("learn 3 0 from 1 2 pivot 1\nsym (1 2)\nresult UNSAT\n",
     "proof line 2: sym record after a learn, cluster or witness record"),
    ("sym (1 2)\nlearn 3 0 from 1 2 pivot 1\nresult UNSAT\n",
     "proof line 2: learn record in a proof with sym records"),
    ("witness 1 2 0\nsym (1 2)\nresult SAT\n",
     "proof line 2: sym record after a learn, cluster or witness record"),
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
