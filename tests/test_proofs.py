import io

import pytest

from stablesat.core import CnfFormula
from stablesat.proofs import (emit_proof, format_proof, parse_proof,
                              proof_from_result, replay_proof)
from stablesat.ssc import SscConfig, gen_ssc
from stablesat.ssp import gen_ssp

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


def test_replay_rejects_wrong_resolvent(vb_formula):
    broken = GOLDEN_PROOF.replace("learn 6 -2 3 0", "learn 6 -2 -3 0")
    report = replay_proof(vb_formula, parse_proof(broken))
    assert not report
    assert "learn 6" in report.failures[0]


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
