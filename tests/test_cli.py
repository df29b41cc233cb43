import pytest

from stablesat.cli import cli_main

VB_DIMACS = """\
c worked example
p cnf 4 5
2 3 0
1 -2 0
-1 -2 3 0
-3 4 0
-3 -4 0
"""


@pytest.fixture
def vb_file(tmp_path):
    path = tmp_path / "vb.cnf"
    path.write_text(VB_DIMACS)
    return str(path)


def test_solve_ssc_unsat_exit_code(vb_file):
    assert cli_main(["solve", "--mode", "ssc", vb_file]) == 20


def test_solve_ssp_sat_exit_code(tmp_path, capsys):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    assert cli_main(["solve", "--mode", "ssp", str(path)]) == 10
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out
    assert "v 1 0" in out


def test_solve_writes_trace_and_proof(vb_file, tmp_path):
    trace = tmp_path / "run.trace"
    proof = tmp_path / "run.proof"
    code = cli_main(["solve", "--mode", "ssc", "--init", "-2 -3",
                     "--trace", str(trace), "--proof", str(proof), vb_file])
    assert code == 20
    trace_text = trace.read_text()
    assert trace_text.endswith("finish result UNSAT\n")
    merge_lines = [l for l in trace_text.splitlines() if " merge " in l]
    assert "learn 6" in merge_lines[0] and "pivot 1" in merge_lines[0]
    assert "learn 7" in merge_lines[1] and "pivot 4" in merge_lines[1]
    assert "result UNSAT" in proof.read_text()


def test_verify_accepts_emitted_proof(vb_file, tmp_path):
    proof = tmp_path / "run.proof"
    cli_main(["solve", "--mode", "ssc", "--proof", str(proof), vb_file])
    assert cli_main(["verify", "--proof", str(proof), vb_file]) == 0


def test_verify_rejects_tampered_proof(vb_file, tmp_path, capsys):
    proof = tmp_path / "run.proof"
    cli_main(["solve", "--mode", "ssc", "--init", "-2 -3",
              "--proof", str(proof), vb_file])
    tampered = proof.read_text().replace("pivot 1", "pivot 2")
    assert tampered != proof.read_text()
    proof.write_text(tampered)
    assert cli_main(["verify", "--proof", str(proof), vb_file]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_ph_then_solve_roundtrip(tmp_path):
    cnf = tmp_path / "ph.cnf"
    assert cli_main(["gen-ph", "3", "2", "-o", str(cnf)]) == 0
    assert cli_main(["solve", "--mode", "ssc", str(cnf)]) == 20
    assert cli_main(["oracle", str(cnf)]) == 20


def test_gen_ph_stdout(capsys):
    assert cli_main(["gen-ph", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c pigeon-hole")
    assert "p cnf 4 4" in out


def test_sym_mode_with_generated_file(tmp_path):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    proof = tmp_path / "ph.proof"
    assert cli_main(["gen-ph", "3", "2", "-o", str(cnf),
                     "--sym-out", str(sym)]) == 0
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--proof", str(proof), str(cnf)]) == 20
    assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 0


def test_sym_mode_requires_generators(vb_file):
    assert cli_main(["solve", "--mode", "sym", vb_file]) == 1


def test_sym_mode_refuses_trace(tmp_path, capsys):
    cnf, sym, trace = tmp_path / "ph.cnf", tmp_path / "ph.sym", tmp_path / "t"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--trace", str(trace), str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not trace.exists()


def test_sym_mode_refuses_lifo(tmp_path, capsys):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--pop", "lifo", str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sym_mode_sat_instance(tmp_path):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "2", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym), str(cnf)]) == 10


def test_oracle_exit_codes(vb_file, tmp_path):
    assert cli_main(["oracle", vb_file]) == 20
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 2 0\n")
    assert cli_main(["oracle", str(sat)]) == 10


def test_solve_ssc_ne_mode(vb_file):
    assert cli_main(["solve", "--mode", "ssc-ne", vb_file]) == 20


def test_solve_variant_flags(vb_file):
    assert cli_main(["solve", "--no-merge", vb_file]) == 20
    assert cli_main(["solve", "--coverage", "shared", vb_file]) == 20
    assert cli_main(["solve", "--pop", "lifo", vb_file]) == 20
    assert cli_main(["solve", "--split", "most-constrained", vb_file]) == 20


def test_pretty_trace_style(vb_file, tmp_path):
    trace = tmp_path / "pretty.trace"
    cli_main(["solve", "--init", "-2 -3", "--trace", str(trace),
              "--trace-style", "pretty", vb_file])
    lines = trace.read_text().splitlines()
    assert lines[0] == "1 initialize cube ¬x2 ¬x3 clause 1"
    assert lines[-1] == "16 finish result UNSAT"


def test_traces_are_deterministic(vb_file, tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    for path in (a, b):
        cli_main(["solve", "--mode", "ssc", "--trace", str(path), vb_file])
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli_main(["solve", "--mode", "warp", "x.cnf"]) == 1
    assert cli_main(["solve", str(tmp_path / "missing.cnf")]) == 1
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1 -1 0\n")
    assert cli_main(["solve", str(bad)]) == 1
    capsys.readouterr()


def test_solve_sat_prints_witness_cube(tmp_path, capsys):
    path = tmp_path / "sat.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert cli_main(["solve", "--mode", "ssc", str(path)]) == 10
    out = capsys.readouterr().out
    assert "witness cube" in out and "s SATISFIABLE" in out


@pytest.mark.parametrize("text", ["p cnf 3 0\n", "p cnf 0 0\n", "p cnf 0 1\n0\n",
                                  "p cnf 2 2\n1 0\n0\n"])
def test_trivial_formulas_answered_in_every_mode(tmp_path, capsys, text):
    path, sym = tmp_path / "f.cnf", tmp_path / "empty.sym"
    path.write_text(text)
    sym.write_text("")
    expected = cli_main(["oracle", str(path)])
    for mode in ("ssc", "ssc-ne", "ssp", "sym"):
        proof = tmp_path / f"{mode}.proof"
        code = cli_main(["solve", "--mode", mode, "--sym", str(sym),
                         "--proof", str(proof), str(path)])
        assert code == expected, mode
        # The sym engine writes a proof only for UNSAT.
        if mode != "sym" or code == 20:
            assert cli_main(["verify", "--proof", str(proof), str(path)]) == 0
    out = capsys.readouterr().out
    assert ("v 0" in out.splitlines()) == text.startswith("p cnf 0 0")
