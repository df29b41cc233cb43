import functools
import random

import pytest

from stablesat import cli
from stablesat.cli import cli_main
from stablesat.ssc import SscConfig
from stablesat.ssp import SspConfig
from stablesat.core import parse_cycles
from stablesat.dimacs import write_dimacs
from stablesat.symmetry import (Permutation, expand_mod_sym_to_ssp,
                                is_symmetric, ph_formula)
from conftest import random_3cnf, traced_peak

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


def test_solve_without_flags_keeps_the_engine_defaults(vb_file, tmp_path,
                                                      monkeypatch):
    # The CLI passes only the flags given, so each default has one home.
    calls = {}

    def recording(name):
        engine = getattr(cli, name)

        def run(formula, *args, **kwargs):
            calls[name] = (args, kwargs)
            return engine(formula, *args, **kwargs)
        return run

    for name in ("gen_ssc", "gen_ssp", "gen_ssp_mod_symmetry"):
        monkeypatch.setattr(cli, name, recording(name))
    assert cli_main(["solve", vb_file]) == 20
    assert cli_main(["solve", "--mode", "ssp", vb_file]) == 20
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     str(cnf)]) == 20
    assert calls["gen_ssc"] == ((SscConfig(),), {})
    assert calls["gen_ssp"] == ((None, SspConfig()), {})
    assert calls["gen_ssp_mod_symmetry"][1] == {}   # no orbit_limit


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


def test_verify_of_a_huge_header_is_bounded(tmp_path, capsys):
    # The checker reads no per-variable index, so a formula that declares
    # 10^7 variables costs it what the file holds, not 2 * 10^7 lists.
    cnf, proof = tmp_path / "huge.cnf", tmp_path / "huge.proof"
    cnf.write_text("p cnf 10000000 1\n1 0\n")
    proof.write_text("witness 1 0\nresult SAT\n")
    code, peak = traced_peak(
        lambda: cli_main(["verify", "--proof", str(proof), str(cnf)]))
    assert code == 0 and peak < 4 * 2 ** 20
    assert capsys.readouterr().out == "verified: result SAT\n"


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


def _ph32_sym_proof(tmp_path):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    proof = tmp_path / "ph.proof"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--proof", str(proof), str(cnf)]) == 20
    return cnf, proof


PH32_SYM_PROOF = """\
sym (1 3)(2 4)
sym (3 5)(4 6)
sym (1 2)(3 4)(5 6)
point 000000 clause 1
point 100000 clause 2
point 101000 clause 3
point 100100 clause 3
point 101010 clause 4
point 101001 clause 4
result UNSAT
"""


def test_sym_proof_names_generators_and_representatives(tmp_path, capsys):
    cnf, proof = _ph32_sym_proof(tmp_path)
    assert capsys.readouterr().out == (
        "c stable modulo symmetry, representatives: 6\ns UNSATISFIABLE\n")
    assert proof.read_text() == PH32_SYM_PROOF
    assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 0
    assert capsys.readouterr().out == "verified: result UNSAT\n"


def test_ph65_sym_proof_is_small_and_verifies(tmp_path, capsys):
    # 29 representatives stand for 46656 points.
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    proof = tmp_path / "ph.proof"
    cli_main(["gen-ph", "6", "5", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--proof", str(proof), str(cnf)]) == 20
    assert proof.stat().st_size < 2000
    assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 0
    assert capsys.readouterr().out.endswith("verified: result UNSAT\n")


# Each edit of the PH(3,2) sym proof, and a part of the error it must give.
SYM_PROOF_MUTATIONS = {
    "generator not a symmetry": (
        ("sym (1 2)(3 4)(5 6)", "sym (1 3)"), "is not covered"),
    "representative removed": (
        ("point 101000 clause 3\n", ""), "is not covered"),
    "transport id changed": (
        ("100000 clause 2", "100000 clause 1"), "does not falsify clause 1"),
    "transport id out of range": (
        ("100000 clause 2", "100000 clause 99"),
        "transport id 99 not in formula"),
    "point of the wrong length": (
        ("point 100000 clause 2", "point 10000 clause 2"),
        "point invalid: '10000' is not a 0/1 string of 6 variables"),
    "point digit not 0 or 1": (
        ("point 100000 clause 2", "point 100200 clause 2"),
        "point invalid: '100200' is not a 0/1 string of 6 variables"),
    # int(text, 2) alone would read "1_0000" as a number.
    "point with a digit separator": (
        ("point 100000 clause 2", "point 1_0000 clause 2"),
        "point invalid: '1_0000' is not a 0/1 string of 6 variables"),
    "point without clause": (
        ("point 100000 clause 2", "point 100000 2"),
        "proof line 5: malformed point line"),
    "point without an id": (
        ("point 100000 clause 2", "point 100000 clause"),
        "proof line 5: truncated point record"),
    "point with a trailing token": (
        ("point 100000 clause 2", "point 100000 clause 2 0"),
        "proof line 5: unexpected '0' after the point record"),
    "cycle element above num_vars": (
        ("sym (3 5)(4 6)", "sym (3 7)(4 6)"), "cycle element x7 outside 1..6"),
    "cycles share a variable": (
        ("sym (3 5)(4 6)", "sym (3 5)(5 6)"), "x5 appears twice"),
}


@pytest.mark.parametrize("mutation", sorted(SYM_PROOF_MUTATIONS))
def test_verify_rejects_a_mutated_sym_proof(tmp_path, capsys, mutation):
    (old, new), error = SYM_PROOF_MUTATIONS[mutation]
    cnf, proof = _ph32_sym_proof(tmp_path)
    text = proof.read_text()
    assert text.count(old) == 1
    proof.write_text(text.replace(old, new))
    capsys.readouterr()
    assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err
    assert "Traceback" not in err


def _as_pinned_clusters(text):
    """The proof with each point line written as the cluster line that pins
    every variable, the form point proofs took before point lines."""
    lines = []
    for line in text.splitlines():
        if line.startswith("point "):
            tokens = line.split()   # point [bits] clause id
            bits = tokens[1] if len(tokens) == 4 else ""
            lits = [v if bit == "1" else -v
                    for v, bit in enumerate(bits, start=1)]
            line = " ".join(["cluster", *map(str, lits), "0", "clause",
                             tokens[-1]])
        lines.append(line)
    return "\n".join(lines) + "\n"


def _unsat_formulas(tmp_path):
    """PH(3,2), PH(4,3) and seeded random 3-CNF, with their generators (an
    empty file for the random ones)."""
    out = []
    for p, h in ((3, 2), (4, 3)):
        cnf, sym = tmp_path / f"ph{p}{h}.cnf", tmp_path / f"ph{p}{h}.sym"
        cli_main(["gen-ph", str(p), str(h), "-o", str(cnf),
                  "--sym-out", str(sym)])
        out.append((cnf, sym))
    none = tmp_path / "none.sym"
    none.write_text("")
    for seed in range(6):   # seed 2 is satisfiable
        cnf = tmp_path / f"rnd{seed}.cnf"
        cnf.write_text(write_dimacs(random_3cnf(10, 60, random.Random(seed))))
        out.append((cnf, none))
    return out


def _verdict(cnf, proof, text, capsys):
    proof.write_text(text)
    capsys.readouterr()
    code = cli_main(["verify", "--proof", str(proof), str(cnf)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("mode", ["ssp", "sym"])
def test_point_lines_and_pinned_cluster_lines_get_one_verdict(tmp_path, capsys,
                                                              mode):
    # Point proofs in the cluster form keep verifying, and the point form
    # is accepted exactly where that form is, also with a member missing.
    proof = tmp_path / "f.proof"
    unsat = 0
    for cnf, sym in _unsat_formulas(tmp_path):
        sym_args = ["--sym", str(sym)] if mode == "sym" else []
        if cli_main(["solve", "--mode", mode, *sym_args, "--proof", str(proof),
                     str(cnf)]) != 20:
            continue
        unsat += 1
        lines = proof.read_text().splitlines(keepends=True)
        members = [i for i, line in enumerate(lines)
                   if line.startswith("point ")]
        assert members and not any(l.startswith("cluster ") for l in lines)
        variants = [lines] + [lines[:i] + lines[i + 1:] for i in
                              sorted({members[0], members[len(members) // 2],
                                      members[-1]})]
        codes = []
        for variant in variants:
            text = "".join(variant)
            new = _verdict(cnf, proof, text, capsys)
            old = _verdict(cnf, proof, _as_pinned_clusters(text), capsys)
            assert new == old, (cnf.name, text)
            codes.append(new[0])
        assert codes[0] == 0 and 1 in codes[1:], cnf.name
    assert unsat == 7


def test_zero_variable_point_proof_round_trips(tmp_path, capsys):
    cnf, sym, proof = tmp_path / "f.cnf", tmp_path / "f.sym", tmp_path / "f.proof"
    cnf.write_text("p cnf 0 1\n0\n")
    sym.write_text("")
    for sym_args in ([], ["--mode", "sym", "--sym", str(sym)]):
        mode = sym_args or ["--mode", "ssp"]
        assert cli_main(["solve", *mode, "--proof", str(proof),
                         str(cnf)]) == 20
        assert proof.read_text() == "point clause 1\nresult UNSAT\n"
        capsys.readouterr()
        assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 0
        assert capsys.readouterr().out == "verified: result UNSAT\n"


def test_mutated_generator_expands_but_is_no_symmetry():
    # The premise of the first mutation: (1 3) maps no placement clause
    # onto a clause, yet every transport it meets has an image.
    formula, _ = ph_formula(3, 2)
    assert not is_symmetric(formula,
                            Permutation.from_cycles(parse_cycles("(1 3)"), 6))


def test_verify_refuses_an_expansion_over_the_orbit_limit(tmp_path, capsys,
                                                          monkeypatch):
    # verify passes no limit of its own, so the expansion's default rules.
    cnf, proof = _ph32_sym_proof(tmp_path)
    monkeypatch.setattr(cli, "expand_mod_sym_to_ssp",
                        functools.partial(expand_mod_sym_to_ssp, limit=10))
    capsys.readouterr()
    assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err == "error: expansion exceeds 10 points\n"


def test_orbit_tables_over_the_limit_are_refused(tmp_path, capsys):
    # A hundred generators over 1000 variables would need about 500 MB of
    # lookup tables.
    cnf, sym = tmp_path / "wide.cnf", tmp_path / "many.sym"
    proof = tmp_path / "many.proof"
    cnf.write_text("p cnf 1000 1\n1 0\n")
    sym.write_text("()\n" * 100)
    proof.write_text("sym ()\n" * 100 + "cluster -1 0 clause 1\nresult UNSAT\n")
    for argv in (["solve", "--mode", "sym", "--sym", str(sym), str(cnf)],
                 ["verify", "--proof", str(proof), str(cnf)]):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 100 generators over 1000 variables")
        assert err.count("\n") == 1 and "over the limit of 64 MB" in err


def test_symmetry_file_with_overlapping_cycles_is_refused(tmp_path, capsys):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf)])
    sym.write_text("(1 3)(3 5)\n")
    capsys.readouterr()
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     str(cnf)]) == 1
    assert capsys.readouterr().err == (
        "error: x3 appears twice; cycles must be disjoint\n")


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


@pytest.mark.parametrize("pop", ["fifo", "lifo"])
def test_sym_mode_refuses_lifo(tmp_path, capsys, pop):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--pop", pop, str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--pop" in err


@pytest.mark.parametrize("mode, flags", [
    ("ssp", ["--no-merge"]),
    ("ssp", ["--split", "unit-first"]),
    ("ssp", ["--coverage", "full"]),
    ("sym", ["--no-merge"]),
    ("sym", ["--split", "first-intersecting"]),
    ("sym", ["--coverage", "shared"]),
    ("ssc", ["--sym", "unread.sym"]),
    ("ssc-ne", ["--orbit-limit", "5"]),
    ("ssp", ["--orbit-limit", "5"]),
    # No mode reads --trace-style without --trace.
    ("ssc", ["--trace-style", "pretty"]),
    ("ssp", ["--trace-style", "pretty"]),
    ("sym", ["--trace-style", "pretty"]),
    # ssc-ne starts from every clause's cube, so it reads no --init.
    ("ssc-ne", ["--init", "-2 -3"]),
])
def test_solve_refuses_flags_the_mode_does_not_read(tmp_path, capsys,
                                                    mode, flags):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    sym_args = ["--sym", str(sym)] if mode == "sym" else []
    assert cli_main(["solve", "--mode", mode, *sym_args, *flags, str(cnf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flags[0] in err


def test_solve_accepts_flags_the_mode_reads(tmp_path):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "3", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "ssc-ne", "--no-merge", "--split",
                     "unit-first", "--coverage", "shared", str(cnf)]) == 20
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--orbit-limit", "100", str(cnf)]) == 20
    assert cli_main(["solve", "--mode", "ssp", "--pop", "lifo", str(cnf)]) == 20


def test_sym_mode_sat_instance(tmp_path):
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    cli_main(["gen-ph", "2", "2", "-o", str(cnf), "--sym-out", str(sym)])
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym), str(cnf)]) == 10
    proof = tmp_path / "ph.proof"
    assert cli_main(["solve", "--mode", "sym", "--sym", str(sym),
                     "--proof", str(proof), str(cnf)]) == 10
    assert proof.read_text().endswith("result SAT\n")
    assert cli_main(["verify", "--proof", str(proof), str(cnf)]) == 0


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
    assert cli_main(["solve", "--split", "unit-first", vb_file]) == 20
    assert cli_main(["solve", "--split", "first-intersecting", vb_file]) == 20
    # These two are the only split choices.
    assert cli_main(["solve", "--split", "most-constrained", vb_file]) == 1


def test_pretty_trace_style(vb_file, tmp_path):
    trace = tmp_path / "pretty.trace"
    cli_main(["solve", "--init", "-2 -3", "--trace", str(trace),
              "--trace-style", "pretty", vb_file])
    lines = trace.read_text().splitlines()
    assert lines[0] == "1 initialize cube ¬x2 ¬x3 clause 1"
    assert lines[-1] == "16 finish result UNSAT"


def test_pretty_trace_writes_the_all_free_cube_as_t(tmp_path):
    path = tmp_path / "free.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    pretty, dimacs = tmp_path / "pretty.trace", tmp_path / "dimacs.trace"
    for trace, style in ((pretty, "pretty"), (dimacs, "dimacs")):
        assert cli_main(["solve", "--trace", str(trace), "--trace-style",
                         style, str(path)]) == 10
    assert pretty.read_text().splitlines()[:2] == [
        "1 initialize cube T",
        "2 split cube T var 1 -> cube ¬x1 kept | cube x1 kept"]
    assert dimacs.read_text().splitlines()[:2] == [
        "1 initialize cube  0",
        "2 split cube  0 var 1 -> cube -1 0 kept | cube 1 0 kept"]


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
        sym_args = ["--sym", str(sym)] if mode == "sym" else []
        code = cli_main(["solve", "--mode", mode, *sym_args,
                         "--proof", str(proof), str(path)])
        assert code == expected, mode
        assert cli_main(["verify", "--proof", str(proof), str(path)]) == 0
    out = capsys.readouterr().out
    assert ("v 0" in out.splitlines()) == text.startswith("p cnf 0 0")
