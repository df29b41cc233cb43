"""Byte identity of everything the CLI writes, in every solve mode.

Each run solves one formula under one flag set with --trace and --proof,
then verifies the proof. Its exit codes, stdout, trace file and proof
file are hashed into one SHA-256 digest, pinned in
tests/data/output_digests.json. The sym runs read the pigeon-hole
generators and write no trace, which that mode refuses. A speed-up of
the engine or its checker must leave every digest unchanged. After an intended output change,
regenerate the file with

    PYTHONPATH=src python tests/test_output_identity.py > tests/data/output_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

from stablesat.cli import cli_main
from stablesat.dimacs import write_dimacs
from stablesat.symmetry import (format_symmetry_file, ph_formula,
                                ph_symmetry_generators)

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "output_digests.json")

FLAG_SETS = {
    "ssc": ["--mode", "ssc"],
    "ssc-ne": ["--mode", "ssc-ne"],
    "lifo": ["--pop", "lifo"],
    "first-intersecting": ["--split", "first-intersecting"],
    "shared": ["--coverage", "shared"],
    # Many starts and the shared-literal scope: the run with the most
    # shared-scope coverage queries.
    "ne-shared": ["--mode", "ssc-ne", "--coverage", "shared"],
    "no-merge": ["--no-merge"],
    "ssp": ["--mode", "ssp"],
    "ssp-lifo": ["--mode", "ssp", "--pop", "lifo"],
    # A start that pins x1 keeps the neighbourhood coverage queries, and
    # only there can --pop order the pushed neighbours.
    "init": ["--init", "-1"],
    "init-lifo": ["--init", "-1", "--pop", "lifo"],
}


def _random_3cnf(seed: int) -> str:
    # Only Random.random() keeps its sequence across Python versions.
    rng = random.Random(seed)
    n = 6 + seed % 7
    clauses = []
    for _ in range(round(4.26 * n)):
        variables = []
        while len(variables) < 3:
            v = 1 + int(rng.random() * n)
            if v not in variables:
                variables.append(v)
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v)
                                for v in variables) + " 0\n")
    return f"p cnf {n} {len(clauses)}\n" + "".join(clauses)


def _formulas() -> dict:
    out = {f"ph{p}{h}": write_dimacs(ph_formula(p, h)[0])
           for p, h in ((3, 2), (4, 3))}
    out.update((f"rnd{seed}", _random_3cnf(seed)) for seed in range(12))
    return out


def _run(cmd: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(cmd)
    return f"exit {code}\n{out.getvalue()}"


def _digest(text: str, flags: list, tmp: str, trace: bool = True) -> str:
    cnf, trace_path, proof = (os.path.join(tmp, name)
                              for name in ("f.cnf", "f.trace", "f.proof"))
    with open(cnf, "w", encoding="utf-8") as handle:
        handle.write(text)
    traced = ["--trace", trace_path] if trace else []
    written = [trace_path, proof] if trace else [proof]
    parts = [_run(["solve", *flags, *traced, "--proof", proof, cnf])]
    for path in written:
        with open(path, "r", encoding="utf-8") as handle:
            parts.append(handle.read())
    parts.append(_run(["verify", "--proof", proof, cnf]))
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _sym_digests(tmp: str) -> dict:
    out = {}
    for p, h in ((3, 2), (4, 3)):
        formula, inst = ph_formula(p, h)
        sym = os.path.join(tmp, f"ph{p}{h}.sym")
        with open(sym, "w", encoding="utf-8") as handle:
            handle.write(format_symmetry_file(ph_symmetry_generators(inst)))
        out[f"ph{p}{h} sym"] = _digest(write_dimacs(formula),
                                       ["--mode", "sym", "--sym", sym], tmp,
                                       trace=False)
    return out


def compute_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name} {label}": _digest(text, flags, tmp)
                   for name, text in _formulas().items()
                   for label, flags in FLAG_SETS.items()}
        digests.update(_sym_digests(tmp))
        return digests


def test_cli_output_matches_pinned_digests():
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    got = compute_digests()
    assert sorted(got) == sorted(pinned)
    changed = [run for run in got if got[run] != pinned[run]]
    assert not changed, f"output changed on {len(changed)} runs: {changed}"


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1, sort_keys=True))
