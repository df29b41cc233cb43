"""Self-test of the benchmark on tiny inputs (PH(4,3), n=12 formulas).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit
in both modes, that the deterministic counters and proof_bytes repeat
exactly across runs of one seed, that a certificate with one cluster
literal flipped is counted as a failed command, and that the benchmark
refuses to run where the program's sources are missing. Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(*args, cwd=run.ROOT, script=os.path.join(run.HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metric_names():
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            res = result_of(bench("--workload", workload["name"], "--seed", "3",
                                  "--trace", trace, "--tiny"))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload["name"], trace, got, want)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        print(f"ok   metric names and units: {workload['name']}")


def counters_line(proc):
    return next(l for l in proc.stdout.splitlines() if l.startswith("counters "))


def check_exact_repeat():
    for workload in run.inputs.WORKLOADS:
        args = ("--workload", workload, "--seed", "5", "--trace", "1", "--tiny")
        first, second = counters_line(bench(*args)), counters_line(bench(*args))
        assert first == second, (workload, first, second)
        print(f"ok   counters repeat exactly: {workload}")


def flip_cluster_literal(proof_path, cnf_path):
    """Flip, in the first cluster line, the literal on a variable of its
    transport clause: the cube then satisfies that clause."""
    _, clauses = run.checks.read_dimacs(cnf_path)
    with open(proof_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    learned = {int(l.split()[1]): [int(t) for t in l.split()[2:l.split().index("0")]]
               for l in lines if l.startswith("learn ")}
    index = next(i for i, l in enumerate(lines) if l.startswith("cluster "))
    tokens = lines[index].split()
    cid = int(tokens[-1])
    clause = clauses[cid - 1] if cid <= len(clauses) else learned[cid]
    target = next(i for i, t in enumerate(tokens[1:], 1)
                  if t != "0" and abs(int(t)) in {abs(l) for l in clause})
    tokens[target] = str(-int(tokens[target]))
    lines[index] = " ".join(tokens)
    with open(proof_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def check_corrupted_certificate(work):
    sys.path.insert(0, run.SRC)
    from stablesat.cli import cli_main
    manifest = run.inputs.build("ph-ssc", 1, work, tiny=True)
    instance = manifest["instances"][0]
    solve, verify = instance["commands"]
    formula = run.checks.read_dimacs(instance["cnf"])
    clean = run.Tally()
    run.run_instance(cli_main, instance, formula, clean)
    assert clean.failed == 0, clean.failures
    flip_cluster_literal(solve["proof"], instance["cnf"])
    tally = run.Tally()
    run.run_instance(cli_main, dict(instance, commands=[verify]), formula, tally)
    assert tally.attempted == 1 and tally.failed == 1, tally.failures
    assert "rejected" in tally.failures[0], tally.failures
    print("ok   flipped cluster literal counts as a failed command")


def check_refuses_without_sources(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    proc = bench("--workload", "ph-ssc", "--seed", "1", "--trace", "0", cwd=bare,
                 script=os.path.join(bare, "bench", "run.py"))
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok   refuses to run without the program's sources")


def main() -> int:
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        check_metric_names()
        check_exact_repeat()
        check_corrupted_certificate(os.path.join(work, "corrupt"))
        check_refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
