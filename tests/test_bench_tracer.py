"""The traced benchmark run (bench/tracer.py) wraps library functions as
bound in the modules that call them; each one must still be there."""

import importlib
import runpy
import time
from pathlib import Path

from stablesat.cli import cli_main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_wraps_resolve():
    wraps = runpy.run_path(str(TRACER), run_name="bench_tracer")["WRAPS"]
    assert wraps
    for module_name, attr, _, _ in wraps:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_traced_layer_fires(tmp_path):
    tracer_module = runpy.run_path(str(TRACER), run_name="bench_tracer")
    cnf, sym = tmp_path / "ph.cnf", tmp_path / "ph.sym"
    assert cli_main(["gen-ph", "3", "2", "-o", str(cnf),
                     "--sym-out", str(sym)]) == 0
    proofs = {mode: str(tmp_path / f"{mode}.proof")
              for mode in ("ssc", "ssp", "sym")}
    commands = [
        (["solve", "--mode", "ssc", "--proof", proofs["ssc"], str(cnf)], 20),
        (["verify", "--proof", proofs["ssc"], str(cnf)], 0),
        # A partial start builds and queries each neighbour; the all-free
        # start above builds none with the trace off.
        (["solve", "--mode", "ssc", "--init", "-1", str(cnf)], 20),
        (["solve", "--mode", "ssp", "--proof", proofs["ssp"], str(cnf)], 20),
        (["solve", "--mode", "sym", "--sym", str(sym), "--proof", proofs["sym"],
          str(cnf)], 20),
        # The orbit expansion runs when verify reads the sym proof.
        (["verify", "--proof", proofs["sym"], str(cnf)], 0),
    ]
    tracer = tracer_module["Tracer"](time.perf_counter)
    tracer.install()
    try:
        for argv, code in commands:
            assert tracer.command(cli_main, argv) == code, argv
    finally:
        tracer.uninstall()
    recorded = {span[1] for span in tracer.spans}
    missing = [name for _, _, name, _ in tracer_module["WRAPS"]
               if name not in recorded]
    assert not missing
    # The counters that fix the certificate, pinned: a change that calls
    # a traced function a different number of times shows here, not
    # only in the benchmark's counters line.
    metrics = tracer_module["layer_metrics"](tracer.spans)
    assert {name: metrics[name] for name in tracer_module["DETERMINISTIC"]} == {
        "ssc.iterations": 41, "ssc.body": 14, "ssc.learned": 8,
        "ssc.splits": 19, "cubes.merge_calls": 12, "cubes.nbhd_calls": 7,
        "coverage.engine_queries": 32, "coverage.verify_queries": 1,
        "symmetry.representatives": 6, "symmetry.expanded_points": 27,
        "ssp.points": 23}
