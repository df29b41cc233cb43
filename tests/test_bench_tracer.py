"""The traced benchmark run (bench/tracer.py) wraps library functions as
bound in the modules that call them; each one must still be there."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_wraps_resolve():
    wraps = runpy.run_path(str(TRACER), run_name="bench_tracer")["WRAPS"]
    assert wraps
    for module_name, attr, _, _ in wraps:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
