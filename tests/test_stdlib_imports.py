"""The package needs only the standard library.

Every import in `src/stablesat`, function-level ones included, is
relative, of `stablesat` itself, or of a standard-library module, so
installing the package pulls in nothing and every command loads nothing
else.
"""

import ast
import sys
from pathlib import Path

import pytest

import stablesat

PACKAGE = sorted(Path(stablesat.__file__).parent.glob("*.py"))


def foreign_imports(source: str):
    """(line, module) of each import that is neither relative, nor of
    stablesat, nor of the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in modules
                  if name.split(".")[0] not in
                  sys.stdlib_module_names | {"stablesat"}]
    return found


def test_foreign_imports_are_found():
    source = ("import os, numpy.linalg\nfrom . import core\n"
              "from stablesat.core import Clause\n"
              "def f():\n    from scipy import sparse\n")
    assert foreign_imports(source) == [(1, "numpy.linalg"), (5, "scipy")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
