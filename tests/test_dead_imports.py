"""Every module-level import in the package and in its tests is used.

No linter runs on this code, and deleting a function easily leaves its
imports behind. `__init__.py` is exempt: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import stablesat

MODULES = sorted(p for p in Path(stablesat.__file__).parent.glob("*.py")
                 if p.name != "__init__.py") + \
    sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport re\nfrom x import a, b as c\nre.compile(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
