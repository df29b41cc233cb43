"""Every module-level private name in the package is read somewhere in it.

No linter runs on this code, and a refactor easily leaves a private
helper behind that nothing calls any more. A name counts as read when
it is loaded anywhere in the package, as a plain name or as an
attribute.
"""

import ast
from pathlib import Path

import stablesat

PACKAGE = sorted(Path(stablesat.__file__).parent.glob("*.py"))


def private_definitions(tree):
    """The module-level names of a module starting with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def names_read(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources):
    """(module, name) of each private module-level name that no module
    in `sources` (module -> source text) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return sorted((module, name) for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in read)


def test_unread_private_names_are_found():
    sources = {"a": "_used = 1\n_left = 2\nclass _Gone: pass\n"
                    "def _helper(): return _used\n",
               "b": "from a import _helper\nx = a._helper()\n"}
    assert unread_private_names(sources) == [("a", "_Gone"), ("a", "_left")]


def test_no_unread_private_names_in_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []
