"""Every private name defined in the package is read somewhere in it.

No linter runs on this code, and a refactor easily leaves a private
helper behind that nothing calls any more. The names checked are those
a module defines at its top level and those a class defines: its
methods, its class attributes and the attributes its methods assign on
`self`. A name counts as read when it is loaded anywhere in the
package, as a plain name or as an attribute; assigning an attribute
does not read it, but updating one in place (`+=`) does.
"""

import ast
from pathlib import Path

import stablesat

PACKAGE = sorted(Path(stablesat.__file__).parent.glob("*.py"))


def defined_names(body):
    """The names the statements of a module or class body define."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def self_attributes(cls):
    """The attributes the methods of a class assign on `self`."""
    return [node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def private_definitions(tree):
    """The names a module defines at its top level or in its classes
    that start with one underscore."""
    names = defined_names(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names += defined_names(node.body) + self_attributes(node)
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def names_read(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and \
                isinstance(node.target, ast.Attribute):
            read.add(node.target.attr)
        elif isinstance(node, (ast.Name, ast.Attribute)) and \
                not isinstance(node.ctx, ast.Store):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return read


def unread_private_names(sources):
    """(module, name) of each private name, defined at a module's top
    level or in a class, that no module in `sources` (module -> source
    text) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return sorted({(module, name) for module, tree in trees.items()
                   for name in private_definitions(tree) if name not in read})


def test_unread_private_names_are_found():
    sources = {"a": "_used = 1\n_left = 2\nclass _Gone: pass\n"
                    "def _helper(): return _used\n",
               "b": "from a import _helper\nx = a._helper()\n"}
    assert unread_private_names(sources) == [("a", "_Gone"), ("a", "_left")]


def test_unread_private_class_members_are_found():
    sources = {"a": "class Box:\n"
                    "    _kind = 'box'\n"
                    "    _spare = 0\n"
                    "    def __init__(self):\n"
                    "        self._items = []\n"
                    "        self._stale = None\n"
                    "        self._count = 0\n"
                    "    def add(self, item):\n"
                    "        self._items.append(item)\n"
                    "        self._count += 1\n"
                    "    def _unused(self): return self._kind\n",
               "b": "from a import Box\nBox()._items\n"}
    assert unread_private_names(sources) == [
        ("a", "_spare"), ("a", "_stale"), ("a", "_unused")]


def test_no_unread_private_names_in_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []
