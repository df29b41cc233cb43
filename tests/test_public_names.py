"""Every public function and method defined in the package is read by
name somewhere in the program: in a module of the package, or in the
benchmark scripts under `bench/`.

This is the public twin of `test_private_names.py`. A public function
that only the tests call is no part of the program, and nothing else
flags it. The names checked are the functions a module defines at its
top level and the methods (properties included) its classes define,
less private and dunder names. A name counts as read when it is loaded
as a plain name or as an attribute in a package module other than
`__init__.py`, whose imports only re-export, or in a bench script. A
bench string constant that spells the name counts too: the tracer
looks up the functions it wraps by name.
"""

import ast
from pathlib import Path

import stablesat

PACKAGE = sorted(Path(stablesat.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def public_functions(tree):
    """The public functions of a module and the public methods of its
    classes."""
    names = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        names += [item.name for item in body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in names if not name.startswith("_")]


def names_read(tree, strings=False):
    """The names a module loads; with `strings`, also its string
    constants."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and \
                isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_public_names(package, bench):
    """(module, name) of each public function or method defined in
    `package` (module -> source text) that no package module but
    `__init__.py`, and no script in `bench` (script -> source text),
    reads."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = set().union(
        *(names_read(tree) for module, tree in trees.items()
          if module != "__init__.py"),
        *(names_read(ast.parse(source), strings=True)
          for source in bench.values()))
    return sorted({(module, name) for module, tree in trees.items()
                   for name in public_functions(tree) if name not in read})


def test_unread_public_names_are_found():
    package = {"__init__.py": "from .a import gone, kept, Box\n",
               "a.py": "def kept(): return 1\n"
                       "def gone(): return kept()\n"
                       "def wrapped(): pass\n"
                       "class Box:\n"
                       "    def __len__(self): return 0\n"
                       "    @property\n"
                       "    def size(self): return 0\n"
                       "    def spare(self): return self.size\n",
               "b.py": "from a import Box\nBox().size\n"}
    bench = {"tracer.py": "WRAPS = [('a', 'wrapped')]\n"}
    assert unread_public_names(package, bench) == [("a.py", "gone"),
                                                   ("a.py", "spare")]


def test_no_unread_public_names_in_package():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    bench = {path.name: path.read_text(encoding="utf-8") for path in BENCH}
    assert bench, "no bench scripts found"
    assert unread_public_names(package, bench) == []
