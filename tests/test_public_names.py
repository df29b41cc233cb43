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

The same holds for options: every field of a package `*Config`
dataclass is passed by keyword in some package module other than
`__init__.py`. A field only the tests set is no part of the program.
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


def config_fields(tree):
    """(class, field) of each field the module's `*Config` classes
    declare."""
    return [(node.name, item.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def callee(call):
    """The name a call's function is spelled by, bare or as an attribute."""
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def config_keywords(tree, classes):
    """The keywords the module passes to a call of one of the classes,
    with those of a `**_given(...)` among its arguments: the CLI builds
    a config's keywords from the flags given."""
    passed = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and callee(node) in classes):
            continue
        for keyword in node.keywords:
            value = keyword.value
            if keyword.arg is not None:
                passed.add(keyword.arg)
            elif isinstance(value, ast.Call) and callee(value) == "_given":
                passed.update(item.arg for item in value.keywords)
    return passed


def unset_config_fields(package):
    """(module, class, field) of each field of a `*Config` class in
    `package` (module -> source text) that no call of that class in a
    package module but `__init__.py` passes by keyword."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    fields = [(module, cls, field) for module, tree in trees.items()
              for cls, field in config_fields(tree)]
    classes = {cls for _, cls, _ in fields}
    passed = set().union(*(config_keywords(tree, classes)
                           for module, tree in trees.items()
                           if module != "__init__.py"))
    return sorted(entry for entry in fields if entry[2] not in passed)


def test_unset_config_fields_are_found():
    # `spare` is passed only by `__init__.py` and to another class.
    package = {"__init__.py": "from .a import RunConfig\n"
                              "RunConfig(spare=True)\n",
               "a.py": "from dataclasses import dataclass\n"
                       "@dataclass\n"
                       "class RunConfig:\n"
                       "    kept: int = 0\n"
                       "    given: str = ''\n"
                       "    spare: bool = False\n"
                       "class Box:\n"
                       "    size: int = 0\n",
               "b.py": "import a\n"
                       "a.RunConfig(kept=1, **_given(args, given='flag'))\n"
                       "Result(spare=[])\n"}
    assert unset_config_fields(package) == [("a.py", "RunConfig", "spare")]


def test_no_unset_config_fields_in_package():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert any(config_fields(ast.parse(source)) for source in package.values())
    assert unset_config_fields(package) == []
