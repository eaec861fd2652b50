"""No module of the package imports a name it never uses, defines a
private name that no module reads or a public function or class that
neither a module nor a demo uses, or gives a function a parameter that its
body never reads.  A removal that leaves an import, a helper or a parameter
behind fails here, as a linter would flag it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arccover"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree) -> list:
    """The names bound by the imports of `tree` that no expression reads,
    `from __future__` imports aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _names_read(trees) -> set:
    """Every name that an expression of `trees` reads, as a name or an
    attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _unused_privates(trees) -> list:
    """The top-level functions, classes and assigned names of `trees` (a
    dict of module name to tree) with one leading underscore that no
    expression of any tree reads, as a name or an attribute."""
    read = _names_read(trees.values())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unused)


def _unused_publics(trees, users) -> list:
    """(module, line, name) for each top-level function or class of
    `trees` (a dict of module name to tree) without a leading underscore
    that no expression of `trees` or of `users` reads, as a name or an
    attribute."""
    read = _names_read([*trees.values(), *users])
    return sorted((module, node.lineno, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def _unread_parameters(tree) -> list:
    """(line, function, parameter) for each parameter of a function of
    `tree` that no expression of its body reads, nested functions
    included.  A body that is a lone `raise` after its docstring, as of an
    abstract method, reads none and is skipped."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        if len(body) == 1 and isinstance(body[0], ast.Raise):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, p.arg) for p in params if p.arg not in read]
    return sorted(unread)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "import numpy as np\nfrom math import inf, pi\nnp.zeros(pi)\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "inf")]


def test_every_private_name_is_read():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    assert _unused_privates(trees) == []


def test_an_unread_private_name_is_caught():
    tree = ast.parse("import os\n_READ = 1\n_UNREAD = 2\n_a, _b = 3, 4\n__x__ = 5\n"
                     "def _f():\n    return _READ + _b\n"
                     "class _C:\n    pass\n"
                     "def _g():\n    _f()\n")
    other = ast.parse("import m\nm._g()\n_C = None\n")
    assert _unused_privates({"m": tree, "n": other}) == [
        ("m", 3, "_UNREAD"), ("m", 4, "_a"), ("m", 8, "_C"), ("n", 3, "_C")]


def test_every_public_name_is_used():
    # a public function or class that no experiment, CLI path or demo uses
    # is deleted, not kept for a caller that does not exist
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    demos = [ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / "demos").glob("*.py"))]
    assert demos
    assert _unused_publics(trees, demos) == []


def test_an_unused_public_name_is_caught():
    tree = ast.parse("def used():\n    pass\n"
                     "def forgotten():\n    return used()\n"
                     "class Kept:\n    pass\n"
                     "class Dropped:\n    def method(self):\n        pass\n"
                     "def _private():\n    pass\n")
    demo = ast.parse("import m\nm.Kept()\nmethod = 1\n")
    assert _unused_publics({"m": tree}, [demo]) == [("m", 3, "forgotten"), ("m", 7, "Dropped")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    assert _unread_parameters(ast.parse(path.read_text(), str(path))) == []


def test_an_unread_parameter_is_caught():
    tree = ast.parse("def f(a, b, /, c, *args, d, e=1, **kw):\n    return a + c + e + len(kw)\n"
                     "def g(x):\n    \"\"\"Abstract.\"\"\"\n    raise NotImplementedError\n"
                     "def h(x):\n    raise ValueError(x)\n"
                     "def k(x, y):\n    def inner(z):\n        return x\n    del y\n"
                     "    return inner\n"
                     "class C:\n    def m(self, u):\n        return self\n")
    assert _unread_parameters(tree) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "d"), (8, "k", "y"), (9, "inner", "z"),
        (14, "m", "u")]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"simulate", "lengths", "cli", "torus"}
