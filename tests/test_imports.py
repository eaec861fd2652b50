"""No module of the package imports a name it never uses.  A removal that
leaves an import behind fails here, as a linter would flag it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "arccover"
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "import numpy as np\nfrom math import inf, pi\nnp.zeros(pi)\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "inf")]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"simulate", "lengths", "cli", "torus"}
