"""Every name a module of the package imports is used in that module, and
every private function, method or class is referenced somewhere in the
package.

A standard-library stand-in for an unused-code lint: it parses each
``src/sgrg/*.py`` file and checks the names bound by ``import`` statements,
at module level or inside functions, and the ``_name`` definitions.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgrg"


def imported_names(tree):
    """{bound name: line} for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "annotations":
                    out[alias.asname or alias.name] = node.lineno
    return out


def referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom math import pi, tau as t\n\ndef f():\n    import sys\n    return pi\n")
    assert set(imported_names(tree)) - referenced_names(tree) == {"os", "t", "sys"}


def private_definitions(tree):
    """Every _name function, method or class defined in the module (no dunders)."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]


def name_uses(node) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
    return uses


def unreferenced_private(trees) -> list:
    """Private definitions that nothing outside their own body refers to."""
    total = sum((name_uses(tree) for tree in trees), Counter())
    return [
        node.name for tree in trees for node in private_definitions(tree)
        if total[node.name] - name_uses(node)[node.name] <= 0
    ]


def test_no_unreferenced_private_definitions():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private(trees) == []


def test_unreferenced_private_is_caught():
    a = ast.parse(
        "class _Used:\n    def __init__(self):\n        pass\n    def _dead(self):\n        pass\n"
        "def _rec(n):\n    return _rec(n - 1)\n"
        "def _helper():\n    return _Used()\n"
    )
    b = ast.parse("from a import _helper\n\nx = _helper()\n")
    assert sorted(unreferenced_private([a, b])) == ["_dead", "_rec"]
