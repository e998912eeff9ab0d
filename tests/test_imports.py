"""Every name a module of the package imports is used in that module,
every private function, method or class is referenced somewhere in the
package, and every public one somewhere in the package or its tests.

A standard-library stand-in for an unused-code lint: it parses each
``src/sgrg/*.py`` file and checks the names bound by ``import`` statements,
at module level or inside functions, and the function, method and class
definitions.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgrg"
TESTS = Path(__file__).resolve().parent


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


def definitions(tree):
    """Every function, method or class defined in the module."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def private_definitions(tree):
    """Every _name function, method or class defined in the module (no dunders)."""
    return [
        node for node in definitions(tree)
        if node.name.startswith("_") and not node.name.endswith("__")
    ]


def public_definitions(tree):
    """Every function, method or class whose name does not start with _."""
    return [node for node in definitions(tree) if not node.name.startswith("_")]


def name_uses(node) -> Counter:
    """How often each name is read: ("name", id) for a bare name,
    ("attr", name) for an attribute read ``x.name``."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            uses["attr", sub.attr] += 1
    return uses


def methods(tree) -> set:
    """The ids of the function nodes defined directly in a class body."""
    return {
        id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def unreferenced(defined, trees, users=()) -> list:
    """Definitions in ``trees`` that nothing in ``trees`` or ``users`` refers
    to outside their own body.  An import alone is not a reference, and a
    method is referred to only by an attribute read: a local or parameter of
    the same name does not count."""
    total = sum((name_uses(tree) for tree in [*trees, *users]), Counter())

    def refs(uses, node, is_method):
        return uses["attr", node.name] + (0 if is_method else uses["name", node.name])

    out = []
    for tree in trees:
        in_class = methods(tree)
        for node in defined(tree):
            is_method = id(node) in in_class
            if refs(total, node, is_method) - refs(name_uses(node), node, is_method) <= 0:
                out.append(node.name)
    return out


def parse_all(folder):
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(folder.glob("*.py"))]


def test_no_unreferenced_private_definitions():
    assert unreferenced(private_definitions, parse_all(SRC)) == []


def test_no_unreferenced_public_definitions():
    assert unreferenced(public_definitions, parse_all(SRC), parse_all(TESTS)) == []


def test_unreferenced_private_is_caught():
    a = ast.parse(
        "class _Used:\n    def __init__(self):\n        pass\n    def _dead(self):\n        pass\n"
        "def _rec(n):\n    return _rec(n - 1)\n"
        "def _helper():\n    return _Used()\n"
    )
    b = ast.parse("from a import _helper\n\nx = _helper()\n")
    assert sorted(unreferenced(private_definitions, [a, b])) == ["_dead", "_rec"]


def test_unreferenced_public_is_caught():
    src = ast.parse(
        "class Used:\n    def method(self):\n        return self.method()\n"
        "    def called(self):\n        pass\n"
        "    def shifted(self):\n        pass\n"
        "def helper(shifted=0):\n    return Used().called(), shifted\n"
        "def dead():\n    return helper()\n"
    )
    # an import alone is not a use, nor is a parameter named like a method
    test = ast.parse("from pkg import dead, helper\n\ndef test_helper():\n    assert helper()\n")
    assert sorted(unreferenced(public_definitions, [src], [test])) == ["dead", "method", "shifted"]
