"""Every name a module imports is read somewhere in it.

A stdlib ast scan, since no linter is a dependency: a name bound by an
import statement in src/crossratio/*.py or tests/*.py must be loaded
somewhere in the same module, or appear in a string that parses as an
expression (an ``__all__`` entry, a quoted annotation).  ``from __future__``
imports bind no name anyone reads and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/crossratio/*.py"), *ROOT.glob("tests/*.py")])


def imported_names(tree):
    """{name: line} for each name an import statement in tree binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def read_names(tree):
    """Names loaded in tree, or in a string constant of it that parses as an expression."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_the_scan_sees_the_modules():
    assert {"ratio.py", "verify.py", "test_imports.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert unused == {}


def test_the_scan_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from json import dumps as d, loads\n"
        "__all__ = ['loads']\n"
        "x: 'sys.Thing' = 1\n"
    )
    read = read_names(tree)
    assert {n for n in imported_names(tree) if n not in read} == {"os", "d"}
