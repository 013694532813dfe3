"""No module of the package imports a name it does not use.

A name that a module under ``src/sfsnorm`` imports must be read in that
module or listed in its ``__all__``.  An import line that carries
``# noqa: F401`` is exempt (a name kept for a caller that patches it),
and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sfsnorm"


def unused_imports(source):
    """(line, name) of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((alias.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from math import gcd, lcm\n"
              "from sys import argv  # noqa: F401\n"
              "from .a import b\n"
              "__all__ = ['b']\n"
              "print(gcd(1, 2))\n")
    assert unused_imports(source) == [(2, "os"), (3, "lcm")]
