"""No module of the package imports a name it never uses.

A name listed in the module's __all__, or imported on a line marked
``# noqa: F401`` (kept for a caller that binds it by name), is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridstress"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return [f"{imported[name]}: {name}" for name in sorted(unused, key=imported.get)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import Mapping, Sequence\n"
              "from .network import Generator, Network\n"
              "from .powerflow import solve  # noqa: F401\n"
              "__all__ = ['Sequence']\n"
              "def f(net: Network) -> Mapping:\n"
              "    return {}\n")
    assert unused_imports(source) == ["2: math", "4: Generator"]
