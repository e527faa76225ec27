"""No module of the package imports a name it never uses, and every
power flow the package solves goes through one path.

A name listed in the module's __all__, or imported on a line marked
``# noqa: F401`` (kept for a caller that binds it by name), is exempt.
The one path: the command line solves only through scenario.run_study
and run_sweep, and only run_study and solve_newton_raphson (a batch of
one) call the Newton-Raphson batch, powerflow._newton_raphson.
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


def calls_by_function(source: str) -> dict[str, set[str]]:
    """The names each top-level function or class of source calls, by
    function or attribute name; calls outside any are under "<module>"."""
    calls: dict[str, set[str]] = {}
    for node in ast.parse(source).body:
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        calls.setdefault(node.name if named else "<module>", set()).update(
            call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)))
    return calls


def test_cli_solves_only_through_the_study():
    solvers = {"build_injections", "solve_newton_raphson", "_newton_raphson"}
    calls = calls_by_function((PACKAGE / "cli.py").read_text())
    assert {name: called & solvers for name, called in calls.items() if called & solvers} == {}


def test_only_the_study_and_a_single_solve_call_the_batch():
    callers = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name, called in calls_by_function(path.read_text()).items()
               if "_newton_raphson" in called}
    assert callers == {"scenario.run_study", "powerflow.solve_newton_raphson"}


def test_calls_are_found_by_function():
    source = ("import numpy as np\n"
              "x = np.zeros(3)\n"
              "def f(net):\n"
              "    def inner():\n"
              "        return _newton_raphson(net, x)\n"
              "    return inner()\n"
              "class C:\n"
              "    def m(self):\n"
              "        return self.solve()\n")
    assert calls_by_function(source) == {"<module>": {"zeros"}, "f": {"_newton_raphson", "inner"},
                                          "C": {"solve"}}
