"""No module of the package imports a name it never uses, it exports
no name that only tests use, and every power flow the package solves
goes through one path.

A name listed in the module's __all__, or imported on a line marked
``# noqa: F401`` (kept for a caller that binds it by name), is exempt.
The one path: the command line solves only through scenario.run_study
and run_sweep, and only run_study and solve_newton_raphson (a batch of
one) call the Newton-Raphson batch, powerflow._newton_raphson. The
Newton-Raphson Jacobian, powerflow._JacobianWork, is built elementwise
at its pattern, with no matrix product. Importing the package and its
command line builds no argument parser.

An export is used when code outside the tests reads it: a package module
other than __init__.py, a perfbench script, or a word of README.md.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridstress"


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


def names_read(source: str) -> set[str]:
    """The names source reads, as names, attributes or imported names;
    a definition or an assignment is not a read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_outside_the_tests():
    scripts = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    scripts += [path for path in sorted((ROOT / "perfbench").rglob("*.py"))
                if "tests" not in path.relative_to(ROOT).parts]
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in scripts:
        used |= names_read(path.read_text())
    exported = _exported(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert sorted(exported - used) == []


def test_names_read_skip_definitions():
    source = ("from .network import Network as Net\n"
              "class Solver:\n"
              "    pass\n"
              "def solve(net):\n"
              "    limit = 3\n"
              "    return net.branches, limit\n")
    assert names_read(source) == {"Network", "branches", "net", "limit"}


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


def test_a_scenario_day_is_evaluated_in_one_place():
    calls = {f"{path.stem}.{name}": called for path in sorted(PACKAGE.glob("*.py"))
             for name, called in calls_by_function(path.read_text()).items()}
    assert {name for name, called in calls.items() if "_day_injections" in called} == \
        {"scenario._scenario_day"}
    assert {name for name, called in calls.items() if "_scenario_day" in called} == \
        {"scenario.run_study", "scenario.build_injections"}


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


def matrix_products(source: str, name: str) -> list[str]:
    """The matrix products that the top-level function or class name of
    source takes: each call of matmul, dot or diag, and each @."""
    node = next(node for node in ast.parse(source).body if getattr(node, "name", None) == name)
    found = sorted(calls_by_function(ast.unparse(node))[name] & {"matmul", "dot", "diag"})
    return found + ["@" for op in ast.walk(node)
                    if isinstance(op, (ast.BinOp, ast.AugAssign)) and isinstance(op.op, ast.MatMult)]


def test_the_jacobian_takes_no_matrix_product():
    assert matrix_products((PACKAGE / "powerflow.py").read_text(), "_JacobianWork") == []


def split_products(source: str) -> list[str]:
    """The _cmul calls of source that do not pass two whole complex arrays:
    another number of arguments, a starred or keyword one, or a .real or
    .imag part."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_cmul"]
    return [ast.unparse(call) for call in calls
            if len(call.args) != 2 or call.keywords or any(
                isinstance(arg, ast.Starred)
                or isinstance(arg, ast.Attribute) and arg.attr in ("real", "imag")
                for arg in call.args)]


def test_cmul_takes_two_complex_arrays():
    source = (PACKAGE / "powerflow.py").read_text()
    assert "_cmul(" in source
    assert split_products(source) == []


def test_split_products_are_found():
    source = ("def f(v, y, c):\n"
              "    a = _cmul(y, v)\n"
              "    b = _cmul(y.real, y.imag, v.real, v.imag)\n"
              "    return _cmul(*c, v), _cmul(v.real, y), _cmul(v, b=y)\n")
    assert split_products(source) == ["_cmul(y.real, y.imag, v.real, v.imag)", "_cmul(*c, v)",
                                      "_cmul(v.real, y)", "_cmul(v, b=y)"]


def test_matrix_products_are_found():
    source = ("import numpy as np\n"
              "class W:\n"
              "    def slab(self, v, y):\n"
              "        d = np.diag(v) @ y\n"
              "        d @= np.matmul(y, y)\n"
              "        return d.dot(v)\n"
              "def f(v):\n"
              "    return v @ v\n")
    assert matrix_products(source, "W") == ["diag", "dot", "matmul", "@", "@"]


# Counts the argparse parsers built by importing the package and its
# command line, then by one call of the parser builder.
_COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import gridstress, gridstress.fileio, gridstress.cli
print(len(built))
gridstress.cli._build_arg_parser()
print(len(built) > 0)
"""


def test_importing_the_command_line_builds_no_parser():
    """The parser is built by the first cli_main call, so a process that
    imports the package without running a command never builds one."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", _COUNT_PARSERS], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "True"]
