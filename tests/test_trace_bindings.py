"""The benchmark's traced run rebinds package attributes by name.

perfbench/spans.py wraps module attributes such as
``scenario.solve_newton_raphson`` and ``powerflow.build_ybus`` in
spans; a rename in the package would break the traced run, so every
attribute it names must exist and be callable.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy

import gridstress
import gridstress.cli  # noqa: F401  (op_bindings reads gridstress.cli)
import gridstress.fileio  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_op_bindings_build_against_the_package():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    bindings = spans.op_bindings(gridstress, numpy.linalg, tracer)
    bindings += spans.setup_bindings(gridstress, tracer)
    assert bindings
    for owner, attr, replacement in bindings:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
        assert callable(replacement)
    with spans.rebound(bindings):
        pass
    for owner, attr, replacement in bindings:
        assert getattr(owner, attr) is not replacement
