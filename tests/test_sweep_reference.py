"""Guard for the sweep references: one pass of each ``run_sweep`` benchmark workload.

Runs every op of ``perfbench/workloads.CampusDay`` and of
``perfbench/workloads.FeederRamp`` (seed 1) once and applies the
benchmark's own check: every slot's convergence, its voltages within
1e-10 pu and its bins against the committed campus reference or the
benchmark's own Newton-Raphson, and the exact energy ledger.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import gridstress

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def _problems(workload) -> list[str]:
    ops = workload.passes(random.Random(1))
    assert ops
    return [problem for op in ops for problem in op.check(op.run())]


def test_campus_day_matches_the_reference():
    workload = _workloads().CampusDay()
    workload.setup(gridstress, seed=1)
    assert _problems(workload) == []


def test_feeder_ramp_matches_the_benchmark_newton_raphson():
    workload = _workloads().FeederRamp()
    workload.prepare(1, gridstress.congestion.bin_label)
    workload.setup(gridstress, seed=1)
    assert _problems(workload) == []
