"""Byte guard for the command line: every ``cli_files`` benchmark command.

Runs each command of ``perfbench/workloads.CliFiles`` once through
``cli_main`` and applies the benchmark's own check: exit code, the
SHA-256 of every output file and, for ``solve`` and ``report``, of
stdout, against ``perfbench/reference/cli_files.json``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import gridstress
import gridstress.cli  # noqa: F401  (the workload calls gridstress.cli.cli_main)
import gridstress.fileio  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_cli_files_commands_match_the_reference(tmp_path):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    workload = workloads.CliFiles(tmp_path)
    workload.setup(gridstress, seed=1)
    ops = workload.passes(random.Random(1))
    assert sorted(op.label for op in ops) == sorted(workload.ref)
    problems = [problem for op in ops for problem in op.check(op.run())]
    assert problems == []
