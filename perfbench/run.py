"""gridstress benchmark entry point.

    python3 perfbench/run.py --workload campus_day --seed 1 --seconds 35 --trace 0

Run from the repository root. Prints the run's environment and every
metric by name with its unit, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run. Exits non-zero without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

WORKLOADS = ("campus_day", "feeder_ramp", "cli_files")


def main(argv: list[str] | None = None) -> int:
    # One BLAS/OpenMP thread, fixed before numpy loads, so that the
    # numbers measure the program and not the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path.insert(0, str(root / "src"))
    import harness

    run = harness.Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        try:
            run.set_up()
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if run.work.parent.exists() and not any(run.work.parent.iterdir()):
            run.work.parent.rmdir()

    env = harness.environment(root)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, passes=run.passes, tail_percentile=run.tail_percentile)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    attempted, failed = run.attempted, run.failed
    print(f"ops attempted {attempted} (warm-up pass included), timed {len(run.op_s)}, "
          f"failed {failed} (failed_op_frac {failed / attempted:.4f})")
    per_label: dict[str, list[float]] = {}
    for label, secs in zip(run.op_labels, run.op_s):
        per_label.setdefault(label, []).append(secs)
    print("median op ms: " + ", ".join(f"{label} {statistics.median(v) * 1e3:.1f}"
                                       for label, v in sorted(per_label.items())))
    metrics = run.per_layer() if args.trace else run.end_to_end()
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6g} {unit}")
    if args.trace:
        m = {k: v for k, (v, _) in metrics.items()}
        print(f"trace accounting per pass: layer self {m['trace.layer_self_s']:.6f} s + "
              f"untraced {m['trace.untraced_s']:.6f} s = {m['trace.layer_self_s'] + m['trace.untraced_s']:.6f} s; "
              f"traced pass wall {m['trace.pass_wall_s']:.6f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
