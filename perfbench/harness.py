"""Set-up, the closed measurement loop, and the metrics of one run.

One process, no threads: each op starts when the previous one returns.
A pass is one traversal of the workload's ops in a seeded order. The run
sets up several times (each time re-importing the program), warms up
with one unmeasured pass, measures whole passes until ``seconds`` have
elapsed, then sets up the remaining times. Splitting the set-ups between
both ends of the run makes their median sample the machine's speed at
two moments rather than one. With tracing on, passes alternate untraced
and traced so that the tracing overhead is measured on the same work.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

import spans
import workloads

# Set-ups per run, the median reported. Campus and feeder set-ups take
# about 60 ms, the cli_files one (a campus day plus 100 file writes) 0.6 s.
SETUP_REPEATS = {"campus_day": 31, "feeder_ramp": 31, "cli_files": 7}
# A high whole percentile that keeps at least ten ops beyond it in a 35 s
# run, with room for a slower machine (ops per 35 s run: campus_day
# 90-100, feeder_ramp 66-75, cli_files ~2300).
TAIL_PERCENTILE = {"campus_day": 85, "feeder_ramp": 80, "cli_files": 99}


def import_program(src: Path):
    """Import ``gridstress`` afresh from ``src`` and nowhere else."""
    for name in [m for m in sys.modules if m == "gridstress" or m.startswith("gridstress.")]:
        del sys.modules[name]
    gs = importlib.import_module("gridstress")
    importlib.import_module("gridstress.fileio")
    importlib.import_module("gridstress.cli")
    if Path(gs.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"gridstress imported from {gs.__file__}, not from {src}")
    return gs


def make_workload(name: str, work: Path):
    if name == "campus_day":
        return workloads.CampusDay()
    if name == "feeder_ramp":
        return workloads.FeederRamp()
    return workloads.CliFiles(work)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict[str, Any]:
    # The ceiling keeps git from taking the commit of a repository above root.
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10, env=git_env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


class Run:
    """One benchmark run of a workload."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.workload = make_workload(workload, self.work)
        self.tracer = spans.Tracer()
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.op_labels: list[str] = []
        self.slots = 0
        self.attempted = 0     # every op run, the warm-up pass included
        self.failed = 0
        self.problems: list[str] = []
        self.pass_s = {False: [], True: []}   # op seconds per pass, by traced
        self.traced_ops: set = set()
        self.traced_slots = 0
        self.ybus_networks = 0

    # -------------------------------------------------------------- set-up
    def set_up(self) -> None:
        """The untimed reference, if any, and the first half of the set-ups."""
        if hasattr(self.workload, "prepare"):
            gs = import_program(self.root / "src")
            self.workload.prepare(self.seed, gs.congestion.bin_label)
        self._set_ups(range((self.setup_repeats + 1) // 2))

    def _set_ups(self, reps: range) -> None:
        src = self.root / "src"
        for rep in reps:
            start = time.perf_counter()
            gs = import_program(src)
            if self.trace:
                self.tracer.op = ("setup", rep)
                with self.tracer.span("setup"), spans.rebound(
                        spans.setup_bindings(gs, self.tracer)):
                    self.workload.setup(gs, self.seed)
            else:
                self.workload.setup(gs, self.seed)
            self.setup_s.append(time.perf_counter() - start)
        self.gs = gs

    # ---------------------------------------------------------------- ops
    def _run_op(self, op: workloads.Op, op_id: Any, traced: bool) -> float:
        """Time one op, check it, and count it; returns its seconds."""
        if traced:
            self.tracer.op = op_id
            root_span = self.tracer.open("op")
        start = time.perf_counter()
        problems = None
        try:
            result = op.run()
        except Exception:
            problems = [f"{op.label}: raised\n{traceback.format_exc()}"]
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.close(root_span)
        if problems is None:
            try:
                problems = op.check(result)
            except Exception:
                problems = [f"{op.label}: check raised\n{traceback.format_exc()}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def _pass(self, rng: random.Random, index: int, traced: bool, measured: bool) -> None:
        ops = self.workload.passes(rng)
        self.tracer.networks.clear()
        bindings = spans.op_bindings(self.gs, np.linalg, self.tracer) if traced else []
        total = 0.0
        with spans.rebound(bindings):
            for k, op in enumerate(ops):
                elapsed = self._run_op(op, (index, k), traced)
                total += elapsed
                if measured:
                    self.op_s.append(elapsed)
                    self.op_labels.append(op.label)
                    self.slots += op.slots
                    if traced:
                        self.traced_ops.add((index, k))
                        self.traced_slots += op.slots
        if measured:
            self.pass_s[traced].append(total)
            if traced:
                self.ybus_networks += len(self.tracer.networks)

    def measure(self) -> None:
        rng = random.Random(self.seed)
        self._pass(rng, -1, traced=False, measured=False)     # warm-up
        start = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - start < self.seconds or (
                self.trace and index % 2):
            self._pass(rng, index, traced=self.trace and index % 2 == 1, measured=True)
            index += 1
        self.passes = index
        self._set_ups(range(len(self.setup_s), self.setup_repeats))

    # ------------------------------------------------------------ metrics
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        busy = sum(self.op_s)
        n = len(self.op_s)
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (n / busy, "1/s"),
            "op_ms_p50": (float(np.percentile(self.op_s, 50)) * 1e3, "ms"),
            "op_ms_tail": (float(np.percentile(self.op_s, self.tail_percentile)) * 1e3, "ms"),
            "slots_per_s": (self.slots / busy, "1/s"),
            "ok_op_frac": ((self.attempted - self.failed) / self.attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    @property
    def tail_percentile(self) -> int:
        return TAIL_PERCENTILE[self.workload.name]

    @property
    def setup_repeats(self) -> int:
        return SETUP_REPEATS[self.workload.name]

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per traced pass (set-up layers: per set-up), from the spans."""
        traced_passes = len(self.pass_s[True])
        by_name = spans.totals_by_name(self.tracer.spans, self.traced_ops)
        setups = {("setup", rep) for rep in range(self.setup_repeats)}
        setup_by_name = spans.totals_by_name(self.tracer.spans, setups)
        out: dict[str, tuple[float, str]] = {}

        def layer(name, calls=True, run_self=True):
            c, s = by_name.get(name, (0, 0.0))
            if calls:
                out[f"{name}.calls"] = (c / traced_passes, "count")
            if run_self:
                out[f"{name}.self_s"] = (s / traced_passes, "s")

        counters = self.tracer.counters
        per_pass = lambda key: counters[key] / traced_passes  # noqa: E731
        nr_calls = by_name.get("powerflow.solve_newton_raphson", (0, 0.0))[0]
        layer("powerflow.solve_newton_raphson")
        layer("powerflow.linear_solve")
        out["powerflow.iterations"] = (per_pass("powerflow.iterations"), "count")
        out["powerflow.iterations_per_solve"] = (
            counters["powerflow.iterations"] / nr_calls if nr_calls else 0.0, "count")
        out["powerflow.jacobian_flops_computed"] = (
            per_pass("powerflow.jacobian_flops_computed"), "flop")
        out["powerflow.linear_solve_flops_computed"] = (
            per_pass("powerflow.linear_solve_flops_computed"), "flop")
        out["powerflow.diverged_solves"] = (per_pass("powerflow.diverged_solves"), "count")
        layer("powerflow.branch_flows")
        layer("powerflow.build_ybus")
        ybus_calls = by_name.get("powerflow.build_ybus", (0, 0.0))[0]
        out["powerflow.ybus_builds_per_network"] = (
            ybus_calls / self.ybus_networks if self.ybus_networks else 0.0, "count")
        out["scenario.useful_solve_ratio"] = (
            self.traced_slots / nr_calls if nr_calls else 0.0, "ratio")
        layer("scenario.one_third_stagger")
        layer("scenario.build_injections")
        layer("scenario.run_sweep")
        layer("congestion.bin_loadings")
        layer("fileio.parse")
        out["fileio.parse.bytes"] = (per_pass("fileio.parse.bytes"), "B")
        layer("fileio.emit")
        out["fileio.emit.bytes"] = (per_pass("fileio.emit.bytes"), "B")
        layer("network.validate_network")
        layer("cli.cli_main")
        out["cli.nonzero_exits"] = (per_pass("cli.nonzero_exits"), "count")
        for name in ("network.derive_impedances", "benchmark.build_benchmark"):
            out[f"{name}.self_s"] = (
                setup_by_name.get(name, (0, 0.0))[1] / self.setup_repeats, "s")

        untraced_s = statistics.fmean(self.pass_s[False])
        traced_s = statistics.fmean(self.pass_s[True])
        out["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        wall = sum(span[spans.END] - span[spans.START] for span in self.tracer.spans
                   if span[spans.NAME] == "op" and span[spans.OP] in self.traced_ops)
        out["trace.pass_wall_s"] = (wall / traced_passes, "s")
        out["trace.untraced_s"] = (by_name.get("op", (0, 0.0))[1] / traced_passes, "s")
        layer_sum = sum(s for name, (_, s) in by_name.items() if name != "op")
        out["trace.layer_self_s"] = (layer_sum / traced_passes, "s")
        return out
