"""In-memory spans recorded around calls into the program's modules.

Tracing is done from the benchmark's side only: for the length of a
traced pass, public module attributes of ``gridstress`` (and
``numpy.linalg.solve``) are rebound to wrappers that open a span, call
the original and close the span. Each span records its name, start,
end, parent span and op id. A span's self time is its duration minus
the durations of its direct children; calls nest, so children never
overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self.op: Any = None
        self._stack: list[int] = []
        self.networks: dict[int, Any] = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(tracer, args, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, result)
            return result

        return traced


def self_times(spans: list[list[Any]]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            selfs[span[PARENT]] -= span[END] - span[START]
    return selfs


def totals_by_name(spans: list[list[Any]], ops: set) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name, over spans of the given op ids."""
    selfs = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, selfs):
        if span[OP] in ops:
            out[span[NAME]][0] += 1
            out[span[NAME]][1] += own
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


@contextmanager
def rebound(bindings: list[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set each ``module.attr`` to a replacement; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, replacement in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------ layer wrappers

def _after_solve(tracer: Tracer, args: tuple, solution: Any) -> None:
    n = len(args[0].buses)
    its = solution.iterations
    c = tracer.counters
    c["powerflow.iterations"] += its
    c["powerflow.diverged_solves"] += not solution.converged
    # Computed, not measured: five dense complex n x n products per
    # iteration (8 real flops per complex multiply-add), and an LU of the
    # 2(n-1) real Jacobian per iteration.
    c["powerflow.jacobian_flops_computed"] += its * 40 * n ** 3
    c["powerflow.linear_solve_flops_computed"] += its * (2 / 3) * (2 * (n - 1)) ** 3


def _after_ybus(tracer: Tracer, args: tuple, _: Any) -> None:
    tracer.networks.setdefault(id(args[0]), args[0])


def _after_parse(tracer: Tracer, args: tuple, _: Any) -> None:
    tracer.counters["fileio.parse.bytes"] += len(args[0])


def _after_emit(tracer: Tracer, _: tuple, text: str) -> None:
    tracer.counters["fileio.emit.bytes"] += len(text)


def _after_cli(tracer: Tracer, _: tuple, code: int) -> None:
    tracer.counters["cli.nonzero_exits"] += code != 0


def op_bindings(gs: Any, np_linalg: Any, tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """Wrappers for every layer boundary the workloads cross during ops."""
    scenario, powerflow, congestion = gs.scenario, gs.powerflow, gs.congestion
    fileio, cli = gs.fileio, gs.cli

    def bind(owner, attr, name, after=None):
        return (owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    bindings = [
        bind(scenario, "run_sweep", "scenario.run_sweep"),
        bind(scenario, "build_injections", "scenario.build_injections"),
        bind(scenario, "solve_newton_raphson", "powerflow.solve_newton_raphson", _after_solve),
        bind(scenario, "one_third_stagger", "scenario.one_third_stagger"),
        bind(powerflow, "build_ybus", "powerflow.build_ybus", _after_ybus),
        bind(powerflow, "branch_flows", "powerflow.branch_flows"),
        bind(np_linalg, "solve", "powerflow.linear_solve"),
        bind(congestion, "bin_loadings", "congestion.bin_loadings"),
        bind(fileio, "validate_network", "network.validate_network"),
        bind(cli, "cli_main", "cli.cli_main", _after_cli),
        bind(cli, "run_sweep", "scenario.run_sweep"),
        bind(cli, "build_injections", "scenario.build_injections"),
        bind(cli, "solve_newton_raphson", "powerflow.solve_newton_raphson", _after_solve),
        bind(cli, "bin_loadings", "congestion.bin_loadings"),
        bind(cli, "detail_csv_for_solution", "fileio.emit", _after_emit),
    ]
    for attr in sorted(vars(cli)):
        if attr.startswith("parse_"):
            bindings.append(bind(cli, attr, "fileio.parse", _after_parse))
        elif attr.startswith("emit_"):
            bindings.append(bind(cli, attr, "fileio.emit", _after_emit))
    return bindings


def setup_bindings(gs: Any, tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """Wrappers for the set-up layers: the fixture and impedance derivation."""
    return [
        (gs.benchmark, "build_benchmark",
         tracer.wrap("benchmark.build_benchmark", gs.benchmark.build_benchmark)),
        (gs.benchmark, "derive_impedances",
         tracer.wrap("network.derive_impedances", gs.benchmark.derive_impedances)),
        (gs.network, "derive_impedances",
         tracer.wrap("network.derive_impedances", gs.network.derive_impedances)),
    ]
