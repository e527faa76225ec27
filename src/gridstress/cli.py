"""Command-line driver.

Subcommands: validate (lint a network file), solve (one interval),
sweep (a full 96-slot day), report (re-bin stored per-branch detail
files), benchmark (materialize the bundled campus fixture and run its
scenario set). Exit status: 0 success, 1 diagnostics (bad input or
usage), 2 solver divergence in a requested interval.

solve is a study of the scenario with the null controller: its nominal
EV draw. benchmark is one study of its scenarios for the one interval,
so a stagger controller acts there from an empty ledger, and the two
commands can bin the same scenario and slot differently.

The simulator itself uses no randomness; output bytes depend only on
the inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from . import benchmark as benchmark_fixture
from .congestion import CongestionHistogram, bin_loadings, congested_elements
from .fileio import (
    GridFileError,
    detail_csv_for_solution,
    emit_network_file,
    emit_profile_csv,
    emit_report_csv,
    emit_report_json,
    emit_scenario_file,
    emit_sweep_csv,
    parse_branch_detail_csv,
    parse_network_file,
    parse_profile_csv,
    parse_scenario_file,
)
from .network import Network
from .scenario import SLOTS_PER_DAY, LoadProfile, Scenario, ScenarioConfigError, run_study, run_sweep
# Kept importable from this module: the benchmark's traced run
# (perfbench/spans.py) binds cli.build_injections and cli.solve_newton_raphson by name.
from .powerflow import solve_newton_raphson  # noqa: F401
from .scenario import build_injections  # noqa: F401

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_DIVERGED = 2

REPORT_FORMATS = ("csv", "json-text")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as diagnostics (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _interval(text: str) -> int:
    """argparse type of --interval, a slot index in [0, 95]. argparse lets
    the _UsageError of an out-of-range slot pass through unchanged."""
    try:
        slot = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= slot < SLOTS_PER_DAY:
        raise _UsageError(f"--interval must be in [0, {SLOTS_PER_DAY - 1}], got {slot}")
    return slot


def _add_run_arguments(parser: argparse.ArgumentParser, interval_default: int | None) -> None:
    parser.add_argument("--network", required=True, help="network JSON file")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--profiles", required=True, help="directory of profile CSV files")
    if interval_default is not None:
        parser.add_argument("--interval", type=_interval, default=interval_default,
                            help="15-minute slot index 0-95 (default: %(default)s, 09:00)")
    parser.add_argument("--out", default=None, help="directory for report files")
    parser.add_argument("--format", choices=REPORT_FORMATS, default="csv",
                        help="summary report format (default: %(default)s)")


def _build_arg_parser() -> _Parser:
    parser = _Parser(prog="gridstress",
                     description="Distribution-grid stress studies for EV charging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="lint a network file")
    p_validate.add_argument("--network", required=True)

    # 09:00 is slot 36: the busiest charging hour, when most vehicles
    # have arrived.
    p_solve = sub.add_parser("solve", help="solve one interval and print loadings")
    _add_run_arguments(p_solve, interval_default=36)

    p_sweep = sub.add_parser("sweep", help="run all 96 intervals of a scenario")
    _add_run_arguments(p_sweep, interval_default=None)

    p_report = sub.add_parser("report", help="bin stored per-branch detail files")
    p_report.add_argument("details", nargs="+", help="detail CSV files to re-bin")
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--format", choices=REPORT_FORMATS, default="csv")

    p_bench = sub.add_parser("benchmark",
                             help="write the bundled campus fixture and run its scenarios")
    p_bench.add_argument("--out", required=True, help="directory for fixture and reports")
    p_bench.add_argument("--interval", type=_interval, default=36)
    p_bench.add_argument("--format", choices=REPORT_FORMATS, default="csv")

    return parser


def _load_inputs(args: argparse.Namespace) -> tuple[Network, Scenario, dict[str, LoadProfile]]:
    net = parse_network_file(Path(args.network).read_text())
    scenario = parse_scenario_file(Path(args.scenario).read_text(), net)
    profiles_dir = Path(args.profiles)
    if not profiles_dir.is_dir():
        raise GridFileError([f"profiles directory not found: {profiles_dir}"])
    profiles: dict[str, LoadProfile] = {}
    for path in sorted(profiles_dir.glob("*.csv")):
        profiles[path.stem] = parse_profile_csv(path.read_text(), path.stem)
    return net, scenario, profiles


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _summary(rows: list[tuple[str, CongestionHistogram]], fmt: str, out: str | None,
             echo: bool = False) -> None:
    """Emit the summary report once in fmt; print it if echo, write it under out if given."""
    if fmt == "csv":
        text, filename = emit_report_csv(rows), "report.csv"
    else:
        text, filename = emit_report_json(rows), "report.json"
    if echo:
        print(text, end="")
    if out:
        _write(Path(out) / filename, text)


def _solve_slot(net: Network, scenarios: Sequence[Scenario], profiles: dict[str, LoadProfile],
                interval: int, fmt: str, out: str | None, detail: str) -> int:
    """Solve interval of every scenario as one study; print and bin each
    slot. Under out, if given, write each slot's detail CSV at
    detail.format(scenario name, interval) and the summary report."""
    rows: list[tuple[str, CongestionHistogram]] = []
    diverged = False
    for result in run_study(net, scenarios, profiles, [interval]):
        solution = result.records[0].solution
        hist = bin_loadings(solution.loading_by_branch())
        status = "converged" if solution.converged else "DIVERGED"
        vmin, vmax = solution.voltage_range()
        print(f"{result.scenario} slot {interval}: {status} in {solution.iterations} iterations, "
              f"slack {solution.slack_injection.real * net.s_base_mva:.3f} MW "
              f"({solution.slack_injection.real:.4f} pu)")
        print(f"  voltage band: {vmin:.4f} - {vmax:.4f} pu")
        print(f"  loading bins: <40%: {hist.below_40}  "
              + "  ".join(f"{label}: {count}" for label, count in hist.counts().items()))
        worst = congested_elements(solution, 80.0)[:5]
        for branch_id, loading in worst:
            print(f"    {loading:7.1f}%  {branch_id}")
        if out:
            _write(Path(out) / detail.format(result.scenario, interval),
                   detail_csv_for_solution(solution))
        rows.append((result.scenario, hist))
        diverged = diverged or not solution.converged
    if out:
        _summary(rows, fmt, out)
    return EXIT_DIVERGED if diverged else EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    parse_network_file(Path(args.network).read_text())
    print(f"{args.network}: OK")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    net, scenario, profiles = _load_inputs(args)
    nominal = dataclasses.replace(scenario, controller="null")
    return _solve_slot(net, [nominal], profiles, args.interval, args.format, args.out,
                       "detail_{}_slot{:02d}.csv")


def _cmd_sweep(args: argparse.Namespace) -> int:
    net, scenario, profiles = _load_inputs(args)
    result = run_sweep(net, scenario, profiles)
    diverged = result.diverged_intervals()
    print(f"{scenario.name}: {len(result.records)} intervals, "
          f"{len(diverged)} diverged")
    ledger = result.ledger
    print(f"  EV energy kWh: demanded {float(ledger.demanded_kwh):.1f}, "
          f"served {float(ledger.served_kwh):.1f}, unserved {float(ledger.unserved_kwh):.1f}")

    if args.out:
        _write(Path(args.out) / f"sweep_{scenario.name}.csv", emit_sweep_csv(result.records))
        for record in result.records:
            _write(Path(args.out) / "details"
                   / f"{scenario.name}_slot{record.interval:02d}.csv",
                   detail_csv_for_solution(record.solution))
    return EXIT_DIVERGED if diverged else EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    rows: list[tuple[str, CongestionHistogram]] = []
    for path_text in args.details:
        path = Path(path_text)
        try:
            detail = parse_branch_detail_csv(path.read_text())
        except GridFileError as exc:
            raise GridFileError([f"{path}: {d}" for d in exc.diagnostics]) from exc
        # The parser has checked every row's bin against its loading.
        rows.append((path.stem, CongestionHistogram.from_labels(
            {branch: label for branch, (_, _, label) in detail.items()})))
    _summary(rows, args.format, args.out, echo=True)
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    bundle = benchmark_fixture.build_benchmark()

    _write(out_dir / "network.json", emit_network_file(bundle.network))
    for profile in bundle.profiles.values():
        _write(out_dir / "profiles" / f"{profile.id}.csv", emit_profile_csv(profile))
    for scenario in bundle.scenarios:
        _write(out_dir / "scenarios" / f"{scenario.name}.json", emit_scenario_file(scenario))

    code = _solve_slot(bundle.network, bundle.scenarios, bundle.profiles, args.interval,
                       args.format, args.out, "details/{}_slot{:02d}.csv")
    print(f"fixture and reports written to {out_dir}")
    return code


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "benchmark": _cmd_benchmark,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ScenarioConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except GridFileError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
