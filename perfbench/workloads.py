"""The three workloads: their set-up, one pass of ops, and output checks.

An op is one timed call into the program's public API. ``run`` is the
timed part; ``check`` runs after the clock stops and returns the
problems it found (an empty list means the output is correct).

* ``campus_day``: the bundled 46-bus campus fixture, all five scenarios
  through ``run_sweep`` (one op per scenario-day), every recorded slot
  binned. Checked against the committed reference.
* ``feeder_ramp``: a seeded radial feeder (``feeder.py``) run as
  null-controller days over a ramp of EV penetrations; the top step is
  past voltage collapse. Checked against the benchmark's own NR and its
  exact energy ledger.
* ``cli_files``: the file pipeline in-process through ``cli_main``.
  Checked against committed exit codes and output-file digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import feeder

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VOLTAGE_TOL_PU = 1e-10
SLOTS = 96
ANCHOR = ("base", 36)        # calibration slot: two branches in 40-80, none higher


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    slots: int               # recorded slot results the op yields


# ----------------------------------------------------------- shared checks

def _complex_voltages(solution) -> np.ndarray:
    return np.asarray(solution.v_mag) * np.exp(1j * np.asarray(solution.v_ang))


def check_sweep(result, hists, branch_ids, ref_converged, ref_voltages, ref_bins,
                ref_ledger=None) -> list[str]:
    """Compare one sweep with its reference.

    ``ref_voltages[k]`` and ``ref_bins[k]`` are the reference for slot k
    (consulted for converged slots only); ``ref_converged[k]`` is its
    convergence. The ledger must balance exactly and, when a reference
    ledger (demanded, served, unserved) is given, equal it.
    """
    problems = []
    records = result.records
    if [r.interval for r in records] != list(range(SLOTS)) or len(hists) != SLOTS:
        return [f"{result.scenario}: expected {SLOTS} recorded slots in order"]
    diverged = {r.interval for r in records if not r.solution.converged}
    ref_diverged = {k for k in range(SLOTS) if not ref_converged[k]}
    if diverged != ref_diverged:
        problems.append(f"{result.scenario}: diverged slots {sorted(diverged)} "
                        f"!= reference {sorted(ref_diverged)}")
    for record, hist in zip(records, hists):
        k = record.interval
        if k in diverged or k in ref_diverged:
            continue
        err = float(np.max(np.abs(_complex_voltages(record.solution) - ref_voltages[k])))
        if not err <= VOLTAGE_TOL_PU:
            problems.append(f"{result.scenario} slot {k}: voltage off reference by {err:.3g} pu")
        bins = tuple((hist.branch_bins or {}).get(b) for b in branch_ids)
        if bins != tuple(ref_bins[k]):
            problems.append(f"{result.scenario} slot {k}: bin assignment differs from reference")
    ledger = result.ledger
    if ledger.served_kwh + ledger.unserved_kwh != ledger.demanded_kwh:
        problems.append(f"{result.scenario}: ledger served + unserved != demanded")
    if ref_ledger is not None and (ledger.demanded_kwh, ledger.served_kwh,
                                   ledger.unserved_kwh) != ref_ledger:
        problems.append(f"{result.scenario}: ledger differs from reference")
    return problems


def _sweep_op(gs, net, scenario, profiles, check) -> Op:
    def run():
        result = gs.scenario.run_sweep(net, scenario, profiles)
        hists = [gs.congestion.bin_loadings(r.solution.loading_by_branch())
                 for r in result.records]
        return result, hists

    return Op(scenario.name, run, lambda out: check(*out), SLOTS)


# -------------------------------------------------------------- campus_day

def load_campus_reference() -> dict[str, Any]:
    with np.load(REFERENCE_DIR / "campus_day.npz", allow_pickle=False) as data:
        ref = {key: data[key] for key in data.files}
    labels = [str(x) for x in ref["labels"]]
    ref["bin_labels"] = {
        str(name): [tuple(labels[c] for c in row) for row in ref["bins"][s]]
        for s, name in enumerate(ref["scenarios"])}
    ref["voltages"] = ref["v_mag"] * np.exp(1j * ref["v_ang"])
    return ref


class CampusDay:
    name = "campus_day"

    def setup(self, gs, seed: int) -> None:
        self.gs = gs
        self.bundle = gs.benchmark.build_benchmark()
        self.ref = load_campus_reference()

    def passes(self, rng: random.Random) -> list[Op]:
        scenarios = list(self.bundle.scenarios)
        rng.shuffle(scenarios)
        return [_sweep_op(self.gs, self.bundle.network, sc, self.bundle.profiles,
                          self._checker(sc.name)) for sc in scenarios]

    def _checker(self, name: str) -> Callable:
        ref = self.ref
        s = [str(x) for x in ref["scenarios"]].index(name)
        branch_ids = [str(b) for b in ref["branch_ids"]]
        ledger = tuple(Fraction(str(x)) for x in ref["ledger"][s])

        def check(result, hists) -> list[str]:
            problems = check_sweep(result, hists, branch_ids, ref["converged"][s],
                                   ref["voltages"][s], ref["bin_labels"][name], ledger)
            if name == ANCHOR[0]:
                counts = hists[ANCHOR[1]].counts()
                if counts != {"40-80": 2, "80-100": 0, "100-150": 0, ">150": 0}:
                    problems.append(f"calibration anchor broken at {ANCHOR}: {counts}")
            return problems

        return check


# ------------------------------------------------------------- feeder_ramp

class FeederRamp:
    name = "feeder_ramp"

    def prepare(self, seed: int, bin_label) -> None:
        """Untimed: the reference outcome of every slot, from the benchmark's NR."""
        self.spec = feeder.generate(seed)
        self.ref = feeder.reference(self.spec, bin_label)

    def setup(self, gs, seed: int) -> None:
        self.gs = gs
        spec = feeder.generate(seed)
        self.net, self.scenarios, self.profiles = feeder.to_program_inputs(spec, gs)
        violations = gs.network.validate_network(self.net)
        if violations:
            raise RuntimeError(f"generated feeder is invalid: {violations[:3]}")

    def passes(self, rng: random.Random) -> list[Op]:
        order = list(range(len(self.scenarios)))
        rng.shuffle(order)
        return [_sweep_op(self.gs, self.net, self.scenarios[k], self.profiles,
                          self._checker(k)) for k in order]

    def _checker(self, step: int) -> Callable:
        refs = [self.ref[(step, k)] for k in range(SLOTS)]
        branch_ids = [b.id for b in self.net.branches]

        ledger = feeder.reference_ledger(self.spec, feeder.RAMP[step])

        def check(result, hists) -> list[str]:
            return check_sweep(result, hists, branch_ids,
                               [r.voltages is not None for r in refs],
                               [r.voltages for r in refs], [r.bins for r in refs], ledger)

        return check


# --------------------------------------------------------------- cli_files

def digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_cli(gs, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gs.cli.cli_main(argv)
    return code, out.getvalue()


class CliFiles:
    """``cli_main`` commands over a fixture and a stored detail set.

    Set-up writes the campus fixture files and the 96 per-slot detail
    CSVs of the ``ev25_pv_lm`` day, which ``report`` re-bins.
    """

    name = "cli_files"
    detail_scenario = "ev25_pv_lm"

    def __init__(self, work: Path):
        self.work = work

    def setup(self, gs, seed: int) -> None:
        self.write_inputs(gs)
        self.ref = json.loads((REFERENCE_DIR / "cli_files.json").read_text())

    def write_inputs(self, gs) -> None:
        """The fixture files and the stored detail set the commands read."""
        self.gs = gs
        fio = gs.fileio
        bundle = gs.benchmark.build_benchmark()
        fixture = self.work / "fixture"
        (fixture / "profiles").mkdir(parents=True, exist_ok=True)
        (fixture / "scenarios").mkdir(exist_ok=True)
        (fixture / "network.json").write_text(fio.emit_network_file(bundle.network))
        for profile in bundle.profiles.values():
            (fixture / "profiles" / f"{profile.id}.csv").write_text(fio.emit_profile_csv(profile))
        for sc in bundle.scenarios:
            (fixture / "scenarios" / f"{sc.name}.json").write_text(fio.emit_scenario_file(sc))
        details = self.work / "details"
        details.mkdir(exist_ok=True)
        day = gs.scenario.run_sweep(bundle.network, bundle.scenario(self.detail_scenario),
                                    bundle.profiles)
        for record in day.records:
            (details / f"{self.detail_scenario}_slot{record.interval:02d}.csv").write_text(
                fio.detail_csv_for_solution(record.solution))
        self.scenario_names = [sc.name for sc in bundle.scenarios]

    def commands(self) -> list[tuple[str, list[str], int]]:
        """(label, argv, recorded slots) for every command of a pass."""
        fx = self.work / "fixture"
        net = str(fx / "network.json")
        cmds = [
            ("benchmark_csv", ["benchmark", "--out", str(self.work / "benchmark_csv"),
                               "--format", "csv"], len(self.scenario_names)),
            ("benchmark_json", ["benchmark", "--out", str(self.work / "benchmark_json"),
                                "--format", "json-text"], len(self.scenario_names)),
            ("validate", ["validate", "--network", net], 0),
        ]
        for name in self.scenario_names:
            cmds.append((f"solve_{name}", [
                "solve", "--network", net, "--scenario", str(fx / "scenarios" / f"{name}.json"),
                "--profiles", str(fx / "profiles"), "--out", str(self.work / f"solve_{name}")], 1))
        detail_files = sorted(str(p) for p in (self.work / "details").glob("*.csv"))
        cmds.append(("report", ["report", *detail_files, "--out", str(self.work / "report")], 0))
        return cmds

    def passes(self, rng: random.Random) -> list[Op]:
        cmds = self.commands()
        rng.shuffle(cmds)
        return [self._op(label, argv, slots) for label, argv, slots in cmds]

    def _op(self, label: str, argv: list[str], slots: int) -> Op:
        out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        expected = self.ref[label]

        def check(result) -> list[str]:
            code, stdout = result
            problems = []
            if code != expected["exit"]:
                problems.append(f"{label}: exit {code}, expected {expected['exit']}")
            if out_dir is not None and digest_tree(out_dir) != expected["files"]:
                problems.append(f"{label}: output files differ from reference")
            if "stdout" in expected and (
                    hashlib.sha256(stdout.encode()).hexdigest() != expected["stdout"]):
                problems.append(f"{label}: stdout differs from reference")
            return problems

        return Op(label, lambda: run_cli(self.gs, argv), check, slots)

    def reference_entry(self, label: str, argv: list[str], result) -> dict[str, Any]:
        """What ``make_reference.py`` stores for one command."""
        code, stdout = result
        entry: dict[str, Any] = {"exit": code}
        if "--out" in argv:
            entry["files"] = digest_tree(Path(argv[argv.index("--out") + 1]))
        # Only commands whose stdout carries no path are compared byte for byte.
        if label == "report" or label.startswith("solve_"):
            entry["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        return entry
