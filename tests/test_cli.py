"""Command-line surface: subcommands, exit codes, emitted files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gridstress
from gridstress import Bus, Network, Scenario
from gridstress.benchmark import PARKING_LOTS
from gridstress.cli import cli_main
from gridstress.fileio import (
    emit_network_file,
    emit_profile_csv,
    emit_scenario_file,
    parse_branch_detail_csv,
    parse_report_csv,
    parse_report_json,
)

from helpers import NETWORK_TEXT, at_or_above_100, feeder_days


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Materialize the bundled fixture once for all CLI tests."""
    out = tmp_path_factory.mktemp("bench")
    code = cli_main(["benchmark", "--out", str(out)])
    assert code == 0
    return out


def _run_args(fixture_dir, scenario, *extra):
    return [
        "--network", str(fixture_dir / "network.json"),
        "--scenario", str(fixture_dir / "scenarios" / f"{scenario}.json"),
        "--profiles", str(fixture_dir / "profiles"),
        *extra,
    ]


class TestBenchmarkCommand:
    def test_writes_fixture_and_reports(self, fixture_dir):
        assert (fixture_dir / "network.json").is_file()
        assert sorted(p.name for p in (fixture_dir / "scenarios").glob("*.json")) == [
            "base.json", "ev10.json", "ev25.json", "ev25_pv.json", "ev25_pv_lm.json"]
        assert sorted(p.name for p in (fixture_dir / "profiles").glob("*.csv")) == [
            "campus_buildings.csv", "ev_workday.csv", "pv_clear_day.csv"]
        assert (fixture_dir / "report.csv").is_file()
        assert len(list((fixture_dir / "details").glob("*.csv"))) == 5

    def test_report_shows_expected_trend(self, fixture_dir):
        rows = dict(parse_report_csv((fixture_dir / "report.csv").read_text()))
        over = {name: at_or_above_100(hist) for name, hist in rows.items()}
        assert over["base"] == 0
        assert rows["base"].bin_40_80 == 2
        assert over["ev10"] < over["ev25"]
        assert over["ev25_pv"] < over["ev25"]
        # PV raises neither overload bin.
        assert rows["ev25_pv"].bin_100_150 <= rows["ev25"].bin_100_150
        assert rows["ev25_pv"].bin_gt_150 <= rows["ev25"].bin_gt_150
        assert rows["ev25_pv_lm"].bin_100_150 == 0

    def test_output_is_reproducible(self, fixture_dir, tmp_path):
        again = tmp_path / "again"
        assert cli_main(["benchmark", "--out", str(again)]) == 0
        for name in ("network.json", "report.csv"):
            assert (again / name).read_bytes() == (fixture_dir / name).read_bytes()


class TestValidate:
    def test_fixture_validates(self, fixture_dir, capsys):
        assert cli_main(["validate", "--network", str(fixture_dir / "network.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_broken_file_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"s_base_mva": 10.0}')
        assert cli_main(["validate", "--network", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "buses" in err

    def test_missing_file_is_diagnostic(self, tmp_path, capsys):
        assert cli_main(["validate", "--network", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("old, new, diagnostic", [
        ('"kw": 100.0', '"kw": NaN', "buses[1].nominal_load.kw: not a finite number"),
        ('"rating": 1000.0', '"rating": 1e400', "branches[0].rating: not a finite number"),
        ('"rating": 1000.0', '"rating": 1' + "0" * 400,
         "branches[0].rating: not a finite number"),
    ])
    def test_non_finite_literal_is_diagnostic(self, tmp_path, capsys, old, new, diagnostic):
        bad = tmp_path / "bad.json"
        bad.write_text(NETWORK_TEXT.replace(old, new))
        assert cli_main(["validate", "--network", str(bad)]) == 1
        assert capsys.readouterr().err == diagnostic + "\n"

    def test_every_bad_number_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(NETWORK_TEXT.replace('"rating": 1000.0', '"rating": NaN')
                       .replace('"rating": 500.0', '"rating": 1e400'))
        assert cli_main(["validate", "--network", str(bad)]) == 1
        assert capsys.readouterr().err == ("branches[0].rating: not a finite number\n"
                                           "branches[1].rating: not a finite number\n")

    def test_parallel_branches_are_rejected(self, tmp_path, capsys):
        doc = json.loads(NETWORK_TEXT)
        doc["branches"].append(dict(doc["branches"][0]))
        bad = tmp_path / "parallel.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["validate", "--network", str(bad)]) == 1
        assert capsys.readouterr().err == "duplicate-branch: s -> a: branch id is not unique\n"

    def test_runs_as_a_module(self, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(NETWORK_TEXT)
        bad.write_text('{"s_base_mva": 10.0}')
        env = {**os.environ, "PYTHONPATH": str(Path(gridstress.__file__).parents[1])}
        for path, code, out in ((good, 0, f"{good}: OK\n"), (bad, 1, "")):
            done = subprocess.run(
                [sys.executable, "-m", "gridstress.cli", "validate", "--network", str(path)],
                capture_output=True, text=True, env=env, timeout=60)
            assert (done.returncode, done.stdout) == (code, out), done.stderr
        assert "buses" in done.stderr


class TestSolve:
    def test_base_case_slot_36(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "solve"
        code = cli_main(["solve", *_run_args(fixture_dir, "base"),
                         "--interval", "36", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "converged" in text
        detail = parse_branch_detail_csv(
            (out / "detail_base_slot36.csv").read_text())
        assert all(loading < 80.0 for _, loading, _ in detail.values())

    @pytest.mark.parametrize("name", ["base", "ev10", "ev25", "ev25_pv", "ev25_pv_lm"])
    def test_solution_equals_a_direct_solve_of_the_nominal_draw(
            self, fixture_dir, bench, monkeypatch, capsys, name):
        """solve is a study of the scenario without its controller: the
        nominal EV draw, the vector build_injections returns."""
        studied = []

        def spied(*args):
            studied.extend(gridstress.run_study(*args))
            return studied

        monkeypatch.setattr(gridstress.cli, "run_study", spied)
        assert cli_main(["solve", *_run_args(fixture_dir, name), "--interval", "36"]) == 0
        capsys.readouterr()
        (result,) = studied
        direct = gridstress.solve_newton_raphson(bench.network, gridstress.build_injections(
            bench.network, bench.scenario(name), bench.profiles, 36))
        assert [record.interval for record in result.records] == [36]
        assert repr(result.records[0].solution) == repr(direct)

    def test_interval_out_of_range_is_usage_error(self, fixture_dir, capsys):
        code = cli_main(["solve", *_run_args(fixture_dir, "base"),
                         "--interval", "96"])
        assert code == 1
        assert "interval" in capsys.readouterr().err

    def test_unknown_flag_rejected_with_usage(self, fixture_dir, capsys):
        code = cli_main(["solve", *_run_args(fixture_dir, "base"), "--warp", "9"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_json_text_format(self, fixture_dir, tmp_path):
        out = tmp_path / "jsonrep"
        code = cli_main(["solve", *_run_args(fixture_dir, "ev10"),
                         "--out", str(out), "--format", "json-text"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"][0]["scenario"] == "ev10"


class TestUnresolvedBindings:
    """A scenario whose bindings name a missing profile or bus is a
    diagnostic (exit 1), not a traceback."""

    @staticmethod
    def _argv(command, fixture_dir, tmp_path, edit):
        doc = json.loads((fixture_dir / "scenarios" / "ev25.json").read_text())
        edit(doc)
        scenario = tmp_path / "broken.json"
        scenario.write_text(json.dumps(doc))
        return [command, "--network", str(fixture_dir / "network.json"),
                "--scenario", str(scenario), "--profiles", str(fixture_dir / "profiles"),
                "--out", str(tmp_path / "out")]

    def test_solve_with_missing_ev_profile(self, fixture_dir, tmp_path, capsys):
        argv = self._argv("solve", fixture_dir, tmp_path,
                          lambda doc: doc["bindings"].update(ev="missing"))
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "bindings.ev: EV profile 'missing' not found\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_sweep_with_lot_on_unknown_bus(self, fixture_dir, tmp_path, capsys):
        argv = self._argv("sweep", fixture_dir, tmp_path,
                          lambda doc: doc["parking_lots"][0].update(bus="Nowhere"))
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        lot = PARKING_LOTS[0].name
        assert captured.err == f"scenario: parking lot {lot!r} references unknown bus 'Nowhere'\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_lot_on_the_slack_bus(self, fixture_dir, tmp_path, capsys, command):
        slack = json.loads((fixture_dir / "network.json").read_text())["buses"][0]
        assert slack["kind"] == "slack"
        argv = self._argv(command, fixture_dir, tmp_path,
                          lambda doc: doc["parking_lots"][0].update(bus=slack["id"]))
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        lot = PARKING_LOTS[0].name
        assert captured.err == (f"scenario: parking lot {lot!r} is on slack bus {slack['id']!r}, "
                                "where the power flow takes no injection\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("name", ["absolute", "x/../../y", "x\0y"])
def test_a_scenario_name_that_is_no_file_name_is_a_diagnostic(
        fixture_dir, tmp_path, capsys, command, name):
    """Output files are named after the scenario, so a name holding '/'
    (which could write outside --out) or NUL is rejected before any file
    is written."""
    if name == "absolute":
        name = str(tmp_path / "escaped" / "x")
    argv = TestUnresolvedBindings._argv(command, fixture_dir, tmp_path,
                                        lambda doc: doc.update(name=name))
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"scenario.name: {name!r} names output files, "
                            "so it may not hold '/' or NUL\n")
    assert captured.out == ""
    assert [p.name for p in tmp_path.rglob("*")] == ["broken.json"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("name", ["n" * 237, "é" * 118 + "n", "n" * 238, "é" * 119],
                         ids=["237-ascii", "237-utf8", "238-ascii", "238-utf8"])
def test_a_scenario_name_fits_its_longest_output_file_name(
        fixture_dir, tmp_path, capsys, command, name):
    """detail_<name>_slotNN.csv is the name plus 18 bytes and a file name
    holds 255, so a name of more than 237 UTF-8 bytes is rejected before
    any file is written."""
    argv = TestUnresolvedBindings._argv(command, fixture_dir, tmp_path,
                                        lambda doc: doc.update(name=name))
    size = len(name.encode())
    if size <= 237:
        assert cli_main(argv) == 0
        out = tmp_path / "out"
        written = ([f"detail_{name}_slot36.csv"] if command == "solve" else
                   [f"sweep_{name}.csv", f"details/{name}_slot00.csv", f"details/{name}_slot95.csv"])
        assert all((out / path).is_file() for path in written)
        return
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"scenario.name: {size} UTF-8 bytes is too long for the output "
                            "files it names; at most 237\n")
    assert captured.out == ""
    assert [p.name for p in tmp_path.rglob("*")] == ["broken.json"]


def test_a_scenario_name_counts_the_bytes_its_files_are_named_with(fixture_dir, tmp_path,
                                                                   capsys):
    """U+DC80-U+DCFF stand for the undecodable bytes of a file name and are
    written back as one byte each, so 237 of them fit a detail file name
    and 238 do not."""
    argv = TestUnresolvedBindings._argv("solve", fixture_dir, tmp_path,
                                        lambda doc: doc.update(name="\udce9" * 237))
    env = {**os.environ, "PYTHONPATH": str(Path(gridstress.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "gridstress.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(os.fsencode(tmp_path / "out"))) == [
        b"detail_" + b"\xe9" * 237 + b"_slot36.csv", b"report.csv"]
    for command in ("solve", "sweep"):
        (tmp_path / command).mkdir()
        argv = TestUnresolvedBindings._argv(command, fixture_dir, tmp_path / command,
                                            lambda doc: doc.update(name="\udce9" * 238))
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == ("scenario.name: 238 UTF-8 bytes is too long for the "
                                           "output files it names; at most 237\n")
        assert [p.name for p in (tmp_path / command).iterdir()] == ["broken.json"]


class TestStringsWithoutUtf8:
    """A JSON string holding a lone surrogate has no UTF-8 form, so the
    files and lines written from it could not be written: reading it is a
    diagnostic, and nothing is written."""

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_scenario_name(self, fixture_dir, tmp_path, capsys, command):
        argv = TestUnresolvedBindings._argv(command, fixture_dir, tmp_path,
                                            lambda doc: doc.update(name="ev\ud800"))
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "scenario: 'ev\\ud800' does not encode as UTF-8\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["broken.json"]

    @pytest.mark.parametrize("command", ["validate", "solve", "sweep"])
    def test_bus_id(self, fixture_dir, tmp_path, capsys, command):
        """The leaf bus Seirra Hall renamed, in its bus and its branch."""
        doc = json.loads((fixture_dir / "network.json").read_text())
        bus = next(i for i, b in enumerate(doc["buses"]) if b["id"] == "Seirra Hall")
        branch = next(i for i, b in enumerate(doc["branches"]) if b["to"] == "Seirra Hall")
        network = tmp_path / "network.json"
        network.write_text(json.dumps(doc).replace('"Seirra Hall"', '"Seirra\\ud800"'))
        argv = [command, "--network", str(network)]
        if command != "validate":
            argv += ["--scenario", str(fixture_dir / "scenarios" / "ev10.json"),
                     "--profiles", str(fixture_dir / "profiles"), "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"buses[{bus}]: 'Seirra\\ud800' does not encode as UTF-8\n"
                                f"branches[{branch}]: 'Seirra\\ud800' does not encode as UTF-8\n")
        assert captured.out == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["network.json"]


class TestIntervalOption:
    """solve and benchmark share one --interval check."""

    @staticmethod
    def _argv(command, fixture_dir, tmp_path, interval):
        if command == "solve":
            return ["solve", *_run_args(fixture_dir, "base"), "--interval", interval]
        return ["benchmark", "--out", str(tmp_path / "bench"), "--interval", interval]

    @pytest.mark.parametrize("command", ["solve", "benchmark"])
    @pytest.mark.parametrize("interval", ["96", "-1"])
    def test_out_of_range_is_usage_error(self, fixture_dir, tmp_path, capsys,
                                         command, interval):
        code = cli_main(self._argv(command, fixture_dir, tmp_path, interval))
        assert code == 1
        assert f"--interval must be in [0, 95], got {interval}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("command", ["solve", "benchmark"])
    def test_non_integer_is_usage_error(self, fixture_dir, tmp_path, capsys, command):
        code = cli_main(self._argv(command, fixture_dir, tmp_path, "nine"))
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --interval: invalid int value: 'nine'" in err
        assert "usage:" in err

    @pytest.mark.parametrize("command", ["solve", "benchmark"])
    @pytest.mark.parametrize("interval", ["3_6", "+36", "٣٦"])
    def test_is_written_as_a_slot_cell(self, fixture_dir, tmp_path, capsys, command, interval):
        """ASCII digits with an optional '-', as a profile's slot cell; int()
        alone would also take '_', '+' and other scripts' digits."""
        code = cli_main(self._argv(command, fixture_dir, tmp_path, interval))
        assert code == 1
        assert f"argument --interval: invalid int value: {interval!r}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("interval", ["0", "95"])
    def test_bounds_are_accepted(self, fixture_dir, tmp_path, interval):
        out = tmp_path / "solve"
        code = cli_main(["solve", *_run_args(fixture_dir, "base"),
                         "--interval", interval, "--out", str(out)])
        assert code == 0
        assert (out / f"detail_base_slot{int(interval):02d}.csv").is_file()


class TestSweep:
    def test_full_day_ev25(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(["sweep", *_run_args(fixture_dir, "ev25"), "--out", str(out)])
        assert code in (0, 2)  # heavy overload may legitimately diverge
        status = (out / "sweep_ev25.csv").read_text().splitlines()
        assert status[0] == "interval,converged,iterations,max_loading_percent,branches_ge_100"
        assert len(status) == 97
        assert len(list((out / "details").glob("ev25_slot*.csv"))) == 96
        assert "96 intervals" in capsys.readouterr().out

    def test_network_without_branches(self, tmp_path, capsys):
        network = tmp_path / "network.json"
        network.write_text(emit_network_file(Network(
            s_base_mva=10.0, buses=(Bus("source", "slack", 4.16),), branches=())))
        scenario = tmp_path / "solo.json"
        scenario.write_text(emit_scenario_file(Scenario("solo", 0.0)))
        (tmp_path / "profiles").mkdir()
        assert cli_main(["validate", "--network", str(network)]) == 0
        out = tmp_path / "sweep"
        code = cli_main(["sweep", "--network", str(network), "--scenario", str(scenario),
                         "--profiles", str(tmp_path / "profiles"), "--out", str(out)])
        assert code == 0
        status = (out / "sweep_solo.csv").read_text().splitlines()
        assert len(status) == 97
        assert status[1] == "0,1,0,0.000000,0"
        assert "solo: 96 intervals, 0 diverged" in capsys.readouterr().out

    def test_format_is_not_an_option(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(["sweep", *_run_args(fixture_dir, "base"), "--out", str(out),
                         "--format", "json-text"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --format json-text" in err
        assert "usage:" in err
        assert not out.exists()

    def test_stagger_sweep_reports_ledger(self, fixture_dir, capsys):
        code = cli_main(["sweep", *_run_args(fixture_dir, "ev25_pv_lm")])
        assert code in (0, 2)
        text = capsys.readouterr().out
        assert "EV energy" in text
        assert "unserved" in text


class TestReport:
    def test_rebins_stored_details(self, fixture_dir, tmp_path, capsys):
        detail = fixture_dir / "details" / "ev25_slot36.csv"
        out = tmp_path / "rebinned"
        code = cli_main(["report", str(detail), "--out", str(out)])
        assert code == 0
        rows = dict(parse_report_csv((out / "report.csv").read_text()))
        fixture_rows = dict(parse_report_csv((fixture_dir / "report.csv").read_text()))
        assert rows["ev25_slot36"].counts() == fixture_rows["ev25"].counts()

    def test_repeated_branch_is_diagnostic(self, tmp_path, capsys):
        detail = tmp_path / "twice.csv"
        detail.write_text("branch,kind,loading_percent,bin\n"
                          "a,cable,50.0,40-80\na,cable,10.0,<40\n")
        assert cli_main(["report", str(detail), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{detail}: detail row 2: duplicate branch 'a'\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_diagnostic_names_the_bad_file(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("branch,kind,loading_percent,bin\na,cable,50.0,40-80\n")
        bad.write_text("branch,kind,loading_percent,bin\na,cable,nan,<40\n")
        assert cli_main(["report", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{bad}: detail row 1: not a finite number: nan\n"
        assert captured.out == ""

    def test_multiple_details_one_row_each(self, fixture_dir, capsys):
        details = sorted((fixture_dir / "details").glob("*.csv"))
        code = cli_main(["report", *[str(p) for p in details]])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario,bin_40_80")
        assert len(out.strip().splitlines()) == 6


class TestRepeatedCalls:
    """cli_main builds its parser once per process; no call's options or
    failure carry over into the next."""

    def test_parser_is_built_once(self):
        assert gridstress.cli._build_arg_parser() is gridstress.cli._build_arg_parser()

    def test_format_does_not_carry_over(self, fixture_dir, tmp_path, capsys):
        first, second = tmp_path / "A", tmp_path / "B"
        assert cli_main(["solve", *_run_args(fixture_dir, "ev10"), "--format", "json-text",
                         "--out", str(first)]) == 0
        assert cli_main(["solve", *_run_args(fixture_dir, "ev10"), "--out", str(second)]) == 0
        capsys.readouterr()
        assert (first / "report.json").is_file() and not (first / "report.csv").exists()
        assert (second / "report.csv").is_file() and not (second / "report.json").exists()

    def test_usage_error_between_valid_calls(self, fixture_dir, capsys):
        argv = ["solve", *_run_args(fixture_dir, "base")]
        assert cli_main(argv) == 0
        assert cli_main([*argv, "--interval", "99"]) == 1
        assert "--interval must be in [0, 95], got 99" in capsys.readouterr().err
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("base slot 36: converged")
        assert captured.err == ""


def test_non_ascii_ids_under_an_ascii_locale(fixture_dir, tmp_path):
    """Under a locale whose encoding is ASCII, a bus id outside ASCII is
    written to the detail file as UTF-8, the encoding every input is read
    in, and printed escaped among solve's worst branches; a profile file
    is named by the UTF-8 of its stem's bytes, so the binding "év" finds
    év.csv. report reads the detail file back, and a file name outside
    ASCII is echoed escaped, written to the CSV summary with its own bytes
    and to the JSON one as the name those bytes spell in UTF-8."""
    rename = '"Chrisholm Hall"', '"Chrisholm Hall-\\u00e9"'
    network, scenario = tmp_path / "network.json", tmp_path / "ev25.json"
    network.write_text((fixture_dir / "network.json").read_text().replace(*rename))
    scenario.write_text((fixture_dir / "scenarios" / "ev25.json").read_text().replace(
        *rename).replace('"ev": "ev_workday"', '"ev": "\\u00e9v"'))
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for path in (fixture_dir / "profiles").glob("*.csv"):
        name = "\u00e9v" if path.stem == "ev_workday" else path.stem
        (profiles / f"{name}.csv").write_bytes(path.read_bytes())
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(gridstress.__file__).parents[1])}
    env.pop("PYTHONIOENCODING", None)

    def run(*argv: str) -> str:
        done = subprocess.run([sys.executable, "-m", "gridstress.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    out = tmp_path / "out"
    printed = run("solve", "--network", str(network), "--scenario", str(scenario),
                  "--profiles", str(profiles), "--out", str(out))
    assert "311.2%  Chrisholm Hall-\\xe9 -> Parking G3\n" in printed
    detail = out / "detail_ev25_slot36.csv"
    assert "Chrisholm Hall-\u00e9 -> Parking G3" in parse_branch_detail_csv(
        detail.read_text(encoding="utf-8"))
    renamed = tmp_path / "d\u00e9tail.csv"
    renamed.write_bytes(detail.read_bytes())
    echoed = run("report", str(detail), str(renamed), "--out", str(tmp_path / "report"))
    assert echoed.splitlines()[1:] == ["detail_ev25_slot36,7,2,11,10", "d\\xe9tail,7,2,11,10"]
    assert (tmp_path / "report" / "report.csv").read_bytes().splitlines()[1:] == [
        b"detail_ev25_slot36,7,2,11,10", b"d\xc3\xa9tail,7,2,11,10"]
    run("report", str(renamed), "--format", "json-text", "--out", str(tmp_path / "json"))
    assert parse_report_json((tmp_path / "json" / "report.json").read_text(
        encoding="utf-8"))[0][0] == "d\u00e9tail"
    # An output file named after a scenario takes the UTF-8 of that name.
    scenario.write_text(scenario.read_text().replace('"name": "ev25"', '"name": "\\u00e9v\\u00e9"'))
    named = tmp_path / "named"
    for command in ("solve", "sweep"):
        run(command, "--network", str(network), "--scenario", str(scenario),
            "--profiles", str(profiles), "--out", str(named))
    assert sorted(os.listdir(os.fsencode(named))) == [
        b"detail_\xc3\xa9v\xc3\xa9_slot36.csv", b"details", b"report.csv",
        b"sweep_\xc3\xa9v\xc3\xa9.csv"]
    details = os.listdir(os.fsencode(named / "details"))
    assert sorted(details)[0] == b"\xc3\xa9v\xc3\xa9_slot00.csv"
    assert all(detail.startswith(b"\xc3\xa9v\xc3\xa9_slot") for detail in details)


def _overflowing_network(fixture_dir, tmp_path) -> Path:
    """The campus network with its HV tie cable at 1e306 ohm/mile: it
    passes validation, and Newton-Raphson overflows on it."""
    doc = json.loads((fixture_dir / "network.json").read_text())
    doc["cable_catalog"]["HV-tie-336"]["ohms_per_mile"] = 1e306
    network = tmp_path / "network.json"
    network.write_text(json.dumps(doc))
    return network


class TestDivergedSlot:
    """A slot that does not converge is printed with its stop reason and
    reaches no report, no detail file and no bin."""

    def test_solve_writes_neither_file_and_warns_nothing(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["solve", "--network", str(_overflowing_network(fixture_dir, tmp_path)),
                "--scenario", str(fixture_dir / "scenarios" / "ev25.json"),
                "--profiles", str(fixture_dir / "profiles"), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = cli_main(argv)
        assert code == 2
        assert caught == []
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("ev25 slot 36: DIVERGED (non_finite) in ")
        assert captured.out.endswith("; no loadings reported\n")

    def test_sweep_withholds_only_the_diverged_slots(self, tmp_path, capsys):
        """The benchmark feeder's top ramp step diverges at slots 32-39."""
        net, scenarios, profiles = feeder_days(1)
        scenario = scenarios[-1]
        (tmp_path / "profiles").mkdir()
        for profile in profiles.values():
            (tmp_path / "profiles" / f"{profile.id}.csv").write_text(emit_profile_csv(profile))
        (tmp_path / "network.json").write_text(emit_network_file(net))
        (tmp_path / "scenario.json").write_text(emit_scenario_file(scenario))
        out = tmp_path / "out"
        code = cli_main(["sweep", "--network", str(tmp_path / "network.json"),
                         "--scenario", str(tmp_path / "scenario.json"),
                         "--profiles", str(tmp_path / "profiles"), "--out", str(out)])
        assert code == 2
        assert f"{scenario.name}: 96 intervals, 8 diverged" in capsys.readouterr().out
        details = sorted(p.name for p in (out / "details").glob("*.csv"))
        assert details == [f"{scenario.name}_slot{k:02d}.csv" for k in range(96)
                           if not 32 <= k < 40]
        status = (out / f"sweep_{scenario.name}.csv").read_text().splitlines()[1:]
        for k, row in enumerate(status):
            cells = row.split(",")
            assert cells[0] == str(k)
            if 32 <= k < 40:
                assert cells[1] == "0" and cells[3:] == ["", ""]
            else:
                assert cells[1] == "1" and cells[3] and cells[4]
