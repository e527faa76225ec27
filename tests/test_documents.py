"""Network and scenario documents through the parsers and the CLI: every
optional key round-trips, an oversized parking lot is a diagnostic, and
solve and benchmark bin the stagger scenario as the README says."""

from __future__ import annotations

import json

import pytest

from gridstress.benchmark import PARKING_LOTS
from gridstress.cli import cli_main
from gridstress.fileio import (
    GridFileError,
    emit_network_file,
    emit_scenario_file,
    parse_network_file,
    parse_report_csv,
    parse_scenario_file,
)

from helpers import NETWORK_TEXT


def _text(doc: dict) -> str:
    """A document in the emitters' layout."""
    return json.dumps(doc, indent=2) + "\n"


# Every optional key away from its default, in the emitters' key order.
NETWORK_DOC = {
    "s_base_mva": 10.0,
    "cable_catalog": {"c": {"ohms_per_mile": 0.1, "reactance_per_mile": 0.2}},
    "buses": [
        {"id": "s", "kind": "slack", "base_voltage": 4.16,
         "nominal_load": {"kw": 0.0, "kvar": 0.0}},
        {"id": "a", "kind": "load", "base_voltage": 4.16,
         "nominal_load": {"kw": 100.0, "kvar": 7.5}},
        {"id": "b", "kind": "load", "base_voltage": 0.48,
         "nominal_load": {"kw": 40.0, "kvar": 0.0}},
    ],
    "branches": [
        {"from": "s", "to": "a", "kind": "cable", "rating": 1000.0,
         "cable_type": "c", "length_miles": 0.5, "tap": 0.975},
        {"from": "a", "to": "b", "kind": "transformer", "rating": 500.0,
         "impedance_percent": 5.0, "tap": 1.025},
    ],
    "generators": [
        {"bus": "s", "kind": "grid_supply", "capacity": 5000.0, "profile": None},
        {"bus": "b", "kind": "pv_site", "capacity": 50.0, "profile": "roof"},
    ],
}

SCENARIO_DOC = {
    "name": "every_key",
    "penetration": 0.5,
    "per_charger_kw": 3.3,
    "pv_enabled": True,
    "controller": "one_third_stagger",
    "allow_nonstandard_charger": True,
    "parking_lots": [{"name": "Lot A", "capacity": 120, "bus": "a"},
                     {"name": "Lot B", "capacity": 40, "bus": "b"}],
    "bindings": {"load_default": "campus", "load": {"a": "labs", "b": "dorms"},
                 "ev": "ev_day", "pv_default": "sun", "pv": {"b": "roof"}},
}


class TestEveryOptionalKey:
    def test_network_round_trips(self):
        text = _text(NETWORK_DOC)
        net = parse_network_file(text)
        assert emit_network_file(net) == text
        assert parse_network_file(emit_network_file(net)) == net
        assert [b.tap for b in net.branches] == [0.975, 1.025]
        assert net.buses[1].nominal_load.kvar == 7.5
        assert [g.profile for g in net.generators] == [None, "roof"]

    def test_scenario_round_trips(self):
        text = _text(SCENARIO_DOC)
        scenario = parse_scenario_file(text, parse_network_file(_text(NETWORK_DOC)))
        assert emit_scenario_file(scenario) == text
        assert parse_scenario_file(emit_scenario_file(scenario)) == scenario
        assert (scenario.per_charger_kw, scenario.pv_enabled, scenario.controller,
                scenario.allow_nonstandard_charger) == (3.3, True, "one_third_stagger", True)
        assert scenario.bindings.load == {"a": "labs", "b": "dorms"}
        assert scenario.bindings.pv == {"b": "roof"}

    @pytest.mark.parametrize("doc", [SCENARIO_DOC, {"name": "bare", "penetration": 0.0}])
    def test_parsed_bindings_are_not_shared(self, doc):
        text = _text(doc)
        first = parse_scenario_file(text)
        first.bindings.load["x"] = "mutated"
        first.bindings.pv["y"] = "mutated"
        again = parse_scenario_file(text)
        assert "x" not in again.bindings.load
        assert "y" not in again.bindings.pv


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert cli_main(["benchmark", "--out", str(out)]) == 0
    return out


# A lot of 10**400 stalls does not fit a float; one of 10**308 does, but
# its 0.25 x 10 kW EV load at ev25's settings does not.
LOT = PARKING_LOTS[0]
OVERSIZED_LOTS = [
    pytest.param(10 ** 400, f"parking_lots[0]: parking lot {LOT.name!r} capacity is too large "
                 "for a float", id="capacity-past-float-range"),
    pytest.param(10 ** 308, f"scenario: connected EV load at bus {LOT.bus!r} is not a finite "
                 "number of kW (inf)", id="infinite-ev-load"),
]


class TestOversizedParkingLot:
    @staticmethod
    def _ev25_with_capacity(fixture_dir, capacity: int) -> str:
        doc = json.loads((fixture_dir / "scenarios" / "ev25.json").read_text())
        assert doc["parking_lots"][0]["name"] == LOT.name
        doc["parking_lots"][0]["capacity"] = capacity
        return json.dumps(doc)

    @pytest.mark.parametrize("capacity, diagnostic", OVERSIZED_LOTS)
    def test_parse_reports_it(self, fixture_dir, capacity, diagnostic):
        with pytest.raises(GridFileError) as info:
            parse_scenario_file(self._ev25_with_capacity(fixture_dir, capacity))
        assert info.value.diagnostics == [diagnostic]

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("capacity, diagnostic", OVERSIZED_LOTS)
    def test_cli_exits_with_diagnostic(self, fixture_dir, tmp_path, capsys, command,
                                       capacity, diagnostic):
        scenario = tmp_path / "huge.json"
        scenario.write_text(self._ev25_with_capacity(fixture_dir, capacity))
        argv = [command, "--network", str(fixture_dir / "network.json"),
                "--scenario", str(scenario), "--profiles", str(fixture_dir / "profiles"),
                "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", diagnostic + "\n")
        assert not (tmp_path / "out").exists()


def test_solve_and_benchmark_bin_the_stagger_scenario_differently(fixture_dir, tmp_path):
    """solve takes the nominal EV draw; benchmark's one-interval study lets
    the stagger controller act, from an empty ledger (README, "Command line")."""
    argv = ["solve", "--network", str(fixture_dir / "network.json"),
            "--scenario", str(fixture_dir / "scenarios" / "ev25_pv_lm.json"),
            "--profiles", str(fixture_dir / "profiles"), "--interval", "36",
            "--out", str(tmp_path / "solve")]
    assert cli_main(argv) == 0
    solved = dict(parse_report_csv((tmp_path / "solve" / "report.csv").read_text()))
    benchmarked = dict(parse_report_csv((fixture_dir / "report.csv").read_text()))
    assert list(solved["ev25_pv_lm"].counts().values()) == [9, 2, 9, 10]
    assert list(benchmarked["ev25_pv_lm"].counts().values()) == [10, 2, 0, 6]


def _first_branch(doc: dict, kind: str) -> dict:
    return next(branch for branch in doc["branches"] if branch["kind"] == kind)


# Network values that once ended `solve` in a traceback, one per class:
# (the element, its key, the value, the code of the diagnostic). The first
# five are the classes of a 1,500-file mutation run of the campus fixture;
# the last divides by zero while deriving the transformer's impedance.
EXTREME_NETWORKS = [
    pytest.param(lambda doc: doc["buses"][0], "base_voltage", 1e308, "voltage-mismatch",
                 id="base-voltage-overflows-its-square"),
    pytest.param(lambda doc: _first_branch(doc, "transformer"), "tap", 1e308,
                 "degenerate-per-unit", id="tap-overflows-its-square"),
    pytest.param(lambda doc: _first_branch(doc, "transformer"), "tap", 5e-324,
                 "degenerate-per-unit", id="tap-square-underflows-to-zero"),
    pytest.param(lambda doc: _first_branch(doc, "cable"), "rating", 5e-324,
                 "degenerate-per-unit", id="rating-gives-infinite-loading"),
    pytest.param(lambda doc: _first_branch(doc, "cable"), "length_miles", 1e-320,
                 "degenerate-per-unit", id="length-gives-nan-loading"),
    pytest.param(lambda doc: _first_branch(doc, "transformer"), "rating", 5e-324,
                 "underived-impedance", id="transformer-rating-divides-by-zero"),
]


@pytest.mark.parametrize("element, key, value, code", EXTREME_NETWORKS)
def test_extreme_network_value_is_a_diagnostic(fixture_dir, tmp_path, capsys,
                                               element, key, value, code):
    doc = json.loads((fixture_dir / "network.json").read_text())
    element(doc)[key] = value
    network = tmp_path / "network.json"
    network.write_text(json.dumps(doc))
    argv = ["solve", "--network", str(network),
            "--scenario", str(fixture_dir / "scenarios" / "ev25_pv_lm.json"),
            "--profiles", str(fixture_dir / "profiles"), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    first = captured.err.splitlines()[0]
    assert captured.out == "" and "Traceback" not in captured.err
    assert first.startswith(f"{code}: ")
    named = element(doc).get("id") or f"{element(doc).get('from')} -> {element(doc).get('to')}"
    assert named in first
    assert not (tmp_path / "out").exists()


def test_impedance_past_abs_range_is_a_diagnostic(tmp_path, capsys):
    """abs() of a finite impedance whose parts are both near the float
    maximum overflows; validation no longer takes it."""
    doc = json.loads(NETWORK_TEXT)
    doc["cable_catalog"]["c"] = {"ohms_per_mile": 3e305, "reactance_per_mile": 3e305}
    for bus in doc["buses"][:2]:
        bus["base_voltage"] = 0.1
    network = tmp_path / "network.json"
    network.write_text(json.dumps(doc))
    assert cli_main(["validate", "--network", str(network)]) == 1
    assert capsys.readouterr().err.startswith("degenerate-per-unit: s -> a: ")
