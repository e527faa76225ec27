"""Document round-trips, schema strictness, and report emission."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
import sys

import pytest

from gridstress import CongestionHistogram, bin_loadings, solve_newton_raphson, validate_network
from gridstress.fileio import (
    GridFileError,
    detail_csv_for_solution,
    emit_network_file,
    emit_profile_csv,
    emit_report_csv,
    emit_report_json,
    emit_scenario_file,
    parse_branch_detail_csv,
    parse_network_file,
    parse_profile_csv,
    parse_report_csv,
    parse_report_json,
    parse_scenario_file,
)

from helpers import NETWORK_TEXT


class TestNetworkFile:
    def test_benchmark_round_trip_is_identity(self, bench):
        emitted = emit_network_file(bench.network)
        parsed = parse_network_file(emitted)
        assert parsed == bench.network
        assert emit_network_file(parsed) == emitted

    def test_tapped_cable_round_trips(self, bench):
        """A cable's off-nominal tap is written and read back; a nominal
        one is not written, so untapped files keep their bytes."""
        branches = list(bench.network.branches)
        assert branches[5].kind == "cable"
        branches[5] = dataclasses.replace(branches[5], tap=0.95)
        tapped = dataclasses.replace(bench.network, branches=tuple(branches))
        assert validate_network(tapped) == []
        emitted = emit_network_file(tapped)
        parsed = parse_network_file(emitted)
        assert parsed == tapped
        assert parsed.branches[5].tap == 0.95
        assert emit_network_file(parsed) == emitted
        nominal = json.loads(emit_network_file(bench.network))["branches"]
        assert json.loads(emitted)["branches"] == [
            {**b, "tap": 0.95} if i == 5 else b for i, b in enumerate(nominal)]
        assert not any("tap" in b for b in nominal if b["kind"] == "cable")

    def test_parse_gives_valid_network(self, bench):
        net = parse_network_file(emit_network_file(bench.network))
        assert len(net.buses) >= 40
        assert sum(1 for b in net.buses if b.kind == "slack") == 1

    def test_missing_system_base_names_the_key(self, bench):
        text = emit_network_file(bench.network).replace('"s_base_mva": 10.0,', "")
        with pytest.raises(GridFileError, match="s_base_mva"):
            parse_network_file(text)

    def test_unknown_key_rejected(self, bench):
        text = emit_network_file(bench.network).replace(
            '"s_base_mva": 10.0,', '"s_base_mva": 10.0, "surprise": 1,')
        with pytest.raises(GridFileError, match="surprise"):
            parse_network_file(text)

    def test_syntax_error_reports_line(self):
        with pytest.raises(GridFileError, match="line"):
            parse_network_file("{not json")

    def test_validation_failure_names_the_violation(self, bench):
        text = emit_network_file(bench.network).replace('"kind": "slack"', '"kind": "load"')
        with pytest.raises(GridFileError, match="no-slack"):
            parse_network_file(text)

    def test_kvar_defaults_to_power_factor(self):
        text = """
        {
          "s_base_mva": 10.0,
          "cable_catalog": {"c": {"ohms_per_mile": 0.1, "reactance_per_mile": 0.2}},
          "buses": [
            {"id": "s", "kind": "slack", "base_voltage": 4.16},
            {"id": "a", "kind": "load", "base_voltage": 4.16,
             "nominal_load": {"kw": 100.0}}
          ],
          "branches": [
            {"from": "s", "to": "a", "kind": "cable", "rating": 1000.0,
             "cable_type": "c", "length_miles": 0.5}
          ]
        }
        """
        net = parse_network_file(text)
        assert net.buses[1].id == "a"
        assert net.buses[1].nominal_load.kvar == pytest.approx(32.86841051788632)

    def test_explicit_kvar_preserved(self):
        text = """
        {
          "s_base_mva": 10.0,
          "cable_catalog": {"c": {"ohms_per_mile": 0.1, "reactance_per_mile": 0.2}},
          "buses": [
            {"id": "s", "kind": "slack", "base_voltage": 4.16},
            {"id": "a", "kind": "load", "base_voltage": 4.16,
             "nominal_load": {"kw": 100.0, "kvar": 5.0}}
          ],
          "branches": [
            {"from": "s", "to": "a", "kind": "cable", "rating": 1000.0,
             "cable_type": "c", "length_miles": 0.5}
          ]
        }
        """
        bus = parse_network_file(text).buses[1]
        assert (bus.id, bus.nominal_load.kvar) == ("a", 5.0)

    def test_branch_kind_specific_keys_enforced(self, bench):
        text = emit_network_file(bench.network).replace(
            '"kind": "transformer",', '"kind": "transformer", "length_miles": 1.0,', 1)
        with pytest.raises(GridFileError, match="length_miles"):
            parse_network_file(text)


class TestScenarioFile:
    def test_round_trip_all_benchmark_scenarios(self, bench):
        for scenario in bench.scenarios:
            emitted = emit_scenario_file(scenario)
            parsed = parse_scenario_file(emitted)
            assert parsed == scenario
            assert emit_scenario_file(parsed) == emitted

    def test_placement_is_checked_against_a_given_network(self, bench):
        scenario = bench.scenario("ev25")
        slack = bench.network.slack_id()
        doc = json.loads(emit_scenario_file(scenario))
        doc["parking_lots"][0]["bus"] = slack
        doc["parking_lots"][1]["bus"] = "Nowhere"
        text = json.dumps(doc)
        assert parse_scenario_file(text).parking_lots[0].bus == slack
        with pytest.raises(GridFileError) as info:
            parse_scenario_file(text, bench.network)
        first, second = scenario.parking_lots[:2]
        assert info.value.diagnostics == [
            f"scenario: parking lot {first.name!r} is on slack bus {slack!r}, "
            "where the power flow takes no injection",
            f"scenario: parking lot {second.name!r} references unknown bus 'Nowhere'"]
        assert parse_scenario_file(emit_scenario_file(scenario), bench.network) == scenario

    def test_invalid_penetration_is_validation_error(self, bench):
        text = emit_scenario_file(bench.scenario("ev25")).replace(
            '"penetration": 0.25', '"penetration": 2.5')
        with pytest.raises(GridFileError, match="penetration"):
            parse_scenario_file(text)

    def test_negative_nonstandard_charger_is_validation_error(self, bench):
        text = emit_scenario_file(bench.scenario("ev25")).replace(
            '"per_charger_kw": 10.0', '"per_charger_kw": -5').replace(
            '"allow_nonstandard_charger": false', '"allow_nonstandard_charger": true')
        with pytest.raises(GridFileError) as info:
            parse_scenario_file(text)
        assert info.value.diagnostics == [
            "scenario: per_charger_kw must be finite and >= 0, got -5.0"]

    def test_unknown_key_rejected(self, bench):
        text = emit_scenario_file(bench.scenario("base")).replace(
            '"penetration"', '"mystery": 1, "penetration"')
        with pytest.raises(GridFileError, match="mystery"):
            parse_scenario_file(text)


class TestProfileCsv:
    def test_round_trip(self, bench):
        for profile in bench.profiles.values():
            emitted = emit_profile_csv(profile)
            parsed = parse_profile_csv(emitted, profile.id)
            assert parsed == profile
            assert emit_profile_csv(parsed) == emitted

    def test_raw_kw_form_normalized_on_ingest(self):
        rows = ["timestamp,kw"] + [f"2024-01-01T{i // 4:02d}:{15 * (i % 4):02d},{50 + i}"
                                   for i in range(96)]
        profile = parse_profile_csv("\n".join(rows) + "\n", "metered")
        assert max(profile.coefficients) == 1.0
        assert profile.coefficients[0] == pytest.approx(50.0 / 145.0)

    def test_wrong_row_count_rejected(self):
        text = "slot,coefficient\n0,1.0\n"
        with pytest.raises(GridFileError, match="96"):
            parse_profile_csv(text, "short")

    def test_misnumbered_slots_rejected(self):
        rows = ["slot,coefficient"] + [f"{i},1.0" for i in range(96)]
        rows[1] = "5,1.0"
        with pytest.raises(GridFileError, match="slot 0"):
            parse_profile_csv("\n".join(rows) + "\n", "bad")

    def test_slot_cells_accept_padded_digits(self):
        rows = ["slot,coefficient"] + [f"{i},1.0" for i in range(96)]
        rows[4], rows[8] = " 3 ,0.5", "007,1.0"
        profile = parse_profile_csv("\n".join(rows) + "\n", "padded")
        assert profile.coefficients[3] == 0.5

    def test_unknown_header_rejected(self):
        rows = ["time,value"] + ["0,1.0"] * 96
        with pytest.raises(GridFileError, match="header"):
            parse_profile_csv("\n".join(rows) + "\n", "bad")

    def test_out_of_range_coefficient_is_validation_error(self):
        rows = ["slot,coefficient"] + [f"{i},1.0" for i in range(96)]
        rows[3] = "2,1.5"
        with pytest.raises(GridFileError, match="outside"):
            parse_profile_csv("\n".join(rows) + "\n", "bad")


# Bin counts of the five published study rows (no-EV grid, 10% EV fleet,
# 25%, 25% with PV, 25% with PV plus load management).
PUBLISHED_ROWS = [
    ("current_grid", {"40-80": 2}),
    ("ev_10", {"40-80": 16, "80-100": 3, "100-150": 2}),
    ("ev_25", {"40-80": 9, "80-100": 4, "100-150": 10, ">150": 8}),
    ("ev_25_pv", {"40-80": 16, "80-100": 2, "100-150": 1, ">150": 1}),
    ("ev_25_pv_lm", {"40-80": 11, "80-100": 3, "100-150": 0, ">150": 1}),
]


class TestReportEmission:
    def test_empty_histogram_row_of_zeros(self):
        text = emit_report_csv([("empty", CongestionHistogram(0, 0, 0, 0))])
        assert text == ("scenario,bin_40_80,bin_80_100,bin_100_150,bin_gt_150\n"
                        "empty,0,0,0,0\n")

    def test_published_rows_cell_for_cell(self):
        rows = [(name, CongestionHistogram.from_counts(counts))
                for name, counts in PUBLISHED_ROWS]
        assert emit_report_csv(rows) == (
            "scenario,bin_40_80,bin_80_100,bin_100_150,bin_gt_150\n"
            "current_grid,2,0,0,0\n"
            "ev_10,16,3,2,0\n"
            "ev_25,9,4,10,8\n"
            "ev_25_pv,16,2,1,1\n"
            "ev_25_pv_lm,11,3,0,1\n"
        )

    def test_csv_round_trip(self):
        rows = [(name, CongestionHistogram.from_counts(counts))
                for name, counts in PUBLISHED_ROWS]
        emitted = emit_report_csv(rows)
        parsed = parse_report_csv(emitted)
        assert [(name, hist.counts()) for name, hist in parsed] == \
               [(name, hist.counts()) for name, hist in rows]
        assert emit_report_csv(parsed) == emitted

    def test_json_round_trip(self):
        rows = [(name, CongestionHistogram.from_counts(counts))
                for name, counts in PUBLISHED_ROWS]
        emitted = emit_report_json(rows)
        parsed = parse_report_json(emitted)
        assert emit_report_json(parsed) == emitted

    def test_bad_header_rejected(self):
        with pytest.raises(GridFileError, match="header"):
            parse_report_csv("a,b\n1,2\n")

    def test_emission_is_deterministic(self):
        rows = [(name, CongestionHistogram.from_counts(counts))
                for name, counts in PUBLISHED_ROWS]
        assert emit_report_csv(rows) == emit_report_csv(rows)
        assert emit_report_json(rows) == emit_report_json(rows)


class TestReportCounts:
    """A bin count is a non-negative integer in both report forms."""

    @pytest.mark.parametrize("cell, problem", [
        ("-3", "negative bin count"),
        ("1_0", "non-integer bin count"),
        ("1.5", "non-integer bin count"),
        ("+3", "non-integer bin count"),
        ("", "non-integer bin count"),
    ])
    def test_csv_rejects_non_counts(self, cell, problem):
        text = emit_report_csv([("a", CongestionHistogram(1, 2, 3, 4))]) + f"b,0,{cell},0,0\n"
        with pytest.raises(GridFileError) as info:
            parse_report_csv(text)
        assert info.value.diagnostics == [f"report row 2: {problem}"]

    def test_csv_accepts_padded_digits(self):
        parsed = parse_report_csv(emit_report_csv([]) + "a, 7 ,007,0,12\n")
        assert parsed[0][1].counts() == {"40-80": 7, "80-100": 7, "100-150": 0, ">150": 12}

    @pytest.mark.parametrize("count", ["lots", 1.5, True, -3, None])
    def test_json_rejects_non_counts(self, count):
        doc = {"report": [{"scenario": "a", "bins": {"40-80": 1, "80-100": count}}]}
        with pytest.raises(GridFileError) as info:
            parse_report_json(json.dumps(doc))
        assert info.value.diagnostics == [
            f"report[0].bins['80-100']: bin count must be an integer >= 0, got {count!r}"]

    def test_json_names_every_bad_count(self):
        doc = {"report": [{"scenario": "a", "bins": {"40-80": 1}},
                          {"scenario": "b", "bins": {"40-80": -1, ">150": 2.0}}]}
        with pytest.raises(GridFileError) as info:
            parse_report_json(json.dumps(doc))
        assert info.value.diagnostics == [
            "report[1].bins['40-80']: bin count must be an integer >= 0, got -1",
            "report[1].bins['>150']: bin count must be an integer >= 0, got 2.0"]


class TestBranchDetail:
    def test_detail_reparse_rebuilds_identical_histogram(self, bench):
        from gridstress import build_injections
        solution = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, bench.scenario("ev25"), bench.profiles, 36))
        in_memory = bin_loadings(solution.loading_by_branch())
        detail = parse_branch_detail_csv(detail_csv_for_solution(solution))
        reparsed = bin_loadings({branch: loading
                                 for branch, (_, loading, _) in detail.items()})
        assert reparsed == in_memory

    def test_detail_preserves_kind_and_bin(self, bench):
        from gridstress import build_injections
        solution = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, bench.scenario("base"), bench.profiles, 36))
        detail = parse_branch_detail_csv(detail_csv_for_solution(solution))
        assert detail["SubB -> SubB (LV)"][0] == "transformer"
        assert detail["DWP Pole -> Sub A"][0] == "cable"
        for _, (_, loading, label) in detail.items():
            from gridstress.congestion import bin_label
            assert bin_label(loading) == label

    def test_malformed_detail_rejected(self):
        with pytest.raises(GridFileError, match="header"):
            parse_branch_detail_csv("nope\n")

    @pytest.mark.parametrize("loading", ["nan", "inf", "-inf"])
    def test_non_finite_detail_loading_rejected(self, loading):
        text = f"branch,kind,loading_percent,bin\na -> b,cable,{loading},>150\n"
        with pytest.raises(GridFileError) as info:
            parse_branch_detail_csv(text)
        assert info.value.diagnostics == [f"detail row 1: not a finite number: {loading}"]


# ------------------------------------------- pinned CSV and JSON diagnostics

def _profile_text(header: str, cells: list[str]) -> str:
    return "\n".join([header, *cells]) + "\n"


def _slots(edits: dict[int, str] | None = None, value: str = "1.0") -> list[str]:
    rows = [f"{i},{value}" for i in range(96)]
    for i, row in (edits or {}).items():
        rows[i] = row
    return rows


def _kws(edits: dict[int, str] | None = None) -> list[str]:
    rows = [f"t{i},{50 + i}" for i in range(96)]
    for i, row in (edits or {}).items():
        rows[i] = row
    return rows


_SLOT_HEADER = "slot,coefficient"
_KW_HEADER = "timestamp,kw"
_REPORT_HEADER = "scenario,bin_40_80,bin_80_100,bin_100_150,bin_gt_150"
_DETAIL_HEADER = "branch,kind,loading_percent,bin"
# An unquoted carriage return inside a line: the csv module refuses it.
_BAD_CSV = "a\rb\n"


def _csv_error(text: str) -> str:
    """The csv module's own message for text it cannot read."""
    try:
        list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return str(exc)
    raise AssertionError("text was readable")


_BAD_CSV_ERROR = _csv_error(_BAD_CSV)

_SCENARIO_TEXT = json.dumps({"name": "s", "penetration": 0.1, "per_charger_kw": 10.0})
_REPORT_TEXT = json.dumps({"report": [{"scenario": "s", "bins": {"40-80": 1}}]})


def _not_finite(path: str) -> list[str]:
    return [f"{path}: not a finite number"]


def _parse_profile(text):
    return parse_profile_csv(text, "p")


# Ratings NaN and 1e400 on both branches, next to an unrelated type error:
# each is reported with its key path, and none hides another.
_TWO_BAD_RATINGS = (NETWORK_TEXT.replace('"rating": 1000.0', '"rating": NaN')
                    .replace('"rating": 500.0', '"rating": 1e400')
                    .replace('"base_voltage": 0.48', '"base_voltage": "0.48"'))

# (id, parser, text, full diagnostics list).
ERROR_CASES = [
    ("profile-malformed", _parse_profile, _BAD_CSV,
     [f"profile 'p': malformed CSV: {_BAD_CSV_ERROR}"]),
    ("profile-empty", _parse_profile, "", ["profile 'p': empty file"]),
    ("profile-blank-lines", _parse_profile, "\n\n", ["profile 'p': empty file"]),
    ("profile-row-count", _parse_profile, "slot,coefficient\n0,1.0\n",
     ["profile 'p': expected 96 data rows, got 1"]),
    ("profile-row-count-before-header", _parse_profile, "time,value\n0,1.0\n",
     ["profile 'p': expected 96 data rows, got 1"]),
    ("profile-header", _parse_profile, _profile_text("time,value", _slots()),
     ["profile 'p': header must be slot,coefficient or timestamp,kw"]),
    ("profile-columns", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({2: "2", 4: "4,1.0,x"})),
     ["profile 'p' row 3: expected 2 columns", "profile 'p' row 5: expected 2 columns"]),
    ("profile-kw-columns", _parse_profile,
     _profile_text(_KW_HEADER, _kws({0: "t0"})),
     ["profile 'p' row 1: expected 2 columns"]),
    ("profile-non-numeric-cell", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({1: "1,abc", 7: "x,1.0"})),
     ["profile 'p' row 2: non-numeric cell", "profile 'p' row 8: non-numeric cell"]),
    ("profile-non-numeric-kw", _parse_profile,
     _profile_text(_KW_HEADER, _kws({3: "t3,abc"})),
     ["profile 'p' row 4: non-numeric kw"]),
    # float() would read these cells as 1.0, 100.0 and 50.0.
    ("profile-coefficient-other-digits", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({2: "2,\u0661"})),
     ["profile 'p' row 3: non-numeric cell"]),
    ("profile-kw-underscore-and-other-digits", _parse_profile,
     _profile_text(_KW_HEADER, _kws({3: "t3,1_00", 5: "t5,\u0665\u0660"})),
     ["profile 'p' row 4: non-numeric kw", "profile 'p' row 6: non-numeric kw"]),
    ("profile-misnumbered", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({0: "5,1.0"})),
     ["profile 'p' row 1: expected slot 0, got 5"]),
    ("profile-slot-underscore", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({10: "1_0,1.0"})),
     ["profile 'p' row 11: non-numeric cell"]),
    ("profile-slot-plus-sign", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({11: " +11 ,1.0"})),
     ["profile 'p' row 12: non-numeric cell"]),
    ("profile-errors-in-row-order", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({9: "99,1.0", 1: "1", 5: "5,?"})),
     ["profile 'p' row 2: expected 2 columns", "profile 'p' row 6: non-numeric cell",
      "profile 'p' row 10: expected slot 9, got 99"]),
    ("profile-nan-coefficient", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({2: "2,nan", 6: "6,inf"})),
     ["profile 'p' row 3: not a finite number: nan",
      "profile 'p' row 7: not a finite number: inf"]),
    ("profile-out-of-range", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots({2: "2,1.5"})),
     ["profile 'p' slot 2: 1.5 outside [0, 1]"]),
    ("profile-max-not-one", _parse_profile,
     _profile_text(_SLOT_HEADER, _slots(value="0.5")),
     ["profile 'p': max must be exactly 1"]),
    ("profile-overflowing-kw", _parse_profile,
     _profile_text(_KW_HEADER, _kws({4: "t4,1e400", 8: "t8,nan"})),
     ["profile 'p' row 5: not a finite number: 1e400",
      "profile 'p' row 9: not a finite number: nan"]),
    ("profile-negative-kw", _parse_profile,
     _profile_text(_KW_HEADER, _kws({10: "t10,-5"})),
     ["profile 'p' slot 10: -5.0 must be >= 0"]),
    ("profile-all-zero-kw", _parse_profile,
     _profile_text(_KW_HEADER, [f"t{i},0" for i in range(96)]),
     ["profile 'p': series maximum must be > 0"]),
    ("report-malformed", parse_report_csv, _BAD_CSV,
     [f"report: malformed CSV: {_BAD_CSV_ERROR}"]),
    ("report-empty", parse_report_csv, "", [f"report: header must be {_REPORT_HEADER}"]),
    ("report-header", parse_report_csv, "a,b\n1,2\n",
     [f"report: header must be {_REPORT_HEADER}"]),
    ("report-columns", parse_report_csv, f"{_REPORT_HEADER}\nx,1,2,3\ny,1,2,3,4,5\n",
     ["report row 1: expected 5 columns", "report row 2: expected 5 columns"]),
    ("report-non-integer", parse_report_csv, f"{_REPORT_HEADER}\nok,1,2,3,4\nx,1,2.5,3,4\n",
     ["report row 2: non-integer bin count"]),
    ("detail-malformed", parse_branch_detail_csv, _BAD_CSV,
     [f"detail: malformed CSV: {_BAD_CSV_ERROR}"]),
    ("detail-empty", parse_branch_detail_csv, "",
     [f"detail: header must be {_DETAIL_HEADER}"]),
    ("detail-header", parse_branch_detail_csv, "nope\n",
     [f"detail: header must be {_DETAIL_HEADER}"]),
    ("detail-columns", parse_branch_detail_csv, f"{_DETAIL_HEADER}\na -> b,cable,50.0\n",
     ["detail row 1: expected 4 columns"]),
    ("detail-non-numeric", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na -> b,cable,high,40-80\n",
     ["detail row 1: non-numeric loading"]),
    # float() would read these loadings as 45.5 and 50.0.
    ("detail-underscore-and-other-digits", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na,cable,4_5.5,40-80\nb,cable,\u0665\u0660,40-80\n",
     ["detail row 1: non-numeric loading", "detail row 2: non-numeric loading"]),
    ("detail-non-finite", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na -> b,cable,50.0,40-80\nb -> c,cable,nan,>150\n",
     ["detail row 2: not a finite number: nan"]),
    ("detail-unknown-bin", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na -> b,cable,50.0,30-40\n",
     ["detail row 1: unknown bin '30-40'"]),
    ("detail-bin-contradicts-loading", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na,cable,50.0,<40\nb,cable,100.0,100-150\nc,cable,99.99,100-150\n",
     ["detail row 1: loading 50.0 is in bin '40-80', not '<40'",
      "detail row 3: loading 99.99 is in bin '80-100', not '100-150'"]),
    ("detail-negative-loading", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na,cable,-5.0,<40\n",
     ["detail row 1: loading percentage must be >= 0, got -5.0"]),
    ("detail-duplicate-branch", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na,cable,50.0,40-80\na,cable,10.0,<40\n",
     ["detail row 2: duplicate branch 'a'"]),
    ("detail-errors-in-row-order", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na,cable,1e400,>150\nb,cable\nc,cable,x,<40\nd,cable,1.0,??\n",
     ["detail row 1: not a finite number: 1e400", "detail row 2: expected 4 columns",
      "detail row 3: non-numeric loading", "detail row 4: unknown bin '??'"]),
    # A valid row between bad ones joins the rows, so its duplicate is the
    # one reported.
    ("detail-bad-rows-around-a-valid-one", parse_branch_detail_csv,
     f"{_DETAIL_HEADER}\na,cable\nb,cable,x,<40\nc,cable,50.0,40-80\nc,cable,50.0,40-80\n"
     "d,cable,85.0,40-80\n",
     ["detail row 1: expected 4 columns", "detail row 2: non-numeric loading",
      "detail row 4: duplicate branch 'c'",
      "detail row 5: loading 85.0 is in bin '80-100', not '40-80'"]),
    ("network-nan-load", parse_network_file,
     NETWORK_TEXT.replace('"kw": 100.0', '"kw": NaN'),
     _not_finite("buses[1].nominal_load.kw")),
    ("network-nan-tap", parse_network_file,
     NETWORK_TEXT.replace('"tap": 1.0', '"tap": NaN'),
     _not_finite("branches[1].tap")),
    ("network-infinite-rating", parse_network_file,
     NETWORK_TEXT.replace('"rating": 500.0', '"rating": Infinity'),
     _not_finite("branches[1].rating")),
    ("network-nan-system-base", parse_network_file,
     NETWORK_TEXT.replace('"s_base_mva": 10.0', '"s_base_mva": NaN'),
     _not_finite("network.s_base_mva")),
    ("network-two-bad-ratings", parse_network_file, _TWO_BAD_RATINGS,
     ["buses[2].base_voltage: expected float, got str",
      "branches[0].rating: not a finite number", "branches[1].rating: not a finite number"]),
    ("network-duplicate-branch", parse_network_file,
     NETWORK_TEXT.replace('"branches": [', '"branches": [{"from": "s", "to": "a", '
                          '"kind": "cable", "rating": 1000.0, "cable_type": "c", '
                          '"length_miles": 0.5}, '),
     ["duplicate-branch: s -> a: branch id is not unique"]),
    # A bad tag reads the branch's own keys only: every variant key is unknown.
    ("network-branch-kind-not-a-string", parse_network_file,
     NETWORK_TEXT.replace('"kind": "cable", "rating": 1000.0, "cable_type": "c"',
                          '"kind": 7, "rating": 1000.0, "cable_type": "c", '
                          '"impedance_percent": 5.0'),
     ["branches[0].kind: expected str, got int", "branches[0]: unknown key 'cable_type'",
      "branches[0]: unknown key 'impedance_percent'",
      "branches[0]: unknown key 'length_miles'",
      "branches[0].kind: expected 'cable' or 'transformer', got None"]),
    ("scenario-infinite-charger", parse_scenario_file,
     _SCENARIO_TEXT.replace("10.0", "Infinity"),
     _not_finite("scenario.per_charger_kw")),
    ("scenario-nan-binding", parse_scenario_file,
     _SCENARIO_TEXT.replace("}", ', "bindings": {"load": {"a": NaN, "b": "ok"}, '
                            '"pv": {"c": null}}}'),
     ["bindings.load['a']: expected str, got float",
      "bindings.pv['c']: expected str, got NoneType"]),
    ("report-json-negative-infinity", parse_report_json,
     _REPORT_TEXT.replace(": 1}", ": -Infinity}"),
     ["report[0].bins['40-80']: bin count must be an integer >= 0, got -inf"]),
    # Literals that overflow a float are as non-finite as Infinity.
    ("network-overflowing-rating", parse_network_file,
     NETWORK_TEXT.replace('"rating": 1000.0', '"rating": 1e400'),
     _not_finite("branches[0].rating")),
    ("network-overflowing-load", parse_network_file,
     NETWORK_TEXT.replace('"kw": 100.0', '"kw": -1e400'),
     _not_finite("buses[1].nominal_load.kw")),
    ("scenario-overflowing-charger", parse_scenario_file,
     _SCENARIO_TEXT.replace("10.0", "1e400"),
     _not_finite("scenario.per_charger_kw")),
    ("network-huge-integer-rating", parse_network_file,
     NETWORK_TEXT.replace('"rating": 1000.0', '"rating": 1' + "0" * 400),
     _not_finite("branches[0].rating")),
    ("scenario-huge-integer-penetration", parse_scenario_file,
     _SCENARIO_TEXT.replace("0.1", "1" + "0" * 400),
     _not_finite("scenario.penetration")),
    ("network-integer-past-digit-limit", parse_network_file,
     NETWORK_TEXT.replace('"rating": 1000.0', '"rating": 1' + "0" * 5000),
     [f"network file: integer literal has more than {sys.get_int_max_str_digits()} digits"]),
]

# What a diagnostic is about, before its first ": ": a document
# ("profile 'p'", "network file"), a row or slot of one ("detail row 3",
# "profile 'p' slot 10"), a key path ("branches[0].rating",
# "bindings.load['a']") or a network element behind a violation code
# ("duplicate-branch: s -> a").
_LOCATION = re.compile(
    r"(?:profile 'p'|report|detail)(?: row \d+| slot \d+)?: "
    r"|(?:network|scenario|report) file: "
    r"|[a-z_]+(?:\[[^\]]+\]|\.[a-z_]+)*: "
    r"|[a-z]+(?:-[a-z]+)+: [^:]+: ")


class TestCsvDiagnostics:
    """Every CSV error path and every bad JSON number: the exact
    diagnostics, each naming where its problem is."""

    def test_json_documents_without_the_literals_parse(self):
        parse_network_file(NETWORK_TEXT)
        parse_scenario_file(_SCENARIO_TEXT)
        parse_report_json(_REPORT_TEXT)

    @pytest.mark.parametrize("parse, text, expected", [case[1:] for case in ERROR_CASES],
                             ids=[case[0] for case in ERROR_CASES])
    def test_error_path(self, parse, text, expected):
        with pytest.raises(GridFileError) as info:
            parse(text)
        assert info.value.diagnostics == expected

    def test_every_diagnostic_names_its_location(self):
        assert [d for case in ERROR_CASES for d in case[3] if not _LOCATION.match(d)] == []
