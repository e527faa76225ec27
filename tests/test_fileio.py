"""Document round-trips, schema strictness, and report emission."""

from __future__ import annotations

import pytest

from gridstress import CongestionHistogram, bin_loadings, solve_newton_raphson
from gridstress.fileio import (
    FileSchemaError,
    FileSyntaxError,
    FileValidationError,
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


class TestNetworkFile:
    def test_benchmark_round_trip_is_identity(self, bench):
        emitted = emit_network_file(bench.network)
        parsed = parse_network_file(emitted)
        assert parsed == bench.network
        assert emit_network_file(parsed) == emitted

    def test_parse_gives_valid_network(self, bench):
        net = parse_network_file(emit_network_file(bench.network))
        assert len(net.buses) >= 40
        assert sum(1 for b in net.buses if b.kind == "slack") == 1

    def test_missing_system_base_names_the_key(self, bench):
        text = emit_network_file(bench.network).replace('"s_base_mva": 10.0,', "")
        with pytest.raises(FileSchemaError, match="s_base_mva"):
            parse_network_file(text)

    def test_unknown_key_rejected(self, bench):
        text = emit_network_file(bench.network).replace(
            '"s_base_mva": 10.0,', '"s_base_mva": 10.0, "surprise": 1,')
        with pytest.raises(FileSchemaError, match="surprise"):
            parse_network_file(text)

    def test_syntax_error_reports_line(self):
        with pytest.raises(FileSyntaxError, match="line"):
            parse_network_file("{not json")

    def test_validation_failure_is_distinct(self, bench):
        text = emit_network_file(bench.network).replace('"kind": "slack"', '"kind": "load"')
        with pytest.raises(FileValidationError, match="no-slack"):
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
        assert net.bus("a").nominal_load.kvar == pytest.approx(32.86841051788632)

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
        assert parse_network_file(text).bus("a").nominal_load.kvar == 5.0

    def test_branch_kind_specific_keys_enforced(self, bench):
        text = emit_network_file(bench.network).replace(
            '"kind": "transformer",', '"kind": "transformer", "length_miles": 1.0,', 1)
        with pytest.raises(FileSchemaError, match="length_miles"):
            parse_network_file(text)


class TestScenarioFile:
    def test_round_trip_all_benchmark_scenarios(self, bench):
        for scenario in bench.scenarios:
            emitted = emit_scenario_file(scenario)
            parsed = parse_scenario_file(emitted)
            assert parsed == scenario
            assert emit_scenario_file(parsed) == emitted

    def test_invalid_penetration_is_validation_error(self, bench):
        text = emit_scenario_file(bench.scenario("ev25")).replace(
            '"penetration": 0.25', '"penetration": 2.5')
        with pytest.raises(FileValidationError, match="penetration"):
            parse_scenario_file(text)

    def test_unknown_key_rejected(self, bench):
        text = emit_scenario_file(bench.scenario("base")).replace(
            '"penetration"', '"mystery": 1, "penetration"')
        with pytest.raises(FileSchemaError, match="mystery"):
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
        with pytest.raises(FileSchemaError, match="96"):
            parse_profile_csv(text, "short")

    def test_misnumbered_slots_rejected(self):
        rows = ["slot,coefficient"] + [f"{i},1.0" for i in range(96)]
        rows[1] = "5,1.0"
        with pytest.raises(FileSchemaError, match="slot 0"):
            parse_profile_csv("\n".join(rows) + "\n", "bad")

    def test_unknown_header_rejected(self):
        rows = ["time,value"] + ["0,1.0"] * 96
        with pytest.raises(FileSchemaError, match="header"):
            parse_profile_csv("\n".join(rows) + "\n", "bad")

    def test_out_of_range_coefficient_is_validation_error(self):
        rows = ["slot,coefficient"] + [f"{i},1.0" for i in range(96)]
        rows[3] = "2,1.5"
        with pytest.raises(FileValidationError, match="outside"):
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
        with pytest.raises(FileSchemaError, match="header"):
            parse_report_csv("a,b\n1,2\n")

    def test_emission_is_deterministic(self):
        rows = [(name, CongestionHistogram.from_counts(counts))
                for name, counts in PUBLISHED_ROWS]
        assert emit_report_csv(rows) == emit_report_csv(rows)
        assert emit_report_json(rows) == emit_report_json(rows)


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
        assert reparsed.same_counts(in_memory)
        assert reparsed.branch_bins == in_memory.branch_bins

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
        with pytest.raises(FileSchemaError, match="header"):
            parse_branch_detail_csv("nope\n")

    @pytest.mark.parametrize("loading", ["nan", "inf", "-inf"])
    def test_non_finite_detail_loading_rejected(self, loading):
        text = f"branch,kind,loading_percent,bin\na -> b,cable,{loading},>150\n"
        with pytest.raises(FileSchemaError, match="non-finite"):
            parse_branch_detail_csv(text)
