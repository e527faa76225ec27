"""Bundled fixture invariants: published capacities, calibration anchor."""

from __future__ import annotations

from gridstress import (
    bin_loadings,
    build_benchmark,
    build_injections,
    solve_newton_raphson,
    validate_network,
)
from gridstress.benchmark import PARKING_LOTS, PV_SITES
from gridstress.fileio import emit_network_file

from helpers import at_or_above_100

# Published parking capacities for the modeled campus.
PUBLISHED_CAPACITIES = {
    "B5": 420, "B5 Structure": 1290, "E5": 100, "F5": 230, "G6": 50,
    "B6": 460, "E6": 590, "G6 Structure": 1300, "B1": 480, "B2": 460,
    "F2": 50, "G1": 90, "G3 Structure": 1370, "G3": 450,
    "B3 Structure": 1760, "B4": 300, "G4": 170, "B3": 500,
}
# The fixture's capacities by lot name.
CAPACITIES = {lot.name: lot.capacity for lot in PARKING_LOTS}


class TestFixtureData:
    def test_capacity_lookup(self):
        assert CAPACITIES["B3 Structure"] == 1760

    def test_all_capacities_match_published_table(self):
        assert CAPACITIES == PUBLISHED_CAPACITIES
        assert len(PARKING_LOTS) == 18

    def test_three_pv_sites_with_published_capacities(self, bench):
        sites = {g.bus: g.capacity_kw for g in bench.network.pv_sites()}
        assert len(sites) == 3
        assert sites["Parking B2"] == 467.0
        assert sites["E6 Mathador Hall"] == 225.0
        assert sites["Student REC"] == 1200.0
        assert PV_SITES == (("Parking B2", 467.0), ("E6 Mathador Hall", 225.0),
                            ("Student REC", 1200.0))

    def test_every_lot_attaches_to_an_existing_bus(self, bench):
        bus_ids = set(bench.network.bus_ids())
        for lot in PARKING_LOTS:
            assert lot.bus in bus_ids, lot.name

    def test_network_is_valid(self, bench):
        assert validate_network(bench.network) == []

    def test_campus_scale(self, bench):
        total_kw = sum(b.nominal_load.kw for b in bench.network.buses)
        assert 5500.0 <= total_kw <= 6500.0

    def test_five_scenarios(self, bench):
        assert [s.name for s in bench.scenarios] == [
            "base", "ev10", "ev25", "ev25_pv", "ev25_pv_lm"]
        assert bench.scenario("ev25_pv_lm").controller == "one_third_stagger"
        assert bench.scenario("ev25").per_charger_kw == 10.0


class TestCalibrationAnchor:
    def test_base_case_two_branches_in_40_80(self, bench):
        injections = build_injections(bench.network, bench.scenario("base"),
                                      bench.profiles, 36)
        solution = solve_newton_raphson(bench.network, injections)
        assert solution.converged
        hist = bin_loadings(solution.loading_by_branch())
        assert hist.bin_40_80 == 2
        assert hist.bin_80_100 == 0
        assert at_or_above_100(hist) == 0


class TestDeterminism:
    def test_rebuild_is_equal(self):
        assert build_benchmark() == build_benchmark()

    def test_emitted_network_bytes_are_stable(self):
        first = emit_network_file(build_benchmark().network)
        second = emit_network_file(build_benchmark().network)
        assert first == second

    def test_profiles_cover_the_day(self, bench):
        for profile in bench.profiles.values():
            assert len(profile.coefficients) == 96
        assert bench.profiles["campus_buildings"].coefficient(36) == 1.0
