"""Scenario engine: profiles, EV/PV load construction, sweep, stagger."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gridstress import (
    Branch,
    Bus,
    CableType,
    Generator,
    Network,
    NominalLoad,
    build_injections,
    build_ybus,
    derive_impedances,
    ev_load_kw,
    normalize_profile,
    one_third_stagger,
    pv_injection_kw,
    run_sweep,
    solve_newton_raphson,
)
from gridstress import powerflow as powerflow_module
from gridstress import scenario as scenario_module
from gridstress.scenario import (
    LoadProfile,
    ParkingLot,
    ProfileBindings,
    ProfileError,
    Scenario,
    ScenarioConfigError,
    StaggerState,
    ev_workday_profile,
    pv_clear_day_profile,
    sweep_is_parallelizable,
)

DATA = Path(__file__).parent / "data"


class TestNormalizeProfile:
    def test_divides_by_maximum(self):
        profile = normalize_profile([50.0, 100.0, 75.0])
        assert profile.coefficients == (0.5, 1.0, 0.75)

    def test_constant_series(self):
        profile = normalize_profile([7.0, 7.0, 7.0])
        assert profile.coefficients == (1.0, 1.0, 1.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ProfileError, match="empty"):
            normalize_profile([])

    def test_all_zero_rejected(self):
        with pytest.raises(ProfileError, match="maximum"):
            normalize_profile([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ProfileError, match=">= 0"):
            normalize_profile([5.0, -1.0])

    def test_output_max_is_exactly_one(self, rng):
        for _ in range(100):
            series = [rng.uniform(0.0, 5000.0) for _ in range(rng.randrange(1, 200))]
            if max(series) <= 0:
                continue
            profile = normalize_profile(series)
            assert max(profile.coefficients) == 1.0
            assert all(0.0 <= c <= 1.0 for c in profile.coefficients)


class TestLoadProfile:
    def test_rejects_out_of_range(self):
        with pytest.raises(ProfileError, match="outside"):
            LoadProfile("p", (0.5, 1.2))

    def test_rejects_max_below_one(self):
        with pytest.raises(ProfileError, match="max"):
            LoadProfile("p", (0.5, 0.8))

    def test_slot_bounds(self):
        profile = LoadProfile("p", (1.0, 0.25))
        assert profile.coefficient(1) == 0.25
        with pytest.raises(ProfileError, match="slot"):
            profile.coefficient(2)

    def test_default_shapes(self):
        ev = ev_workday_profile()
        assert len(ev) == 96
        assert ev.coefficient(36) == 1.0      # 09:00, charging hours
        assert ev.coefficient(31) == 0.0      # 07:45, before the window
        assert ev.coefficient(68) == 0.0      # 17:00, after the window
        pv = pv_clear_day_profile()
        assert pv.coefficient(48) == 1.0      # noon peak
        assert pv.coefficient(24) == 0.0      # 06:00 sunrise edge
        assert pv.coefficient(0) == 0.0
        assert pv.coefficient(36) == pytest.approx(0.7071067811865476)


class TestEvLoadKw:
    def test_table_lot_examples(self):
        assert ev_load_kw(0.10, 1290, 10.0) == pytest.approx(1290.0)
        assert ev_load_kw(0.25, 1370, 10.0) == 3425.0
        assert ev_load_kw(0.0, 1760, 10.0) == 0.0

    def test_continuous_no_rounding(self):
        assert ev_load_kw(0.15, 7, 10.0) == pytest.approx(10.5)

    def test_linear_in_each_argument(self, rng):
        for _ in range(50):
            pen = rng.uniform(0.0, 0.5)
            cap = rng.randrange(0, 2000)
            kw = rng.uniform(7.0, 19.0)
            assert ev_load_kw(2 * pen, cap, kw) == pytest.approx(2 * ev_load_kw(pen, cap, kw))
            assert ev_load_kw(pen, 3 * cap, kw) == pytest.approx(3 * ev_load_kw(pen, cap, kw))

    def test_range_checks(self):
        with pytest.raises(ValueError, match="penetration"):
            ev_load_kw(1.5, 100, 10.0)
        with pytest.raises(ValueError, match="capacity"):
            ev_load_kw(0.5, -1, 10.0)


class TestPvInjection:
    def test_full_output(self):
        site = Generator("Student REC", "pv_site", 1200.0)
        profile = LoadProfile("pv", tuple([1.0] * 96))
        assert pv_injection_kw(site, profile, 48) == 1200.0

    def test_night_slot(self):
        site = Generator("Parking B2", "pv_site", 467.0)
        assert pv_injection_kw(site, pv_clear_day_profile(), 0) == 0.0

    def test_half_output(self):
        site = Generator("E6", "pv_site", 225.0)
        coeffs = [1.0] * 96
        coeffs[10] = 0.5
        assert pv_injection_kw(site, LoadProfile("pv", tuple(coeffs)), 10) == 112.5


class TestScenarioValidation:
    def test_penetration_range(self):
        with pytest.raises(ScenarioConfigError, match="penetration"):
            Scenario("bad", penetration=1.2)

    def test_charger_range_enforced(self):
        with pytest.raises(ScenarioConfigError, match="per_charger_kw"):
            Scenario("bad", penetration=0.1, per_charger_kw=50.0)
        Scenario("ok", penetration=0.1, per_charger_kw=50.0,
                 allow_nonstandard_charger=True)

    def test_controller_name(self):
        with pytest.raises(ScenarioConfigError, match="controller"):
            Scenario("bad", penetration=0.1, controller="psychic")

    def test_parking_lot_capacity_positive_integer(self):
        with pytest.raises(ScenarioConfigError, match="capacity"):
            ParkingLot("L", 0, "somewhere")

    def test_connected_kw_aggregates_by_bus(self):
        scenario = Scenario("s", penetration=0.5, parking_lots=(
            ParkingLot("a", 100, "shared"),
            ParkingLot("b", 60, "shared"),
        ))
        assert scenario.ev_connected_kw_by_bus() == {"shared": 800.0}


def _flat_profile(profile_id: str = "flat", slots: int = 96) -> LoadProfile:
    return LoadProfile(profile_id, tuple([1.0] * slots))


def _mini_grid(load_kw: float = 0.0, pv_kw: float = 0.0) -> Network:
    catalog = {"c": CableType("c", 0.05, 0.12)}
    buses = (
        Bus("feed", "slack", 4.16),
        Bus("town", "load", 4.16, NominalLoad(load_kw, 0.0)),
    )
    generators = (Generator("town", "pv_site", pv_kw),) if pv_kw else ()
    net = Network(10.0, buses, (
        Branch("feed", "town", "cable", 10000.0, cable_type="c", length_miles=0.5),
    ), generators, catalog)
    return derive_impedances(net)


class TestBuildInjections:
    def test_zero_loads_give_zero_injections(self):
        net = _mini_grid(load_kw=0.0)
        scenario = Scenario("empty", penetration=0.0)
        assert build_injections(net, scenario, {}, 0) == {"town": 0j}

    def test_half_coefficient_scaling(self):
        net = _mini_grid(load_kw=1000.0)
        coeffs = [1.0] * 96
        coeffs[0] = 0.5
        profiles = {"p": LoadProfile("p", tuple(coeffs))}
        scenario = Scenario("s", penetration=0.0,
                            bindings=ProfileBindings(load_default="p"))
        injections = build_injections(net, scenario, profiles, 0)
        assert injections["town"].real == -0.05
        assert injections["town"].imag == 0.0

    def test_missing_load_binding_is_config_error(self):
        net = _mini_grid(load_kw=500.0)
        scenario = Scenario("s", penetration=0.0)
        with pytest.raises(ScenarioConfigError, match="no load profile"):
            build_injections(net, scenario, {}, 0)

    def test_missing_ev_binding_is_config_error(self):
        net = _mini_grid()
        scenario = Scenario("s", penetration=0.5,
                            parking_lots=(ParkingLot("L", 10, "town"),))
        with pytest.raises(ScenarioConfigError, match="EV profile"):
            build_injections(net, scenario, {}, 0)

    def test_missing_pv_binding_is_config_error(self):
        net = _mini_grid(pv_kw=100.0)
        scenario = Scenario("s", penetration=0.0, pv_enabled=True)
        with pytest.raises(ScenarioConfigError, match="PV profile"):
            build_injections(net, scenario, {}, 0)

    def test_unknown_parking_bus_is_config_error(self):
        net = _mini_grid()
        scenario = Scenario("s", penetration=0.5,
                            parking_lots=(ParkingLot("L", 10, "nowhere"),),
                            bindings=ProfileBindings(ev="flat"))
        with pytest.raises(ScenarioConfigError, match="unknown bus"):
            build_injections(net, scenario, {"flat": _flat_profile()}, 0)

    def test_pv_enters_as_negative_load(self):
        net = _mini_grid(load_kw=0.0, pv_kw=500.0)
        scenario = Scenario("s", penetration=0.0, pv_enabled=True,
                            bindings=ProfileBindings(pv_default="flat"))
        injections = build_injections(net, scenario, {"flat": _flat_profile()}, 0)
        assert injections["town"] == 0.05 + 0j

    def test_generator_profile_field_takes_precedence(self):
        net = _mini_grid(pv_kw=500.0)
        site = net.generators[0]
        net = Network(net.s_base_mva, net.buses, net.branches,
                      (Generator(site.bus, site.kind, site.capacity_kw, "special"),),
                      net.cable_catalog)
        half = [1.0] * 96
        half[0] = 0.5
        profiles = {"flat": _flat_profile(), "special": LoadProfile("special", tuple(half))}
        scenario = Scenario("s", penetration=0.0, pv_enabled=True,
                            bindings=ProfileBindings(pv_default="flat"))
        injections = build_injections(net, scenario, profiles, 0)
        assert injections["town"].real == pytest.approx(0.025)

    def test_golden_benchmark_injection_vector(self, bench):
        """Regenerate the stored injection fixture and hand-audit 3 buses."""
        injections = build_injections(bench.network, bench.scenario("ev25"),
                                      bench.profiles, 36)
        golden = json.loads((DATA / "golden_injections_ev25_slot36.json").read_text())
        assert set(golden) == set(injections)
        for bus, (real, imag) in golden.items():
            assert injections[bus] == complex(real, imag), bus
        # Independent audits: building kW plus 25% x stalls x 10 kW,
        # reactive at 0.95 power factor, on the 10 MVA base.
        assert injections["Parking G3"] == complex(-0.4575, -0.000821710262947158)
        assert injections["Oviatt library"] == complex(-0.042, -0.013804732417512256)
        assert injections["E6 Mathador Hall"] == complex(-0.157, -0.0031224989991992004)


class TestOneThirdStagger:
    def test_three_bus_rotation_trace(self):
        # Hand-enumerated: 3 buses x 100 kW demand, groups of one bus each.
        state = StaggerState({"a": 100.0, "b": 100.0, "c": 100.0})
        total_active = []
        for interval in range(3):
            demands = {"a": 100.0, "b": 100.0, "c": 100.0}
            active, actions = one_third_stagger(demands, interval, state)
            total_active.append(sum(active.values()))
            assert sum(active.values()) == 100.0
        assert total_active == [100.0, 100.0, 100.0]
        assert state.served == Fraction(300)
        assert state.demanded == Fraction(900)
        assert state.unserved() == Fraction(600)

    def test_single_bus_serves_every_third_interval(self):
        state = StaggerState({"solo": 100.0})
        served = []
        for interval in range(6):
            active, _ = one_third_stagger({"solo": 100.0}, interval, state)
            served.append(active["solo"])
        assert served == [100.0, 0.0, 0.0, 100.0, 0.0, 0.0]
        # two-thirds of demand deferred and reported unserved at horizon
        assert state.served == Fraction(200)
        assert state.demanded == Fraction(600)
        assert state.unserved() == Fraction(400)

    def test_zero_demand_no_actions(self):
        state = StaggerState({"a": 100.0, "b": 50.0})
        active, actions = one_third_stagger({"a": 0.0, "b": 0.0}, 0, state)
        assert active == {"a": 0.0, "b": 0.0}
        assert actions == ()
        assert state.demanded == 0

    def test_queue_drains_fifo_with_headroom(self):
        # Low current demand leaves room to drain the oldest deferral.
        state = StaggerState({"x": 100.0})
        one_third_stagger({"x": 80.0}, 1, state)   # group 0 inactive; 80 queued
        one_third_stagger({"x": 70.0}, 2, state)   # 70 queued behind it
        active, actions = one_third_stagger({"x": 30.0}, 3, state)  # active
        assert active["x"] == 100.0
        action = actions[0]
        assert action.drained_kw == 100.0          # 80 then 20 of the 70
        assert action.served_kw == 100.0
        assert action.deferred_kw == 30.0          # current demand re-queued
        assert state.unserved() == Fraction(80)    # 50 old + 30 new

    def test_conservation_is_exact(self, rng):
        buses = {f"b{i}": rng.uniform(10.0, 300.0) for i in range(5)}
        state = StaggerState(buses)
        for interval in range(30):
            demands = {bus: rng.uniform(0.0, cap) for bus, cap in buses.items()}
            active, _ = one_third_stagger(demands, interval, state)
            cap = state.group_cap_kw(interval)
            assert sum(active.values()) <= cap + 1e-9
        assert state.served + state.unserved() == state.demanded

    def test_unknown_bus_rejected(self):
        state = StaggerState({"a": 100.0})
        with pytest.raises(ScenarioConfigError, match="no group"):
            one_third_stagger({"ghost": 50.0}, 0, state)

    def test_groups_round_robin_over_sorted_ids(self):
        state = StaggerState({"d": 1.0, "a": 1.0, "c": 1.0, "b": 1.0})
        assert state.group == {"a": 0, "b": 1, "c": 2, "d": 0}


def _stagger_demo_network() -> Network:
    catalog = {"c": CableType("c", 0.05, 0.12)}
    buses = [Bus("feed", "slack", 4.16)]
    branches = []
    for name in ("lot-a", "lot-b", "lot-c"):
        buses.append(Bus(name, "load", 4.16))
        branches.append(Branch("feed", name, "cable", 10000.0,
                               cable_type="c", length_miles=0.2))
    return derive_impedances(Network(10.0, tuple(buses), tuple(branches), (), catalog))


class TestRunSweep:
    def test_zero_load_day_is_flat(self):
        net = _mini_grid(load_kw=0.0)
        scenario = Scenario("calm", penetration=0.0)
        result = run_sweep(net, scenario, {})
        assert len(result.records) == 96
        for record in result.records:
            assert record.solution.converged
            assert record.solution.v_mag == (1.0, 1.0)
            assert record.actions == ()
        assert result.ledger.demanded_kwh == 0

    def test_single_interval_equals_direct_solve(self, bench):
        scenario = bench.scenario("ev10")
        result = run_sweep(bench.network, scenario, bench.profiles, intervals=[36])
        direct = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, scenario, bench.profiles, 36))
        record = result.records[0]
        assert record.solution.v_mag == direct.v_mag
        assert record.solution.v_ang == direct.v_ang
        assert not record.resolved

    def test_null_controller_zero_penetration_matches_base_grid(self, bench):
        base = bench.scenario("base")
        result = run_sweep(bench.network, base, bench.profiles, intervals=[36])
        direct = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, base, bench.profiles, 36))
        sweep_loadings = result.records[0].solution.loading_by_branch()
        for flow in direct.branch_flows:
            assert sweep_loadings[flow.branch_id] == pytest.approx(
                flow.loading_percent, abs=1e-9)

    def test_stagger_demo_ledger(self):
        net = _stagger_demo_network()
        lots = tuple(ParkingLot(name, 10, f"lot-{name[-1]}") for name in ("a", "b", "c"))
        scenario = Scenario("lm", penetration=1.0, parking_lots=lots,
                            controller="one_third_stagger",
                            bindings=ProfileBindings(ev="flat"))
        profiles = {"flat": _flat_profile()}
        result = run_sweep(net, scenario, profiles, intervals=[0, 1, 2])
        # 3 buses x 100 kW x 3 slots demanded; one bus active per slot.
        assert result.ledger.demanded_kwh == Fraction(900) * Fraction(1, 4)
        assert result.ledger.served_kwh == Fraction(300) * Fraction(1, 4)
        assert result.ledger.unserved_kwh == Fraction(600) * Fraction(1, 4)
        assert (result.ledger.served_kwh + result.ledger.unserved_kwh
                == result.ledger.demanded_kwh)
        for record in result.records:
            assert record.resolved
            served = sum(a.served_kw for a in record.actions)
            assert served == 100.0

    def test_stagger_does_not_resolve_when_nothing_changes(self):
        net = _stagger_demo_network()
        lots = (ParkingLot("a", 10, "lot-a"),)
        coeffs = [0.0] * 96
        coeffs[50] = 1.0
        scenario = Scenario("lm", penetration=1.0, parking_lots=lots,
                            controller="one_third_stagger",
                            bindings=ProfileBindings(ev="night"))
        profiles = {"night": LoadProfile("night", tuple(coeffs))}
        result = run_sweep(net, scenario, profiles, intervals=[0])
        assert not result.records[0].resolved

    def test_divergence_recorded_and_sweep_continues(self):
        net = _mini_grid(load_kw=400000.0)  # far beyond deliverable power
        scenario = Scenario("doom", penetration=0.0,
                            bindings=ProfileBindings(load_default="flat"))
        result = run_sweep(net, scenario, {"flat": _flat_profile()}, intervals=[0, 1])
        assert len(result.records) == 2
        assert result.diverged_intervals() == (0, 1)

    def test_pv_never_increases_slack_power(self, bench):
        no_pv = run_sweep(bench.network, bench.scenario("ev25"), bench.profiles,
                          intervals=[36]).records[0].solution
        with_pv = run_sweep(bench.network, bench.scenario("ev25_pv"), bench.profiles,
                            intervals=[36]).records[0].solution
        assert with_pv.slack_injection.real <= no_pv.slack_injection.real

    def test_stagger_day_solves_each_interval_once(self, bench, monkeypatch):
        calls = []

        def counted(net, injections, opts):
            calls.append(1)
            return solve_newton_raphson(net, injections, opts)

        monkeypatch.setattr(scenario_module, "solve_newton_raphson", counted)
        result = run_sweep(bench.network, bench.scenario("ev25_pv_lm"), bench.profiles)
        assert any(record.resolved for record in result.records)
        assert len(calls) == len(result.records) == 96

    def test_ybus_built_once_per_network_across_sweeps(self, bench, monkeypatch):
        net = dataclasses.replace(bench.network)   # a fresh, never-solved instance
        builds = []

        def counted(network):
            builds.append(network)
            return build_ybus(network)

        monkeypatch.setattr(powerflow_module, "build_ybus", counted)
        for name in ("ev25", "ev25_pv_lm"):
            for _ in range(2):
                run_sweep(net, bench.scenario(name), bench.profiles, intervals=[35, 36, 37])
        assert builds == [net]

    def test_parallelizable_flag(self, bench):
        assert sweep_is_parallelizable(bench.scenario("ev25"))
        assert not sweep_is_parallelizable(bench.scenario("ev25_pv_lm"))
