"""Scenario engine: profiles, EV/PV load construction, sweep, stagger."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstress import (
    Branch,
    Bus,
    CableType,
    Generator,
    Network,
    NominalLoad,
    build_injections,
    derive_impedances,
    ev_load_kw,
    normalize_profile,
    one_third_stagger,
    run_study,
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
    ev_workday_profile,
    pv_clear_day_profile,
)

from helpers import (
    FifoStagger,
    bus_vector,
    feeder_days,
    slot_injections,
    stagger_day,
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
        assert len(ev.coefficients) == 96
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
    """A PV site injects its capacity times its profile coefficient."""

    @staticmethod
    def _injection(capacity_kw: float, profile: LoadProfile, slot: int) -> complex:
        scenario = Scenario("s", penetration=0.0, pv_enabled=True,
                            bindings=ProfileBindings(pv_default=profile.id))
        injections = build_injections(_mini_grid(pv_kw=capacity_kw), scenario,
                                      {profile.id: profile}, slot)
        return injections[1]

    def test_full_output(self):
        profile = LoadProfile("pv", tuple([1.0] * 96))
        assert self._injection(1200.0, profile, 48) == complex(1200.0 / 10_000.0, 0.0)

    def test_night_slot(self):
        assert self._injection(467.0, pv_clear_day_profile(), 0) == 0j

    def test_half_output(self):
        coeffs = [1.0] * 96
        coeffs[10] = 0.5
        assert self._injection(225.0, LoadProfile("pv", tuple(coeffs)), 10) == complex(
            112.5 / 10_000.0, 0.0)


class TestScenarioValidation:
    def test_penetration_range(self):
        with pytest.raises(ScenarioConfigError, match="penetration"):
            Scenario("bad", penetration=1.2)

    def test_charger_range_enforced(self):
        with pytest.raises(ScenarioConfigError, match="per_charger_kw"):
            Scenario("bad", penetration=0.1, per_charger_kw=50.0)
        Scenario("ok", penetration=0.1, per_charger_kw=50.0,
                 allow_nonstandard_charger=True)

    @pytest.mark.parametrize("kw", [-5.0, float("nan"), float("inf"), float("-inf")])
    def test_nonstandard_charger_is_finite_and_non_negative(self, kw):
        with pytest.raises(ScenarioConfigError,
                           match=f"per_charger_kw must be finite and >= 0, got {kw}"):
            Scenario("bad", penetration=0.1, per_charger_kw=kw,
                     allow_nonstandard_charger=True)
        Scenario("idle", penetration=0.1, per_charger_kw=0.0,
                 allow_nonstandard_charger=True)

    def test_controller_name(self):
        with pytest.raises(ScenarioConfigError, match="controller"):
            Scenario("bad", penetration=0.1, controller="psychic")

    def test_parking_lot_capacity_positive_integer(self):
        for capacity in (0, -3, 2.5, float("inf"), float("-inf"), float("nan"), True, False,
                         "12"):
            with pytest.raises(ScenarioConfigError,
                               match=f"^parking lot 'L' capacity must be a positive integer, "
                                     f"got {re.escape(repr(capacity))}$"):
                ParkingLot("L", capacity, "somewhere")
        assert ParkingLot("L", 12.0, "somewhere").capacity == 12.0

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
        assert build_injections(net, scenario, {}, 0).tolist() == [0j, 0j]

    def test_half_coefficient_scaling(self):
        net = _mini_grid(load_kw=1000.0)
        coeffs = [1.0] * 96
        coeffs[0] = 0.5
        profiles = {"p": LoadProfile("p", tuple(coeffs))}
        scenario = Scenario("s", penetration=0.0,
                            bindings=ProfileBindings(load_default="p"))
        injections = build_injections(net, scenario, profiles, 0)
        assert net.bus_ids() == ("feed", "town")
        assert injections[1].real == -0.05
        assert injections[1].imag == 0.0

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

    def test_lot_or_pv_site_on_the_slack_bus_is_a_diagnostic(self):
        """Neither reaches the power flow, so neither may count as served."""
        lot = Scenario("s", 1.0, parking_lots=(ParkingLot("A", 100, "feed"),),
                       bindings=ProfileBindings(ev="flat"))
        net = _mini_grid()
        pv_net = dataclasses.replace(net, generators=(Generator("feed", "pv_site", 250.0),))
        pv = Scenario("s", 0.0, pv_enabled=True, bindings=ProfileBindings(pv_default="flat"))
        profiles = {"flat": _flat_profile()}
        where = "where the power flow takes no injection"
        for network, scenario, message in (
                (net, lot, f"parking lot 'A' is on slack bus 'feed', {where}"),
                (pv_net, pv, f"PV site of 250 kW is on slack bus 'feed', {where}")):
            for run in (lambda: run_sweep(network, scenario, profiles, intervals=[0]),
                        lambda: build_injections(network, scenario, profiles, 0)):
                with pytest.raises(ScenarioConfigError) as info:
                    run()
                assert str(info.value) == message
            assert scenario_module.placement_errors(network, scenario) == [message]
        # A PV site on the slack bus is no error while PV is off.
        assert run_sweep(pv_net, dataclasses.replace(pv, pv_enabled=False), profiles,
                         intervals=[0]).records[0].solution.converged

    @pytest.mark.parametrize("pv_enabled", [False, True])
    @pytest.mark.parametrize("bindings, message", [
        (ProfileBindings(load={"twon": "flat"}), "load binding references unknown bus 'twon'"),
        (ProfileBindings(load={"feed": "flat"}),
         "load binding is on slack bus 'feed', where the power flow takes no injection"),
        (ProfileBindings(pv={"feed": "flat"}),
         "PV binding references bus 'feed', which carries no PV site"),
        (ProfileBindings(pv={"Nowhere": "flat"}),
         "PV binding references bus 'Nowhere', which carries no PV site"),
    ], ids=["load-unknown-bus", "load-slack-bus", "pv-bus-without-site", "pv-unknown-bus"])
    def test_a_binding_key_that_names_nothing_is_a_diagnostic(self, pv_enabled, bindings,
                                                              message):
        """A binding whose key names no bus it could apply to binds nothing,
        so the study would run as if it were absent."""
        net = _mini_grid(load_kw=500.0, pv_kw=100.0)     # load and PV site at 'town'
        bound = dataclasses.replace(bindings, load_default="flat", pv_default="flat")
        scenario = Scenario("s", 0.0, pv_enabled=pv_enabled, bindings=bound)
        with pytest.raises(ScenarioConfigError) as info:
            run_study(net, [scenario], {"flat": _flat_profile()}, [0])
        assert str(info.value) == message
        assert scenario_module.placement_errors(net, scenario) == [message]
        # The same key on the bus that has the load and the PV site binds it.
        fixed = dataclasses.replace(bound, **{name: {"town": "flat"}
                                              for name in ("load", "pv") if getattr(bindings, name)})
        study = run_study(net, [dataclasses.replace(scenario, bindings=fixed)],
                          {"flat": _flat_profile()}, [0])
        assert study[0].records[0].solution.converged

    def test_misspelt_campus_bindings_are_reported_together(self, bench):
        ev10 = bench.scenario("ev10")
        typo = dataclasses.replace(ev10, bindings=dataclasses.replace(
            ev10.bindings, load={"Juniper Hal": "ev_workday"}, pv={"Nowhere": "ev_workday"}))
        with pytest.raises(ScenarioConfigError) as info:
            run_study(bench.network, [typo], bench.profiles, [36])
        assert str(info.value) == ("load binding references unknown bus 'Juniper Hal'; "
                                   "PV binding references bus 'Nowhere', which carries no PV site")

    @pytest.mark.parametrize("run", ["build_injections", "run_sweep"])
    @pytest.mark.parametrize("load_kw, pv_kw, scenario, message", [
        (500.0, 0.0, Scenario("s", 0.0),
         "no load profile bound for bus 'town'"),
        (500.0, 0.0, Scenario("s", 0.0, bindings=ProfileBindings(load_default="gone")),
         "load profile 'gone' for bus 'town' not found"),
        (0.0, 100.0, Scenario("s", 0.0, pv_enabled=True),
         "no PV profile bound for site at 'town'"),
        (0.0, 100.0, Scenario("s", 0.0, pv_enabled=True,
                              bindings=ProfileBindings(pv_default="gone")),
         "PV profile 'gone' for site at 'town' not found"),
        (0.0, 0.0, Scenario("s", 0.5, parking_lots=(ParkingLot("L", 10, "town"),)),
         "scenario has EV load but no EV profile binding"),
        (0.0, 0.0, Scenario("s", 0.5, parking_lots=(ParkingLot("L", 10, "town"),),
                            bindings=ProfileBindings(ev="gone")),
         "bindings.ev: EV profile 'gone' not found"),
        (0.0, 0.0, Scenario("s", 0.5, parking_lots=(ParkingLot("L", 10, "nowhere"),),
                            bindings=ProfileBindings(ev="flat")),
         "parking lot 'L' references unknown bus 'nowhere'"),
    ])
    def test_binding_diagnostics_full_text(self, run, load_kw, pv_kw, scenario, message):
        net = _mini_grid(load_kw=load_kw, pv_kw=pv_kw)
        with pytest.raises(ScenarioConfigError) as info:
            if run == "build_injections":
                build_injections(net, scenario, {"flat": _flat_profile()}, 0)
            else:
                run_sweep(net, scenario, {"flat": _flat_profile()}, intervals=[0])
        assert str(info.value) == message

    def test_pv_enters_as_negative_load(self):
        net = _mini_grid(load_kw=0.0, pv_kw=500.0)
        scenario = Scenario("s", penetration=0.0, pv_enabled=True,
                            bindings=ProfileBindings(pv_default="flat"))
        injections = build_injections(net, scenario, {"flat": _flat_profile()}, 0)
        assert injections[1] == 0.05 + 0j

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
        assert injections[1].real == pytest.approx(0.025)

    def test_golden_benchmark_injection_vector(self, bench):
        """Regenerate the stored injection fixture and hand-audit 3 buses."""
        net = bench.network
        vector = build_injections(net, bench.scenario("ev25"), bench.profiles, 36)
        golden = json.loads((DATA / "golden_injections_ev25_slot36.json").read_text())
        assert set(golden) == set(net.bus_ids()) - {net.slack_id()}
        assert vector.tobytes() == bus_vector(net, {bus: complex(real, imag) for bus, (real, imag)
                                                    in golden.items()}).tobytes()
        injections = dict(zip(net.bus_ids(), vector.tolist()))
        # Independent audits: building kW plus 25% x stalls x 10 kW,
        # reactive at 0.95 power factor, on the 10 MVA base.
        assert injections["Parking G3"] == complex(-0.4575, -0.000821710262947158)
        assert injections["Oviatt library"] == complex(-0.042, -0.013804732417512256)
        assert injections["E6 Mathador Hall"] == complex(-0.157, -0.0031224989991992004)


def _day(*rows: float) -> np.ndarray:
    """A one-bus day of demand: one row per interval."""
    return np.array(rows, dtype=float)[:, None]


class TestOneThirdStagger:
    def test_three_bus_rotation_trace(self):
        # Hand-enumerated: 3 buses x 100 kW demand, groups of one bus each.
        served, unserved = stagger_day({"a": 100.0, "b": 100.0, "c": 100.0},
                                       np.full((3, 3), 100.0), range(3))
        assert served.tolist() == [[100, 0, 0], [0, 100, 0], [0, 0, 100]]
        assert unserved == Fraction(600)     # 900 demanded - 300 served

    def test_single_bus_serves_every_third_interval(self):
        served, unserved = stagger_day({"solo": 100.0}, np.full((6, 1), 100.0), range(6))
        assert served[:, 0].tolist() == [100, 0, 0, 100, 0, 0]
        # two-thirds of the 600 demanded deferred and reported unserved at horizon
        assert unserved == Fraction(400)

    def test_zero_demand_serves_and_defers_nothing(self):
        served, unserved = stagger_day({"a": 100.0, "b": 50.0}, np.zeros((3, 2)), range(3))
        assert served.tolist() == [[0, 0]] * 3
        assert unserved == 0

    def test_backlog_drains_with_headroom(self):
        # Group 0 is idle at 1 (80 deferred) and 2 (backlog 150), active at 3.
        served, unserved = stagger_day({"x": 100.0}, _day(80.0, 70.0, 30.0), [1, 2, 3])
        assert served[:, 0].tolist() == [0, 0, 100]     # 100 of the 150 drained
        assert unserved == Fraction(80)                 # 50 old + 30 new

    def test_idle_bus_keeps_its_backlog(self):
        served, unserved = stagger_day({"x": 100.0}, _day(80.0, 0.0), [1, 2])
        assert served[:, 0].tolist() == [0, 0]
        assert unserved == Fraction(80)

    def test_active_bus_without_room_acts_like_an_idle_one(self):
        for intervals in ([0], [0, 3]):     # active both times, no room
            served, unserved = stagger_day({"x": 0.0}, _day(80.0, 0.0)[:len(intervals)],
                                           intervals)
            assert served[:, 0].tolist() == [0] * len(intervals)
            assert unserved == Fraction(80)

    def test_negative_demand_rejected(self):
        with pytest.raises(ScenarioConfigError, match="negative EV demand at 'a'"):
            one_third_stagger({"a": 100.0}, _day(-1.0), [0])
        for demand, problem in ((-math.inf, "negative"), (math.inf, "non-finite"),
                                (math.nan, "non-finite")):
            with pytest.raises(ScenarioConfigError, match=f"^{problem} EV demand at 'a'$"):
                one_third_stagger({"a": 100.0}, _day(demand), [0])

    def test_matches_the_fifo_reference_model(self, rng):
        # Random bus sets, caps (some zero) and demand runs past three
        # slots, so groups wrap; demand may be zero, partial or above cap.
        for _ in range(300):
            caps = {f"bus-{i}": rng.choice((0.0, rng.uniform(1.0, 300.0)))
                    for i in rng.sample(range(20), rng.randrange(1, 8))}
            intervals = range(rng.randrange(4, 25))
            demanded = np.array([[rng.choice((0.0, rng.uniform(0.0, 1.5 * cap + 1.0)))
                                  if rng.random() < 0.9 else 0.0 for cap in caps.values()]
                                 for _ in intervals])
            stagger_day(caps, demanded, intervals)

    def test_conservation_is_exact(self, rng):
        buses = {f"b{i}": rng.uniform(10.0, 300.0) for i in range(5)}
        demanded = np.array([[rng.uniform(0.0, cap) for cap in buses.values()]
                             for _ in range(30)])
        # stagger_day asserts served + unserved == demanded on every prefix.
        _, unserved = stagger_day(buses, demanded, range(30))
        assert unserved > 0

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 1), (3, 3)])
    def test_a_demand_matrix_of_another_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match="expected \\(3 intervals, 2 buses\\)"):
            one_third_stagger({"a": 100.0, "b": 100.0}, np.zeros(shape), range(3))

    def test_groups_round_robin_over_sorted_ids(self):
        # Columns follow the mapping's order; groups follow the sorted ids.
        served, _ = stagger_day({"d": 1.0, "a": 1.0, "c": 1.0, "b": 1.0},
                                np.ones((3, 4)), range(3))
        serving = [{bus for bus, kw in zip("dacb", row) if kw} for row in served.tolist()]
        assert serving == [{"a", "d"}, {"b"}, {"c"}]

    def test_run_study_settles_each_stagger_day_in_one_call(self, bench, monkeypatch):
        calls = []

        def spy(connected_kw, demanded_kw, intervals):
            calls.append((dict(connected_kw), demanded_kw.shape, list(intervals)))
            return one_third_stagger(connected_kw, demanded_kw, intervals)

        monkeypatch.setattr(scenario_module, "one_third_stagger", spy)
        lm = bench.scenario("ev25_pv_lm")
        scenarios = [lm, bench.scenario("ev25"), dataclasses.replace(lm, name="lm2")]
        run_study(bench.network, scenarios, bench.profiles)
        connected = lm.ev_connected_kw_by_bus()
        assert calls == [(connected, (96, len(connected)), list(range(96)))] * 2


def _stagger_demo_network() -> Network:
    catalog = {"c": CableType("c", 0.05, 0.12)}
    buses = [Bus("feed", "slack", 4.16)]
    branches = []
    for name in ("lot-a", "lot-b", "lot-c"):
        buses.append(Bus(name, "load", 4.16))
        branches.append(Branch("feed", name, "cable", 10000.0,
                               cable_type="c", length_miles=0.2))
    return derive_impedances(Network(10.0, tuple(buses), tuple(branches), (), catalog))


def _count_solves(monkeypatch) -> list[bytes]:
    """Spy on run_sweep's batch solve; returns the bytes of every row it
    solved, in order. Each batch's rows are also kept on .batches."""
    calls = _SolvedRows()
    solve = scenario_module._newton_raphson

    def counted(net, rows, *args):
        calls.batches.append(len(rows))
        calls.extend(row.tobytes() for row in rows)
        return solve(net, rows, *args)

    monkeypatch.setattr(scenario_module, "_newton_raphson", counted)
    return calls


class _SolvedRows(list):
    """The rows a spied sweep solved; batches holds each batch's row count."""

    def __init__(self):
        super().__init__()
        self.batches: list[int] = []


def _sweep_recording_injections(monkeypatch, net, scenario, profiles):
    """run_sweep, and a copy of the row of injections it evaluated for
    each interval; the sweep must evaluate its day once.

    build_injections evaluates a day too, so the record is copied as soon
    as the sweep returns.
    """
    built = {}
    days = []
    day_injections = scenario_module._day_injections

    def recorded(net, scenario, profiles, intervals, ev_buses, ev_kw):
        injections = day_injections(net, scenario, profiles, intervals, ev_buses, ev_kw)
        built.update(zip(intervals, injections.copy()))
        days.append(len(intervals))
        return injections

    monkeypatch.setattr(scenario_module, "_day_injections", recorded)
    result = run_sweep(net, scenario, profiles)
    assert days == [len(result.records)]
    return result, dict(built)


def _evaluate(net, scenario, profiles, interval, ev_kw):
    """The injections at one interval with ev_kw, by bus id, as the whole EV draw."""
    return scenario_module._day_injections(net, scenario, profiles, [interval], list(ev_kw),
                                           np.array([list(ev_kw.values())], dtype=float))[0]


def _nominal_solution(net, scenario, profiles, interval):
    """A direct solve of the interval's injections with the nominal EV draw."""
    return solve_newton_raphson(net, build_injections(net, scenario, profiles, interval))


class TestRunSweep:
    def test_zero_load_day_is_flat(self):
        net = _mini_grid(load_kw=0.0)
        scenario = Scenario("calm", penetration=0.0)
        result = run_sweep(net, scenario, {})
        assert len(result.records) == 96
        for record in result.records:
            assert record.solution.converged
            assert record.solution.v_mag == (1.0, 1.0)
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
        assert record.solution == direct

    def test_null_controller_zero_penetration_matches_base_grid(self, bench):
        base = bench.scenario("base")
        result = run_sweep(bench.network, base, bench.profiles, intervals=[36])
        direct = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, base, bench.profiles, 36))
        sweep_loadings = result.records[0].solution.loading_by_branch()
        assert len(direct.branch_ids) == len(bench.network.branches)
        for branch, loading in zip(direct.branch_ids, direct.loading_percent):
            assert sweep_loadings[branch] == pytest.approx(loading, abs=1e-9)

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
        # Each slot is solved with the settled draw: 100 kW at the one
        # active lot, nothing at the others, not the nominal 300 kW.
        for record, active in zip(result.records, ("lot-a", "lot-b", "lot-c")):
            settled = {bus: 100.0 if bus == active else 0.0
                       for bus in ("lot-a", "lot-b", "lot-c")}
            injections = _evaluate(net, scenario, profiles, record.interval, settled)
            assert record.solution == solve_newton_raphson(net, injections)
            assert record.solution != _nominal_solution(net, scenario, profiles,
                                                        record.interval)

    def test_stagger_without_demand_solves_the_nominal_injections(self):
        net = _stagger_demo_network()
        lots = (ParkingLot("a", 10, "lot-a"),)
        coeffs = [0.0] * 96
        coeffs[50] = 1.0
        scenario = Scenario("lm", penetration=1.0, parking_lots=lots,
                            controller="one_third_stagger",
                            bindings=ProfileBindings(ev="night"))
        profiles = {"night": LoadProfile("night", tuple(coeffs))}
        result = run_sweep(net, scenario, profiles, intervals=[0])
        assert result.records[0].solution == _nominal_solution(net, scenario, profiles, 0)

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
        calls = _count_solves(monkeypatch)
        scenario = bench.scenario("ev25_pv_lm")
        result, built = _sweep_recording_injections(monkeypatch, bench.network, scenario,
                                                    bench.profiles)
        assert any(record.solution != _nominal_solution(bench.network, scenario,
                                                        bench.profiles, record.interval)
                   for record in result.records)
        assert len(result.records) == len(built) == 96
        distinct = {vector.tobytes() for vector in built.values()}
        # One batch, one row per distinct injection set, none solved twice.
        assert calls.batches == [66]
        assert len(calls) == len(set(calls)) == len(distinct) == 66

    # ev25_pv_lm (66) is pinned by test_stagger_day_solves_each_interval_once.
    @pytest.mark.parametrize("name, solves", [
        ("base", 39), ("ev10", 39), ("ev25", 39), ("ev25_pv", 57)])
    def test_campus_day_solves_each_distinct_operating_point_once(
            self, bench, monkeypatch, name, solves):
        calls = _count_solves(monkeypatch)
        result = run_sweep(bench.network, bench.scenario(name), bench.profiles)
        assert len(result.records) == 96
        assert len(calls) == solves

    def test_every_record_equals_a_direct_solve_of_its_injections(self, bench, monkeypatch):
        scenario = bench.scenario("ev25_pv_lm")
        result, built = _sweep_recording_injections(monkeypatch, bench.network, scenario,
                                                    bench.profiles)
        assert any(record.solution != _nominal_solution(bench.network, scenario,
                                                        bench.profiles, record.interval)
                   for record in result.records)
        self._check_direct_solves(bench.network, result, built)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_feeder_record_equals_a_direct_solve_of_its_injections(
            self, monkeypatch, seed):
        diverged = 0
        for net, scenario, profiles in _feeder_cases(seed):
            with monkeypatch.context() as patch:
                result, built = _sweep_recording_injections(patch, net, scenario, profiles)
            diverged += len(result.diverged_intervals())
            self._check_direct_solves(net, result, built)
        # The top ramp steps push slots past the nose; their best iterate,
        # iteration count and mismatch must match a direct solve too.
        assert diverged > 0

    @staticmethod
    def _check_direct_solves(net, result, built):
        for record in result.records:
            direct = solve_newton_raphson(net, built[record.interval])
            assert record.solution == direct
            assert repr(record.solution) == repr(direct)

    def test_reuse_does_not_outlive_a_sweep(self, bench, monkeypatch):
        calls = _count_solves(monkeypatch)
        for expected in (39, 78):
            run_sweep(bench.network, bench.scenario("ev25"), bench.profiles)
            assert len(calls) == expected
        assert calls.batches == [39, 39]

    def test_jittered_day_solves_every_interval(self, monkeypatch):
        rng = random.Random(7)
        coeffs = [rng.uniform(0.2, 0.9) for _ in range(95)] + [1.0]
        scenario = Scenario("jitter", penetration=0.0,
                            bindings=ProfileBindings(load_default="jitter"))
        calls = _count_solves(monkeypatch)
        result = run_sweep(_mini_grid(load_kw=2000.0), scenario,
                           {"jitter": LoadProfile("jitter", tuple(coeffs))})
        assert len(calls) == len(result.records) == 96
        assert len({id(record.solution) for record in result.records}) == 96

    def test_signed_zero_injections_are_solved_apart(self, monkeypatch):
        net = _mini_grid(load_kw=0.0)
        sets = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]
        monkeypatch.setattr(scenario_module, "_day_injections",
                            lambda net, scenario, profiles, intervals, ev_buses, ev_kw:
                            np.array([[0j, sets[interval % 3]] for interval in intervals]))
        calls = _count_solves(monkeypatch)
        result = run_sweep(net, Scenario("zeros", penetration=0.0), {}, intervals=range(6))
        assert len(calls) == 3
        solutions = [record.solution for record in result.records]
        assert len({id(s) for s in solutions[:3]}) == 3
        assert all(a is b for a, b in zip(solutions[3:], solutions[:3]))

    def test_ybus_built_once_per_network_across_sweeps(self, bench, monkeypatch):
        """The network is compiled, Ybus included, on its first solve only."""
        net = dataclasses.replace(bench.network)   # a fresh, never-solved instance
        builds = []
        compile_ = powerflow_module._compile

        def counted(network):
            builds.append(network)
            return compile_(network)

        monkeypatch.setattr(powerflow_module, "_compile", counted)
        for name in ("ev25", "ev25_pv_lm"):
            for _ in range(2):
                run_sweep(net, bench.scenario(name), bench.profiles, intervals=[35, 36, 37])
        assert builds == [net]


# SHA-256 of the five-scenario campus day (test_campus_study_bits_are_pinned).
# A change that keeps every bit keeps it; one that moves the numbers on
# purpose states so and updates it.
CAMPUS_STUDY_SHA256 = "31fe0bd7e9cfa0f874c70dcb8985223aaad9a61dfffb330846768fe52f7809fb"


class TestRunStudy:
    def test_campus_study_bits_are_pinned(self, bench):
        """Each scenario's ledger, then each record's interval, voltages,
        branch columns, slack injection and stop record, by repr."""
        digest = hashlib.sha256()
        for result in run_study(bench.network, bench.scenarios, bench.profiles):
            digest.update(repr(result.ledger).encode())
            for record in result.records:
                s = record.solution
                digest.update(repr((record.interval, s.v_mag, s.v_ang, s.branch_ids, s.s_from,
                                    s.s_to, s.loading_percent, s.slack_injection, s.iterations,
                                    s.max_mismatch, s.stop_reason)).encode())
        assert digest.hexdigest() == CAMPUS_STUDY_SHA256

    def test_campus_study_equals_five_sweeps(self, bench):
        study = run_study(bench.network, bench.scenarios, bench.profiles)
        sweeps = [run_sweep(bench.network, scenario, bench.profiles)
                  for scenario in bench.scenarios]
        assert [result.scenario for result in study] == [s.name for s in bench.scenarios]
        assert [repr(result.records) for result in study] == [
            repr(result.records) for result in sweeps]
        assert [result.ledger for result in study] == [result.ledger for result in sweeps]

    def test_campus_study_is_one_batch_of_its_distinct_rows(self, bench, monkeypatch):
        calls = _count_solves(monkeypatch)
        run_study(bench.network, bench.scenarios, bench.profiles)
        # 240 rows when each scenario's day is deduplicated on its own.
        assert calls.batches == [152]
        assert len(set(calls)) == 152

    def test_no_scenarios(self, bench):
        assert run_study(bench.network, [], bench.profiles) == []

    def test_no_intervals(self, bench):
        results = run_study(bench.network, bench.scenarios, bench.profiles, intervals=[])
        assert [(r.scenario, r.records) for r in results] == [
            (s.name, ()) for s in bench.scenarios]
        assert all(r.ledger == scenario_module.EnergyLedger(0, 0, 0) for r in results)

    def test_a_scenario_given_twice_shares_its_rows(self, bench, monkeypatch):
        calls = _count_solves(monkeypatch)
        scenario = bench.scenario("ev25_pv_lm")
        first, second = run_study(bench.network, [scenario, scenario], bench.profiles)
        assert calls.batches == [66]
        assert first == second
        assert all(a.solution is b.solution for a, b in zip(first.records, second.records))


def _feeder_cases(seed: int):
    """(network, scenario, profiles) of each perfbench feeder ramp day."""
    net, scenarios, profiles = feeder_days(seed)
    return [(net, scenario, profiles) for scenario in scenarios]


def _random_day(rng: random.Random, tiny: float, controller: str):
    """(network, scenario, profiles) of a random radial day whose loads, PV
    capacities, penetration and profiles draw signed zeros and tiny
    values, with two PV sites and two parking lots on one bus."""
    def draw(scale):
        return rng.choice((0.0, -0.0, tiny, rng.uniform(0.0, scale)))

    n = rng.randrange(3, 7)
    ids = [f"b{i}" for i in range(n)]
    catalog = {"c": CableType("c", 0.05, 0.12)}
    buses = [Bus(ids[0], "slack", 4.16)] + [
        Bus(bus_id, "load", 4.16, NominalLoad(draw(800.0), draw(300.0))) for bus_id in ids[1:]]
    branches = [Branch(ids[rng.randrange(i)], ids[i], "cable", 10000.0, cable_type="c",
                       length_miles=0.2) for i in range(1, n)]
    shared = ids[1]
    pv_buses = [shared, shared, rng.choice(ids[1:])]
    generators = tuple(Generator(bus, "pv_site", draw(400.0), rng.choice((None, "pv-b")))
                       for bus in pv_buses)
    net = derive_impedances(Network(10.0, tuple(buses), tuple(branches), generators, catalog))

    def profile(profile_id):
        coeffs = [rng.choice((0.0, rng.random())) for _ in range(95)] + [1.0]
        rng.shuffle(coeffs)
        return LoadProfile(profile_id, tuple(coeffs))

    profiles = {pid: profile(pid) for pid in ("load", "pv-a", "pv-b", "ev")}
    lots = (ParkingLot("L1", rng.randrange(1, 60), shared),
            ParkingLot("L2", rng.randrange(1, 60), shared),
            ParkingLot("L3", rng.randrange(1, 60), rng.choice(ids[1:])))
    scenario = Scenario("random", rng.choice((0.0, -0.0, rng.random(), rng.random())),
                        pv_enabled=rng.random() < 0.8, controller=controller, parking_lots=lots,
                        bindings=ProfileBindings(load_default="load", ev="ev",
                                                 pv_default="pv-a"))
    return net, scenario, profiles


class TestInjectionPlan:
    """run_sweep resolves the bindings once and evaluates its day once;
    every slot keeps the bits of the per-slot reference."""

    def _check_day(self, monkeypatch, net, scenario, profiles):
        result, built = _sweep_recording_injections(monkeypatch, net, scenario, profiles)
        ev_nominal = scenario.ev_connected_kw_by_bus()
        fifo = FifoStagger(ev_nominal) if scenario.controller == "one_third_stagger" else None
        demanded_units = 0
        for record in result.records:
            slot = record.interval
            nominal = bus_vector(net, slot_injections(net, scenario, profiles, slot))
            assert build_injections(net, scenario, profiles, slot).tobytes() == \
                nominal.tobytes(), slot
            demanded = {bus: kw * profiles[scenario.bindings.ev].coefficient(slot)
                        for bus, kw in ev_nominal.items()}
            demanded_units += sum(map(scenario_module._dyadic_units, demanded.values()))
            settled = fifo.step(demanded, slot) if fifo is not None and demanded else demanded
            expected = bus_vector(net, slot_injections(net, scenario, profiles, slot,
                                                       settled)).tobytes()
            assert built[slot].tobytes() == expected, slot
            assert _evaluate(net, scenario, profiles, slot, settled).tobytes() == expected, slot
        # The ledger's demand is the exact sum of every slot's draw at every bus.
        ledger = result.ledger
        assert ledger.demanded_kwh == Fraction(demanded_units, scenario_module._DYADIC_UNIT) / 4
        assert ledger.unserved_kwh == (fifo.unserved() / 4 if fifo is not None else 0)
        assert ledger.served_kwh + ledger.unserved_kwh == ledger.demanded_kwh

    @pytest.mark.parametrize("name", ["base", "ev10", "ev25", "ev25_pv", "ev25_pv_lm"])
    def test_campus_day_matches_the_per_slot_reference(self, bench, monkeypatch, name):
        self._check_day(monkeypatch, bench.network, bench.scenario(name), bench.profiles)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_feeder_days_match_the_per_slot_reference(self, monkeypatch, seed):
        for net, scenario, profiles in _feeder_cases(seed):
            with monkeypatch.context() as patch:
                self._check_day(patch, net, scenario, profiles)

    def test_random_days_match_the_per_slot_reference(self, rng, monkeypatch):
        """Signed-zero and tiny loads, PV sites and draws; two PV sites and
        two lots on one bus; both controllers."""
        for k in range(8):
            controller = scenario_module.CONTROLLERS[k % 2]
            with monkeypatch.context() as patch:
                self._check_day(patch, *_random_day(rng, 5e-324, controller))

    def test_signed_zeros_are_kept(self):
        """Tiny draws underflow to -0.0 on the system base; absent terms add nothing."""
        tiny = 5e-324
        profiles = {"flat": _flat_profile()}
        signs = set()
        # pv_kw None: no PV term at the bus, whose sum would turn -0.0 into +0.0.
        for kw, kvar, pv_kw in itertools.product((0.0, -0.0, tiny), (0.0, -0.0, -tiny),
                                                 (0.0, -0.0, tiny, None)):
            catalog = {"c": CableType("c", 0.1, 0.2)}
            generators = (Generator("town", "pv_site", pv_kw),) if pv_kw is not None else ()
            net = derive_impedances(Network(10.0, (
                Bus("grid", "slack", 4.16), Bus("town", "load", 4.16, NominalLoad(kw, kvar)),
            ), (Branch("grid", "town", "cable", 10000.0, cable_type="c", length_miles=0.5),),
                generators, catalog))
            scenario = Scenario("s", penetration=0.0, pv_enabled=pv_kw is not None,
                                bindings=ProfileBindings(load_default="flat", pv_default="flat"))
            for ev_kw in ({}, {"town": 0.0}, {"town": -0.0}, {"town": tiny}, {"town": -tiny}):
                expected = bus_vector(net, slot_injections(net, scenario, profiles, 0, ev_kw))
                vector = _evaluate(net, scenario, profiles, 0, ev_kw)
                assert vector.tobytes() == expected.tobytes(), (kw, kvar, pv_kw, ev_kw)
                value = vector[1]
                signs.update((math.copysign(1.0, value.real), math.copysign(1.0, value.imag)))
        assert signs == {1.0, -1.0}

    def test_a_day_resolves_each_binding_once(self, bench, monkeypatch):
        resolved = []
        bound_profile = scenario_module._bound_profile

        def counted(profiles, profile_id, kind, place, bus_id):
            resolved.append((kind, bus_id))
            return bound_profile(profiles, profile_id, kind, place, bus_id)

        monkeypatch.setattr(scenario_module, "_bound_profile", counted)
        net = bench.network
        result = run_sweep(net, bench.scenario("ev25_pv"), bench.profiles)
        assert len(result.records) == 96
        loaded = [bus.id for bus in net.buses if bus.kind != "slack"
                  and (bus.nominal_load.kw != 0.0 or bus.nominal_load.kvar != 0.0)]
        pv_sites = [site.bus for site in net.pv_sites()]
        assert pv_sites and loaded
        assert sorted(resolved) == sorted([("load", bus) for bus in loaded]
                                          + [("PV", bus) for bus in pv_sites])

    def test_short_profile_names_itself_at_a_missing_slot(self):
        net = _mini_grid(load_kw=500.0)
        scenario = Scenario("s", penetration=0.0, bindings=ProfileBindings(load_default="short"))
        profiles = {"short": _flat_profile("short", slots=4)}
        assert run_sweep(net, scenario, profiles, intervals=range(4)).records[3].solution.converged
        for slot in (4, -1):
            with pytest.raises(ProfileError, match=f"profile 'short' has no slot {slot}"):
                run_sweep(net, scenario, profiles, intervals=[slot])

    @pytest.mark.parametrize("run", ["build_injections", "run_sweep"])
    @pytest.mark.parametrize("pv_enabled, missing, supplied, message", [
        (True, ProfileBindings(pv_default="short"),
         ProfileBindings(pv_default="short", load_default="flat"),
         "no load profile bound for bus 'a'"),
        (False, ProfileBindings(load={"a": "short"}),
         ProfileBindings(load={"a": "short"}, load_default="flat"),
         "no load profile bound for bus 'b'"),
        (True, ProfileBindings(load_default="short"),
         ProfileBindings(load_default="short", pv_default="flat"),
         "no PV profile bound for site at 'a'"),
    ])
    def test_a_binding_error_comes_before_a_short_profile(self, run, pv_enabled, missing,
                                                          supplied, message):
        """Every binding is resolved before any coefficient is read."""
        catalog = {"c": CableType("c", 0.05, 0.12)}
        net = derive_impedances(Network(10.0, (
            Bus("feed", "slack", 4.16), Bus("a", "load", 4.16, NominalLoad(500.0, 0.0)),
            Bus("b", "load", 4.16, NominalLoad(300.0, 0.0)),
        ), (Branch("feed", "a", "cable", 10000.0, cable_type="c", length_miles=0.5),
            Branch("a", "b", "cable", 10000.0, cable_type="c", length_miles=0.5)),
            (Generator("a", "pv_site", 100.0),), catalog))
        profiles = {"flat": _flat_profile(), "short": _flat_profile("short", slots=4)}

        def call(bindings):
            scenario = Scenario("s", 0.0, pv_enabled=pv_enabled, bindings=bindings)
            if run == "build_injections":
                return build_injections(net, scenario, profiles, 5)
            return run_sweep(net, scenario, profiles, intervals=[5])

        with pytest.raises(ScenarioConfigError) as info:
            call(missing)
        assert str(info.value) == message
        # With the missing binding supplied, the short profile is the error.
        with pytest.raises(ProfileError, match="profile 'short' has no slot 5"):
            call(supplied)


    @pytest.mark.parametrize("run", ["build_injections", "run_sweep"])
    def test_a_placement_error_comes_before_a_short_ev_profile(self, run):
        """A lot that cannot be placed is reported before the EV profile is read."""
        net = _mini_grid()
        scenario = Scenario("s", 0.5, parking_lots=(ParkingLot("L", 10, "nowhere"),),
                            bindings=ProfileBindings(ev="short"))
        profiles = {"short": _flat_profile("short", slots=4)}
        with pytest.raises(ScenarioConfigError) as info:
            if run == "build_injections":
                build_injections(net, scenario, profiles, 5)
            else:
                run_sweep(net, scenario, profiles, intervals=[5])
        assert str(info.value) == "parking lot 'L' references unknown bus 'nowhere'"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([5e-324, -5e-324, 2.225073858507201e-308, 0.0, -0.0, 1.7e308, 1.7e308, -1.7e308])
@example([1.7e308, 5e-324])
@example([-0.0])
def test_dyadic_sum_is_the_exact_fraction_sum(values):
    units = sum(map(scenario_module._dyadic_units, values))
    assert Fraction(units, scenario_module._DYADIC_UNIT) == sum(map(Fraction, values), Fraction(0))
