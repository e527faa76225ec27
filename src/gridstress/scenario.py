"""Scenario engine: per-interval injections, the simulation loop, and
load-management control.

A day is 96 slots of 15 minutes. Building loads scale their nominal kW
by a normalized profile coefficient; EV charging load is penetration
times parking capacity times per-charger kW, shaped by an EV profile;
PV sites inject capacity times their profile coefficient as negative
load at unity power factor. For each interval the sweep lets the
controller settle the EV draw, builds the injections once, solves them
once, and records the result.

Sweeps with the null controller have independent intervals and may be
evaluated concurrently by callers. The one-third stagger controller
carries a deferral queue across intervals, so its ledger runs serially
in sweep order; it never reads a solution, so each interval is solved
once, after the controller. run_sweep itself is always single-threaded
and never shares the mutable ledger.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .network import Generator, Network
from .powerflow import PowerFlowSolution, SolverOptions, solve_newton_raphson

SLOTS_PER_DAY = 96
HOURS_PER_SLOT = 0.25

CONTROLLERS = ("null", "one_third_stagger")

# Commercial charging stations draw 7-19 kW; studies here default to 10.
DEFAULT_CHARGER_KW = 10.0
CHARGER_KW_RANGE = (7.0, 19.0)


class ProfileError(ValueError):
    """Raised for empty, all-zero, or out-of-range profile data."""


class ScenarioConfigError(ValueError):
    """Raised when profile bindings or controller settings do not resolve."""


@dataclass(frozen=True)
class LoadProfile:
    """Normalized coefficient series: values in [0, 1] with max exactly 1.

    Day-resolution profiles carry 96 slots; shorter series are allowed
    for analysis of partial horizons.
    """

    id: str
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ProfileError(f"profile {self.id!r} is empty")
        for i, c in enumerate(self.coefficients):
            if not (0.0 <= c <= 1.0) or math.isnan(c):
                raise ProfileError(f"profile {self.id!r} slot {i}: {c} outside [0, 1]")
        if max(self.coefficients) != 1.0:
            raise ProfileError(f"profile {self.id!r} max must be exactly 1")

    def __len__(self) -> int:
        return len(self.coefficients)

    def coefficient(self, slot: int) -> float:
        if not 0 <= slot < len(self.coefficients):
            raise ProfileError(f"profile {self.id!r} has no slot {slot}")
        return self.coefficients[slot]


def normalize_profile(series: Sequence[float], profile_id: str = "profile") -> LoadProfile:
    """Divide each interval's value by the series maximum.

    The output is a coefficient series in [0, 1] whose maximum is
    exactly 1.
    """
    if len(series) == 0:
        raise ProfileError("cannot normalize an empty series")
    if any(v < 0 or math.isnan(v) for v in series):
        raise ProfileError("series values must be >= 0")
    peak = max(series)
    if peak <= 0:
        raise ProfileError("series maximum must be > 0")
    return LoadProfile(profile_id, tuple(v / peak for v in series))


def ev_workday_profile() -> LoadProfile:
    """Default EV demand shape: full draw 08:00-17:00, zero otherwise."""
    coeffs = [1.0 if 32 <= slot < 68 else 0.0 for slot in range(SLOTS_PER_DAY)]
    return LoadProfile("ev_workday", tuple(coeffs))


def pv_clear_day_profile() -> LoadProfile:
    """Default PV shape: clamped half-sine over 06:00-18:00, peak 1.0 at noon."""
    coeffs = []
    for slot in range(SLOTS_PER_DAY):
        hour = slot * HOURS_PER_SLOT
        if 6.0 <= hour < 18.0:
            coeffs.append(max(0.0, math.sin(math.pi * (hour - 6.0) / 12.0)))
        else:
            coeffs.append(0.0)
    return LoadProfile("pv_clear_day", tuple(coeffs))


@dataclass(frozen=True)
class ParkingLot:
    """A parking area: stall count and the bus its chargers feed from."""

    name: str
    capacity: int
    bus: str

    def __post_init__(self) -> None:
        if int(self.capacity) != self.capacity or self.capacity <= 0:
            raise ScenarioConfigError(
                f"parking lot {self.name!r} capacity must be a positive integer"
            )


@dataclass(frozen=True)
class ProfileBindings:
    """Which profile shapes apply where.

    load_default covers every loaded bus without an explicit entry in
    load; ev names the EV demand shape; pv maps PV buses to shapes with
    pv_default as the fallback (a pv_site generator's own profile field
    takes precedence over pv_default).
    """

    load_default: str | None = None
    load: Mapping[str, str] = field(default_factory=dict)
    ev: str | None = None
    pv_default: str | None = None
    pv: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """One study configuration: EV penetration, PV, and controller choice."""

    name: str
    penetration: float
    per_charger_kw: float = DEFAULT_CHARGER_KW
    pv_enabled: bool = False
    controller: str = "null"
    parking_lots: tuple[ParkingLot, ...] = ()
    bindings: ProfileBindings = field(default_factory=ProfileBindings)
    allow_nonstandard_charger: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.penetration <= 1.0:
            raise ScenarioConfigError(
                f"penetration must be in [0, 1], got {self.penetration}"
            )
        low, high = CHARGER_KW_RANGE
        if not self.allow_nonstandard_charger and not low <= self.per_charger_kw <= high:
            raise ScenarioConfigError(
                f"per_charger_kw {self.per_charger_kw} outside [{low}, {high}] "
                "(set allow_nonstandard_charger to override)"
            )
        if self.controller not in CONTROLLERS:
            raise ScenarioConfigError(
                f"controller must be one of {CONTROLLERS}, got {self.controller!r}"
            )

    def ev_connected_kw_by_bus(self) -> dict[str, float]:
        """Nominal connected EV power per bus at profile coefficient 1."""
        totals: dict[str, float] = {}
        for lot in self.parking_lots:
            kw = ev_load_kw(self.penetration, lot.capacity, self.per_charger_kw)
            totals[lot.bus] = totals.get(lot.bus, 0.0) + kw
        return totals


def ev_load_kw(penetration: float, capacity: int, per_charger_kw: float = DEFAULT_CHARGER_KW) -> float:
    """Aggregate EV charging load: penetration * stalls * kW per charger.

    Continuous aggregate, no rounding to whole chargers.
    """
    if not 0.0 <= penetration <= 1.0:
        raise ValueError(f"penetration must be in [0, 1], got {penetration}")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if per_charger_kw < 0:
        raise ValueError(f"per_charger_kw must be >= 0, got {per_charger_kw}")
    return penetration * capacity * per_charger_kw


def pv_injection_kw(site: Generator, profile: LoadProfile, slot: int) -> float:
    """PV output at a slot: installed capacity times the profile coefficient.

    Applied as negative load at the site's bus, unity power factor.
    """
    return site.capacity_kw * profile.coefficient(slot)


def _resolve_load_profile(bus_id: str, bindings: ProfileBindings,
                          profiles: Mapping[str, LoadProfile]) -> LoadProfile:
    profile_id = bindings.load.get(bus_id, bindings.load_default)
    if profile_id is None:
        raise ScenarioConfigError(f"no load profile bound for bus {bus_id!r}")
    if profile_id not in profiles:
        raise ScenarioConfigError(f"load profile {profile_id!r} for bus {bus_id!r} not found")
    return profiles[profile_id]


def _resolve_pv_profile(site: Generator, bindings: ProfileBindings,
                        profiles: Mapping[str, LoadProfile]) -> LoadProfile:
    profile_id = bindings.pv.get(site.bus) or site.profile or bindings.pv_default
    if profile_id is None:
        raise ScenarioConfigError(f"no PV profile bound for site at {site.bus!r}")
    if profile_id not in profiles:
        raise ScenarioConfigError(f"PV profile {profile_id!r} for site at {site.bus!r} not found")
    return profiles[profile_id]


def _resolve_ev_profile(ev_nominal: Mapping[str, float], bindings: ProfileBindings,
                        profiles: Mapping[str, LoadProfile]) -> LoadProfile | None:
    """The EV demand shape, or None when no bus draws EV power."""
    if not any(ev_nominal.values()):
        return None
    if bindings.ev is None:
        raise ScenarioConfigError("scenario has EV load but no EV profile binding")
    if bindings.ev not in profiles:
        raise ScenarioConfigError(f"EV profile {bindings.ev!r} not found")
    return profiles[bindings.ev]


def build_injections(
    net: Network,
    scenario: Scenario,
    profiles: Mapping[str, LoadProfile],
    interval: int,
    ev_kw_override: Mapping[str, float] | None = None,
) -> dict[str, complex]:
    """Net complex power injection in pu for every non-slack bus.

    injection = -(building load * coefficient) - active EV kW + PV kW,
    divided by the system base. Building reactive load scales with the
    same coefficient; EV and PV are unity power factor.
    ev_kw_override replaces the scenario's nominal EV draw per bus
    (used by controllers); omitted buses fall back to nominal.
    """
    ev_nominal = scenario.ev_connected_kw_by_bus()
    ev_profile = _resolve_ev_profile(ev_nominal, scenario.bindings, profiles)

    bus_ids = set(net.bus_ids())
    for lot in scenario.parking_lots:
        if lot.bus not in bus_ids:
            raise ScenarioConfigError(
                f"parking lot {lot.name!r} references unknown bus {lot.bus!r}"
            )

    pv_kw: dict[str, float] = {}
    if scenario.pv_enabled:
        for site in net.pv_sites():
            profile = _resolve_pv_profile(site, scenario.bindings, profiles)
            pv_kw[site.bus] = pv_kw.get(site.bus, 0.0) + pv_injection_kw(site, profile, interval)

    kva_base = 1000.0 * net.s_base_mva
    slack = net.slack_id()
    injections: dict[str, complex] = {}
    for bus in net.buses:
        if bus.id == slack:
            continue
        p_kw = 0.0
        q_kvar = 0.0
        if bus.nominal_load.kw != 0.0 or bus.nominal_load.kvar != 0.0:
            coeff = _resolve_load_profile(bus.id, scenario.bindings, profiles).coefficient(interval)
            p_kw -= bus.nominal_load.kw * coeff
            q_kvar -= bus.nominal_load.kvar * coeff
        if bus.id in ev_nominal and ev_profile is not None:
            if ev_kw_override is not None and bus.id in ev_kw_override:
                p_kw -= ev_kw_override[bus.id]
            else:
                p_kw -= ev_nominal[bus.id] * ev_profile.coefficient(interval)
        if bus.id in pv_kw:
            p_kw += pv_kw[bus.id]
        injections[bus.id] = complex(p_kw / kva_base, q_kvar / kva_base)
    return injections


@dataclass(frozen=True)
class StaggerAction:
    """What the stagger controller did at one bus for one interval (kW)."""

    bus: str
    demanded_kw: float
    served_kw: float
    deferred_kw: float
    drained_kw: float


class StaggerState:
    """Deferral ledger for the one-third stagger controller.

    Buses are partitioned into three fixed groups, round-robin over the
    sorted bus ids. Queued energy is tracked as exact rationals so that
    served + unserved always equals demanded to the last bit.
    """

    def __init__(self, connected_kw_by_bus: Mapping[str, float]):
        self.buses = tuple(sorted(connected_kw_by_bus))
        self.group = {bus: i % 3 for i, bus in enumerate(self.buses)}
        self.cap = {bus: Fraction(connected_kw_by_bus[bus]) for bus in self.buses}
        self.queues: dict[str, deque[Fraction]] = {bus: deque() for bus in self.buses}
        self.demanded = Fraction(0)
        self.served = Fraction(0)

    def queued(self) -> Fraction:
        return sum((sum(q, Fraction(0)) for q in self.queues.values()), Fraction(0))

    def unserved(self) -> Fraction:
        """Energy still queued; at horizon end this is reported as unserved."""
        return self.queued()

    def group_cap_kw(self, interval: int) -> float:
        """Documented per-interval cap: total connected power of the active group."""
        active = interval % 3
        return float(sum((self.cap[b] for b in self.buses if self.group[b] == active),
                         Fraction(0)))


def one_third_stagger(
    ev_demands: Mapping[str, float],
    interval: int,
    state: StaggerState,
) -> tuple[dict[str, float], tuple[StaggerAction, ...]]:
    """Connect one-third of EV buses; queue the rest for later intervals.

    Group (interval mod 3) serves its queued deferrals first (FIFO),
    then the current demand, capped at the bus's nominal connected
    power; the excess joins the queue tail. Buses outside the active
    group defer their entire demand. Demand at unknown buses is an
    error; state is mutated in place.
    """
    unknown = sorted(set(ev_demands) - set(state.buses))
    if unknown:
        raise ScenarioConfigError(f"stagger state has no group for bus(es): {', '.join(unknown)}")

    active_group = interval % 3
    served_kw: dict[str, float] = {}
    actions: list[StaggerAction] = []
    for bus in state.buses:
        demand = Fraction(ev_demands.get(bus, 0.0))
        if demand < 0:
            raise ScenarioConfigError(f"negative EV demand at {bus!r}")
        state.demanded += demand
        queue = state.queues[bus]

        if state.group[bus] != active_group:
            if demand > 0:
                queue.append(demand)
            served_kw[bus] = 0.0
            if demand > 0 or queue:
                actions.append(StaggerAction(bus, float(demand), 0.0, float(demand), 0.0))
            continue

        room = state.cap[bus]
        drained = Fraction(0)
        while queue and room > 0:
            take = min(queue[0], room)
            drained += take
            room -= take
            if take == queue[0]:
                queue.popleft()
            else:
                queue[0] -= take
        direct = min(demand, room)
        leftover = demand - direct
        if leftover > 0:
            queue.append(leftover)
        served = drained + direct
        state.served += served
        served_kw[bus] = float(served)
        if demand > 0 or served > 0 or leftover > 0:
            actions.append(StaggerAction(bus, float(demand), float(served),
                                         float(leftover), float(drained)))
    return served_kw, tuple(actions)


@dataclass(frozen=True)
class IntervalRecord:
    """One sweep step: the solved interval plus any controller actions.

    resolved is True when the controller changed the EV loads, so the
    interval was solved with them instead of the nominal draw.
    """

    interval: int
    solution: PowerFlowSolution
    actions: tuple[StaggerAction, ...]
    resolved: bool


@dataclass(frozen=True)
class EnergyLedger:
    """Exact EV energy accounting for a sweep, in kWh.

    served + unserved equals demanded exactly (rational arithmetic).
    """

    demanded_kwh: Fraction
    served_kwh: Fraction
    unserved_kwh: Fraction


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    records: tuple[IntervalRecord, ...]
    ledger: EnergyLedger

    def solutions(self) -> dict[int, PowerFlowSolution]:
        return {r.interval: r.solution for r in self.records}

    def diverged_intervals(self) -> tuple[int, ...]:
        return tuple(r.interval for r in self.records if not r.solution.converged)


def sweep_is_parallelizable(scenario: Scenario) -> bool:
    """True when intervals are independent (no stateful controller)."""
    return scenario.controller == "null"


def run_sweep(
    net: Network,
    scenario: Scenario,
    profiles: Mapping[str, LoadProfile],
    intervals: Iterable[int] = range(SLOTS_PER_DAY),
    opts: SolverOptions = SolverOptions(),
) -> SweepResult:
    """Run the controller over each interval, then solve it once, and record.

    For every interval the controller first settles the EV draw: the
    deferral ledger runs serially in sweep order, and deferred EV energy
    carries across intervals. The interval's injections are then built
    once, with the controller's EV loads when it changed them, and
    solved once. Solver divergence is recorded on the interval and the
    sweep continues.
    """
    ev_nominal = scenario.ev_connected_kw_by_bus()
    state = StaggerState(ev_nominal) if scenario.controller == "one_third_stagger" else None
    ev_profile = _resolve_ev_profile(ev_nominal, scenario.bindings, profiles)

    records: list[IntervalRecord] = []
    demanded_without_controller = Fraction(0)
    for interval in intervals:
        actions: tuple[StaggerAction, ...] = ()
        override = None
        if ev_profile is not None:
            coeff = ev_profile.coefficient(interval)
            demands = {bus: kw * coeff for bus, kw in ev_nominal.items()}
            if state is not None:
                active, actions = one_third_stagger(demands, interval, state)
                if any(abs(active[bus] - demands[bus]) > 0.0 for bus in demands):
                    override = active
            else:
                demanded_without_controller += sum(
                    (Fraction(kw) for kw in demands.values()), Fraction(0))

        injections = build_injections(net, scenario, profiles, interval,
                                      ev_kw_override=override)
        solution = solve_newton_raphson(net, injections, opts)
        records.append(IntervalRecord(interval, solution, actions, override is not None))

    per_slot_hours = Fraction(1, 4)
    if state is not None:
        ledger = EnergyLedger(
            demanded_kwh=state.demanded * per_slot_hours,
            served_kwh=state.served * per_slot_hours,
            unserved_kwh=state.unserved() * per_slot_hours,
        )
    else:
        served = demanded_without_controller * per_slot_hours
        ledger = EnergyLedger(served, served, Fraction(0))
    return SweepResult(scenario.name, tuple(records), ledger)
