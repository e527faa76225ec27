"""Scenario engine: per-interval injections, the simulation loop, and
load-management control.

A day is 96 slots of 15 minutes. Building loads scale their nominal kW
by a normalized profile coefficient; EV charging load is penetration
times parking capacity times per-charger kW, shaped by an EV profile;
PV sites inject capacity times their profile coefficient as negative
load at unity power factor. Each sweep resolves the scenario's bindings
(lot buses, PV sites' and loaded buses' profiles) into one injection
plan. For each interval the sweep lets the controller settle the EV
draw, evaluates the plan once into a complex injection vector ordered
like net.buses (slack entry zero), hands that vector to the solver and
records the solution. A sweep solves each distinct operating point once:
an interval whose injection vector repeats an earlier interval's of the
same sweep, bit for bit, shares that interval's (immutable) solution.

Sweeps with the null controller have independent intervals and may be
evaluated concurrently by callers. The one-third stagger controller
connects one of three fixed bus groups per interval and carries each
bus's deferred energy across intervals as one exact backlog, so its
ledger runs serially in sweep order; it never reads a solution, so each
interval is solved after the controller. run_sweep itself is always
single-threaded and never shares the mutable ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .network import Generator, Network
from .powerflow import PowerFlowSolution, solve_newton_raphson

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
            raise ProfileError(f"profile {self.id!r}: max must be exactly 1")

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
    for i, v in enumerate(series):
        if v < 0 or math.isnan(v):
            raise ProfileError(f"profile {profile_id!r} slot {i}: {v} must be >= 0")
    peak = max(series)
    if peak <= 0:
        raise ProfileError(f"profile {profile_id!r}: series maximum must be > 0")
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
        if not 0.0 <= self.per_charger_kw < math.inf:
            raise ScenarioConfigError(
                f"per_charger_kw must be finite and >= 0, got {self.per_charger_kw}"
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


def _bound_profile(profiles: Mapping[str, LoadProfile], profile_id: str | None,
                   kind: str, place: str, bus_id: str) -> LoadProfile:
    """profiles[profile_id] for a load or PV binding at a bus; unbound or missing is an error."""
    if profile_id is None:
        raise ScenarioConfigError(f"no {kind} profile bound for {place} {bus_id!r}")
    if profile_id not in profiles:
        raise ScenarioConfigError(f"{kind} profile {profile_id!r} for {place} {bus_id!r} not found")
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


def _ev_draw(ev_nominal: Mapping[str, float], ev_profile: LoadProfile | None,
             interval: int) -> dict[str, float]:
    """Demanded EV kW per bus at an interval; empty when no bus draws EV power."""
    if ev_profile is None:
        return {}
    coeff = ev_profile.coefficient(interval)
    return {bus: kw * coeff for bus, kw in ev_nominal.items()}


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
    ev_kw_override, when given, is the whole EV draw in kW per bus (a
    controller's settled draw) in place of the scenario's nominal one.
    """
    ev_kw = ev_kw_override
    if ev_kw is None:
        ev_nominal = scenario.ev_connected_kw_by_bus()
        ev_kw = _ev_draw(ev_nominal, _resolve_ev_profile(ev_nominal, scenario.bindings, profiles),
                         interval)
    plan = _InjectionPlan(net, scenario, profiles)
    vector = plan.vector(interval, ev_kw).tolist()
    return {bus_id: vector[i] for bus_id, i in plan.position.items()}


class _InjectionPlan:
    """A scenario's injections on one network with every binding resolved.

    Built once per sweep (and once per build_injections call): the
    parking-lot buses are checked, each PV site's and each loaded bus's
    profile is looked up and every bus's position in net.buses is fixed.
    Per interval only the coefficients are read and the injection vector
    computed: load, then EV, then PV, each term applied only where the
    bus has it, so +0.0 and -0.0 stay apart.
    """

    def __init__(self, net: Network, scenario: Scenario, profiles: Mapping[str, LoadProfile]):
        bindings = scenario.bindings
        bus_ids = net.bus_ids()
        for lot in scenario.parking_lots:
            if lot.bus not in bus_ids:
                raise ScenarioConfigError(
                    f"parking lot {lot.name!r} references unknown bus {lot.bus!r}"
                )

        slack = net.slack_id()
        # Position in net.buses of every non-slack bus, the only ones injected at.
        self.position = {bus_id: i for i, bus_id in enumerate(bus_ids) if bus_id != slack}
        self.n = len(bus_ids)

        # (bus position, or None at the slack bus; site; its profile) per PV site
        self.pv: list[tuple[int | None, Generator, LoadProfile]] = []
        if scenario.pv_enabled:
            for site in net.pv_sites():
                profile_id = bindings.pv.get(site.bus) or site.profile or bindings.pv_default
                self.pv.append((self.position.get(site.bus), site,
                                _bound_profile(profiles, profile_id, "PV", "site at", site.bus)))

        # Loaded buses grouped by profile, in order of first appearance:
        # profile id -> (profile, positions, kW, kvar)
        groups: dict[str, tuple[LoadProfile, list[int], list[float], list[float]]] = {}
        for bus in net.buses:
            load = bus.nominal_load
            if bus.id == slack or (load.kw == 0.0 and load.kvar == 0.0):
                continue
            profile_id = bindings.load.get(bus.id, bindings.load_default)
            profile = _bound_profile(profiles, profile_id, "load", "bus", bus.id)
            group = groups.setdefault(profile_id, (profile, [], [], []))
            group[1].append(self.position[bus.id])
            group[2].append(load.kw)
            group[3].append(load.kvar)
        self.loads = [(profile, np.array(index), np.array(kw), np.array(kvar))
                      for profile, index, kw, kvar in groups.values()]
        self.kva_base = 1000.0 * net.s_base_mva

    def vector(self, interval: int, ev_kw: Mapping[str, float]) -> np.ndarray:
        """Injections in pu at interval, ordered like net.buses with the slack
        entry zero, with ev_kw as the whole EV draw."""
        pv_kw: dict[int | None, float] = {}
        for i, site, profile in self.pv:
            pv_kw[i] = pv_kw.get(i, 0.0) + pv_injection_kw(site, profile, interval)

        p_kw = np.zeros(self.n)
        q_kvar = np.zeros(self.n)
        for profile, index, kw, kvar in self.loads:
            coeff = profile.coefficient(interval)
            p_kw[index] = 0.0 - kw * coeff
            q_kvar[index] = 0.0 - kvar * coeff
        for bus_id, kw in ev_kw.items():
            i = self.position.get(bus_id)
            if i is not None:
                p_kw[i] -= kw
        for i, kw in pv_kw.items():
            if i is not None:
                p_kw[i] += kw
        s = np.empty(self.n, dtype=complex)
        s.real = p_kw / self.kva_base
        s.imag = q_kvar / self.kva_base
        return s


# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so a sum of floats is exact as an integer count of that unit.
_DYADIC_UNIT = 1 << 1074


def _dyadic_units(x: float) -> int:
    """x as an exact integer multiple of 2**-1074."""
    numerator, denominator = x.as_integer_ratio()    # denominator is a power of 2
    return numerator << (1075 - denominator.bit_length())


class StaggerState:
    """Deferral ledger for the one-third stagger controller.

    A bus's group is its position in the sorted bus ids mod 3. Its cap
    and its deferred energy are exact integer counts of 2**-1074 kW, so
    that served + unserved always equals demanded to the last bit.
    """

    def __init__(self, connected_kw_by_bus: Mapping[str, float]):
        self.buses = tuple(sorted(connected_kw_by_bus))
        self.cap = {bus: _dyadic_units(connected_kw_by_bus[bus]) for bus in self.buses}
        self.backlog = {bus: 0 for bus in self.buses}

    def unserved(self) -> Fraction:
        """Energy still deferred; at horizon end this is reported as unserved."""
        return Fraction(sum(self.backlog.values()), _DYADIC_UNIT)


def one_third_stagger(ev_demands: Mapping[str, float], interval: int,
                      state: StaggerState) -> dict[str, float]:
    """Connect one-third of EV buses; defer the rest to later intervals.

    Returns the served kW of every bus. A bus in group (interval mod 3)
    has room up to its nominal connected power: it serves its backlog
    first, then the current demand, and the excess joins its backlog.
    Buses outside the active group defer their entire demand. Demand at
    unknown buses is an error; state is mutated in place.
    """
    unknown = sorted(set(ev_demands) - set(state.buses))
    if unknown:
        raise ScenarioConfigError(f"stagger state has no group for bus(es): {', '.join(unknown)}")

    served_kw: dict[str, float] = {}
    active = interval % 3
    for i, bus in enumerate(state.buses):
        kw = ev_demands.get(bus, 0.0)
        if kw < 0:
            raise ScenarioConfigError(f"negative EV demand at {bus!r}")
        if i % 3 != active:
            # No room: nothing drains and nothing is served.
            if kw:
                state.backlog[bus] += _dyadic_units(kw)
            served_kw[bus] = 0.0
            continue
        demand = _dyadic_units(kw)
        room = state.cap[bus]
        drained = min(state.backlog[bus], room)
        served = drained + min(demand, room - drained)
        state.backlog[bus] += demand - served
        # int / int rounds once, to the nearest float, like float(Fraction).
        served_kw[bus] = served / _DYADIC_UNIT
    return served_kw


@dataclass(frozen=True)
class IntervalRecord:
    """One sweep step: the interval and its solution under the settled EV draw."""

    interval: int
    solution: PowerFlowSolution


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

    def diverged_intervals(self) -> tuple[int, ...]:
        return tuple(r.interval for r in self.records if not r.solution.converged)


def run_sweep(
    net: Network,
    scenario: Scenario,
    profiles: Mapping[str, LoadProfile],
    intervals: Iterable[int] = range(SLOTS_PER_DAY),
) -> SweepResult:
    """Run the controller over each interval, then solve it, and record.

    For every interval the controller first settles the EV draw: the
    deferral ledger runs serially in sweep order, and deferred EV energy
    carries across intervals. The interval's injections are then built
    once, with the settled draw. Each distinct operating point is solved
    once: an interval whose injection values equal an earlier interval's
    bit for bit (so +0.0 and -0.0 differ) reuses that interval's
    solution, which is immutable and exactly what solving again would
    return. The reuse lasts only for this call. Solver divergence is
    recorded on the interval and the sweep continues.
    """
    ev_nominal = scenario.ev_connected_kw_by_bus()
    state = StaggerState(ev_nominal) if scenario.controller == "one_third_stagger" else None
    ev_profile = _resolve_ev_profile(ev_nominal, scenario.bindings, profiles)
    plan = _InjectionPlan(net, scenario, profiles)

    records: list[IntervalRecord] = []
    solved: dict[bytes, PowerFlowSolution] = {}
    demanded_units = 0
    for interval in intervals:
        demanded = _ev_draw(ev_nominal, ev_profile, interval)
        settled = demanded
        if state is not None and demanded:
            settled = one_third_stagger(demanded, interval, state)
        demanded_units += sum(map(_dyadic_units, demanded.values()))

        injections = plan.vector(interval, settled)
        key = injections.tobytes()
        solution = solved.get(key)
        if solution is None:
            solution = solved[key] = solve_newton_raphson(net, injections)
        records.append(IntervalRecord(interval, solution))

    demanded_kw = Fraction(demanded_units, _DYADIC_UNIT)
    # Whatever is still deferred at the horizon is unserved; the rest was served.
    unserved_kw = state.unserved() if state is not None else Fraction(0)
    per_slot_hours = Fraction(1, 4)
    ledger = EnergyLedger(demanded_kwh=demanded_kw * per_slot_hours,
                          served_kwh=(demanded_kw - unserved_kw) * per_slot_hours,
                          unserved_kwh=unserved_kw * per_slot_hours)
    return SweepResult(scenario.name, tuple(records), ledger)
