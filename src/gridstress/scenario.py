"""Scenario engine: per-interval injections, the simulation loop, and
load-management control.

A day is 96 slots of 15 minutes. Building loads scale their nominal kW
by a normalized profile coefficient; EV charging load is penetration
times parking capacity times per-charger kW, shaped by an EV profile;
PV sites inject capacity times their profile coefficient as negative
load at unity power factor. A study (run_study) runs scenarios over the
same intervals. Each scenario's controller first settles the EV draw of
every interval; the study then resolves the scenario's bindings (lot
buses, PV sites' and loaded buses' profiles) and evaluates its whole day
once into one complex matrix, a row per interval ordered like net.buses
(slack entry zero). That row is the one injection form: build_injections
returns one, and the solver takes it. The study then solves the distinct
rows of all its days, bit for bit, as one lockstep Newton-Raphson batch
(see powerflow) and records each interval with the solution of its row:
intervals whose rows are equal share one (immutable) solution. A sweep
(run_sweep) is a study of one and a single solve is a batch of one, so
all take the same steps.

Sweeps with the null controller have independent intervals and may be
evaluated concurrently by callers. The one-third stagger controller
connects one of three fixed bus groups per interval and carries each
bus's deferred energy across intervals as one exact backlog; it never
reads a solution, so one call settles the scenario's whole day of demand
(intervals x buses) before the day is evaluated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .network import Network
from .powerflow import PowerFlowSolution, _newton_raphson
# Kept importable from this module: the benchmark's traced run
# (perfbench/spans.py) binds scenario.solve_newton_raphson by name.
from .powerflow import solve_newton_raphson  # noqa: F401

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
        capacity = self.capacity
        try:
            invalid = (isinstance(capacity, bool) or not isinstance(capacity, numbers.Real)
                       or not math.isfinite(capacity) or int(capacity) != capacity
                       or capacity <= 0)
        except OverflowError:       # isfinite of an integer past the float range
            raise ScenarioConfigError(
                f"parking lot {self.name!r} capacity is too large for a float") from None
        if invalid:
            raise ScenarioConfigError(
                f"parking lot {self.name!r} capacity must be a positive integer, got {capacity!r}"
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
        for bus, kw in self.ev_connected_kw_by_bus().items():
            if not math.isfinite(kw):
                raise ScenarioConfigError(f"connected EV load at bus {bus!r} is not a finite "
                                          f"number of kW ({kw})")

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


def _bound_profile(profiles: Mapping[str, LoadProfile], profile_id: str | None,
                   kind: str, place: str, bus_id: str) -> LoadProfile:
    """profiles[profile_id] for a load or PV binding at a bus; unbound or missing is an error."""
    if profile_id is None:
        raise ScenarioConfigError(f"no {kind} profile bound for {place} {bus_id!r}")
    if profile_id not in profiles:
        raise ScenarioConfigError(f"{kind} profile {profile_id!r} for {place} {bus_id!r} not found")
    return profiles[profile_id]


def _coefficients(profile: LoadProfile, intervals: Sequence[int]) -> np.ndarray:
    """profile's coefficient at each interval; a missing slot is a ProfileError."""
    return np.array([profile.coefficient(i) for i in intervals], dtype=float)


def _ev_demand(scenario: Scenario, profiles: Mapping[str, LoadProfile],
               intervals: Sequence[int]) -> tuple[list[str], np.ndarray]:
    """The buses that draw EV power and their demanded kW, nominal kW times
    the EV profile's coefficient, per interval (intervals x buses); no bus
    when none draws EV power."""
    ev_nominal = scenario.ev_connected_kw_by_bus()
    if not any(ev_nominal.values()):
        return [], np.zeros((len(intervals), 0))
    ev = scenario.bindings.ev
    if ev is None:
        raise ScenarioConfigError("scenario has EV load but no EV profile binding")
    if ev not in profiles:
        raise ScenarioConfigError(f"bindings.ev: EV profile {ev!r} not found")
    kw = np.array(list(ev_nominal.values()), dtype=float)
    return list(ev_nominal), kw * _coefficients(profiles[ev], intervals)[:, None]


def placement_errors(net: Network, scenario: Scenario) -> list[str]:
    """Why the scenario's EV and PV terms cannot all reach net's power flow.

    Each parking lot, and with PV on each PV site, must sit on a known bus
    other than the slack bus, where no injection enters the power flow:
    its energy would be counted but never drawn.
    """
    placed = [(f"parking lot {lot.name!r}", lot.bus) for lot in scenario.parking_lots]
    if scenario.pv_enabled:
        placed += [(f"PV site of {site.capacity_kw:g} kW", site.bus) for site in net.pv_sites()]
    bus_ids = net.bus_ids()
    slack = net.slack_id()
    errors = []
    for what, bus in placed:
        if bus not in bus_ids:
            errors.append(f"{what} references unknown bus {bus!r}")
        elif bus == slack:
            errors.append(f"{what} is on slack bus {bus!r}, "
                          "where the power flow takes no injection")
    return errors


def build_injections(net: Network, scenario: Scenario, profiles: Mapping[str, LoadProfile],
                     interval: int) -> np.ndarray:
    """Net complex power injections in pu at interval with the scenario's
    nominal EV draw, the vector the solver takes: one entry per bus,
    ordered like net.buses, with the slack entry zero. This is the row a
    study of the scenario with the null controller solves at interval.

    injection = -(building load * coefficient) - active EV kW + PV kW,
    divided by the system base. Building reactive load scales with the
    same coefficient; EV and PV are unity power factor.
    """
    errors = placement_errors(net, scenario)
    if errors:
        raise ScenarioConfigError("; ".join(errors))
    ev_buses, ev_kw = _ev_demand(scenario, profiles, [interval])
    return _day_injections(net, scenario, profiles, [interval], ev_buses, ev_kw)[0]


# Finite inputs whose sum overflows are a ScenarioConfigError, not a warning.
@np.errstate(over="ignore", invalid="ignore")
def _day_injections(net: Network, scenario: Scenario, profiles: Mapping[str, LoadProfile],
                    intervals: Sequence[int], ev_buses: Sequence[str],
                    ev_kw: np.ndarray) -> np.ndarray:
    """Injections in pu, one row per interval (intervals x buses), ordered
    like net.buses with the slack entry zero; ev_kw[r, j] is the whole EV
    draw of bus ev_buses[j] at intervals[r].

    Every PV and load binding is resolved before any coefficient is read,
    so a missing one is reported before a short profile's missing slot.
    Each element takes the float steps of a per-interval scalar sum: the
    load term, then the EV draw, then PV, each applied only where the bus
    has it, so +0.0 and -0.0 stay apart. The first entry that is not
    finite, by slot then bus, raises ScenarioConfigError.
    """
    bindings = scenario.bindings
    slack = net.slack_id()
    position = {bus_id: i for i, bus_id in enumerate(net.bus_ids())}

    # (bus position, capacity kW, profile) per PV site
    pv: list[tuple[int, float, LoadProfile]] = []
    if scenario.pv_enabled:
        for site in net.pv_sites():
            profile_id = bindings.pv.get(site.bus) or site.profile or bindings.pv_default
            pv.append((position[site.bus], site.capacity_kw,
                       _bound_profile(profiles, profile_id, "PV", "site at", site.bus)))

    # Loaded buses grouped by profile, in order of first appearance:
    # profile id -> (profile, positions, kW, kvar)
    loads: dict[str, tuple[LoadProfile, list[int], list[float], list[float]]] = {}
    for bus in net.buses:
        load = bus.nominal_load
        if bus.id == slack or (load.kw == 0.0 and load.kvar == 0.0):
            continue
        profile_id = bindings.load.get(bus.id, bindings.load_default)
        profile = _bound_profile(profiles, profile_id, "load", "bus", bus.id)
        group = loads.setdefault(profile_id, (profile, [], [], []))
        group[1].append(position[bus.id])
        group[2].append(load.kw)
        group[3].append(load.kvar)

    # PV kW per bus position, summed in site order.
    pv_kw: dict[int, np.ndarray] = {}
    for i, capacity_kw, profile in pv:
        pv_kw[i] = pv_kw.get(i, 0.0) + capacity_kw * _coefficients(profile, intervals)

    shape = (len(intervals), len(position))
    p_kw = np.zeros(shape)
    q_kvar = np.zeros(shape)
    for profile, index, kw, kvar in loads.values():
        coeff = _coefficients(profile, intervals)[:, None]
        p_kw[:, index] = 0.0 - np.array(kw) * coeff
        q_kvar[:, index] = 0.0 - np.array(kvar) * coeff
    p_kw[:, np.array([position[bus] for bus in ev_buses], dtype=int)] -= ev_kw
    for i, kw in pv_kw.items():
        p_kw[:, i] += kw
    kva_base = 1000.0 * net.s_base_mva
    s = np.empty(shape, dtype=complex)
    s.real = p_kw / kva_base
    s.imag = q_kvar / kva_base
    bad = np.argwhere(~np.isfinite(s))
    if len(bad):
        r, k = bad[0]
        raise ScenarioConfigError(f"scenario {scenario.name!r}: injection at bus "
                                  f"{net.buses[k].id!r} in slot {intervals[r]} is not finite: "
                                  f"{complex(s[r, k])} pu")
    return s


# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so a sum of floats is exact as an integer count of that unit.
_DYADIC_UNIT = 1 << 1074


def _dyadic_units(x: float) -> int:
    """x as an exact integer multiple of 2**-1074."""
    numerator, denominator = x.as_integer_ratio()    # denominator is a power of 2
    return numerator << (1075 - denominator.bit_length())


def one_third_stagger(connected_kw: Mapping[str, float], demanded_kw: np.ndarray,
                      intervals: Sequence[int]) -> tuple[np.ndarray, Fraction]:
    """Settle a day of EV demand, connecting one-third of the EV buses per
    interval and deferring the rest to later intervals.

    demanded_kw[r, j] is the kW the j-th bus of connected_kw asks for at
    intervals[r]; returns the served kW in the same layout and the exact
    kW still deferred after the last interval. A bus's group is its
    position in the sorted bus ids mod 3. In an interval of its group it
    serves its backlog plus its demand up to its connected kW, and the
    excess stays in its backlog; in any other it defers its whole demand.
    Caps and backlogs are exact integer counts of 2**-1074 kW, so served
    plus unserved equals demanded to the last bit.
    """
    buses = list(connected_kw)
    if demanded_kw.shape != (len(intervals), len(buses)):
        raise ValueError(f"demanded_kw has shape {demanded_kw.shape}, expected "
                         f"({len(intervals)} intervals, {len(buses)} buses)")
    columns = sorted(range(len(buses)), key=buses.__getitem__)    # i-th: group i mod 3
    caps = [_dyadic_units(connected_kw[buses[j]]) for j in columns]
    backlog = [0] * len(columns)
    served_kw = np.zeros_like(demanded_kw, dtype=float)
    for r, (interval, row) in enumerate(zip(intervals, demanded_kw.tolist())):
        for i, j in enumerate(columns):
            kw = row[j]
            if kw < 0:
                raise ScenarioConfigError(f"negative EV demand at {buses[j]!r}")
            if i % 3 == interval % 3:
                due = backlog[i] + _dyadic_units(kw)
                served = min(due, caps[i])
                backlog[i] = due - served
                # int / int rounds once, to the nearest float, like float(Fraction).
                served_kw[r, j] = served / _DYADIC_UNIT
            elif kw:
                backlog[i] += _dyadic_units(kw)
    return served_kw, Fraction(sum(backlog), _DYADIC_UNIT)


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


def run_study(net: Network, scenarios: Sequence[Scenario], profiles: Mapping[str, LoadProfile],
              intervals: Iterable[int] = range(SLOTS_PER_DAY)) -> list[SweepResult]:
    """Run each scenario's controller over every interval, then solve them
    all, and record: one SweepResult per scenario, in order.

    A lot or PV site that cannot be placed is reported before any profile
    is read. Each controller then settles the EV draw of every interval
    in one call, deferred EV energy carrying across intervals in sweep
    order. Each scenario's injections are then
    evaluated once, as one matrix, with the settled draw. The distinct
    rows of all of them are solved once each, as one batch: an interval
    whose row equals another's bit for bit (so +0.0 and -0.0 differ), in
    any scenario, shares its solution, which is immutable and exactly
    what solving again would return. Nothing is kept across calls.
    Solver divergence is recorded on the interval's solution.
    """
    intervals = list(intervals)
    days, ledgers = [], []
    for scenario in scenarios:
        errors = placement_errors(net, scenario)
        if errors:
            raise ScenarioConfigError("; ".join(errors))
        ev_buses, demanded = _ev_demand(scenario, profiles, intervals)
        # Whatever is still deferred at the horizon is unserved; the rest was served.
        settled, unserved_kw = demanded, Fraction(0)
        if scenario.controller == "one_third_stagger" and ev_buses:
            settled, unserved_kw = one_third_stagger(scenario.ev_connected_kw_by_bus(),
                                                     demanded, intervals)
        # Exact, in integer units: each distinct demanded kW times its count.
        values, counts = np.unique(demanded, return_counts=True)
        demanded_units = sum(_dyadic_units(value) * count
                             for value, count in zip(values.tolist(), counts.tolist()))
        demanded_kw = Fraction(demanded_units, _DYADIC_UNIT)
        per_slot_hours = Fraction(1, 4)
        ledgers.append(EnergyLedger(demanded_kwh=demanded_kw * per_slot_hours,
                                    served_kwh=(demanded_kw - unserved_kw) * per_slot_hours,
                                    unserved_kwh=unserved_kw * per_slot_hours))
        days.append(_day_injections(net, scenario, profiles, intervals, ev_buses, settled))

    # Each slot's row in the batch, keyed by the bytes of its injections:
    # slots equal bit for bit share a row; +0.0 and -0.0 differ.
    rows: dict[bytes, int] = {}
    slots = [[rows.setdefault(injections.tobytes(), len(rows)) for injections in day]
             for day in days]
    batch = np.frombuffer(b"".join(rows), dtype=complex).reshape(len(rows), len(net.buses))
    solutions = _newton_raphson(net, batch)
    return [SweepResult(scenario.name, tuple(IntervalRecord(interval, solutions[row])
                                             for interval, row in zip(intervals, day)), ledger)
            for scenario, day, ledger in zip(scenarios, slots, ledgers)]


def run_sweep(net: Network, scenario: Scenario, profiles: Mapping[str, LoadProfile],
              intervals: Iterable[int] = range(SLOTS_PER_DAY)) -> SweepResult:
    """A study of one scenario (run_study)."""
    return run_study(net, [scenario], profiles, intervals)[0]
