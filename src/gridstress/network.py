"""Electrical network data model for a small distribution grid.

Buses, branches (cables and transformers), generators and the cable
catalog are plain immutable records. Impedances are derived from
catalog data (ohm/mile times length for cables, nameplate percent
impedance rebased for transformers) and expressed in per-unit on the
system MVA base so every voltage level shares one numeric scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

BUS_KINDS = ("slack", "load")
BRANCH_KINDS = ("cable", "transformer")
GENERATOR_KINDS = ("grid_supply", "pv_site")

# Building loads are metered in kW only; reactive power defaults to this
# lagging power factor unless the network file states kvar explicitly.
DEFAULT_LOAD_POWER_FACTOR = 0.95


def reactive_kvar(kw: float) -> float:
    """Reactive power in kvar for an active power at the default lagging power factor."""
    return kw * math.tan(math.acos(DEFAULT_LOAD_POWER_FACTOR))


@dataclass(frozen=True)
class NominalLoad:
    """Peak connected load at a bus: kW active plus kvar reactive."""

    kw: float = 0.0
    kvar: float = 0.0


@dataclass(frozen=True)
class Bus:
    """Network node.

    kind is "slack" (utility service point, voltage fixed at 1.0 pu) or
    "load" (PQ node). base_voltage is line-to-line kV.
    """

    id: str
    kind: str
    base_voltage: float
    nominal_load: NominalLoad = field(default_factory=NominalLoad)


@dataclass(frozen=True)
class CableType:
    """Catalog entry: series resistance and reactance per mile."""

    name: str
    ohms_per_mile: float
    reactance_per_mile: float


@dataclass(frozen=True)
class Generator:
    """Generation attached to a bus.

    grid_supply marks the utility infeed at the slack bus; pv_site is a
    photovoltaic installation whose output follows a bound profile.
    """

    bus: str
    kind: str
    capacity_kw: float
    profile: str | None = None


@dataclass(frozen=True)
class Branch:
    """Series element between two buses.

    Cables carry a catalog type and a length; transformers carry a
    nameplate percent impedance on their own rating and a (fixed) tap.
    rating_kva is the apparent-power limit used for loading percentages.
    series_impedance_pu is derived on the system base, not authored.
    """

    from_bus: str
    to_bus: str
    kind: str
    rating_kva: float
    cable_type: str | None = None
    length_miles: float | None = None
    impedance_percent: float | None = None
    tap: float = 1.0
    series_impedance_pu: complex | None = None

    @property
    def id(self) -> str:
        return f"{self.from_bus} -> {self.to_bus}"


@dataclass(frozen=True)
class Network:
    """Immutable container for one connected distribution network.

    Safe to share across concurrent readers once constructed. All branch
    impedances are per-unit on s_base_mva.
    """

    s_base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...] = ()
    cable_catalog: Mapping[str, CableType] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Frozen fields can still be mutated in place, so the catalog is a
        # read-only view of a private copy.
        object.__setattr__(self, "cable_catalog", MappingProxyType(dict(self.cable_catalog)))

    def __reduce__(self):
        # A mappingproxy cannot be pickled or copied; rebuild from a dict.
        return (type(self), (self.s_base_mva, self.buses, self.branches, self.generators,
                             dict(self.cable_catalog)))

    def bus_ids(self) -> tuple[str, ...]:
        return tuple(bus.id for bus in self.buses)

    def slack_id(self) -> str:
        slacks = [bus.id for bus in self.buses if bus.kind == "slack"]
        if len(slacks) != 1:
            raise ValueError(f"expected exactly one slack bus, found {len(slacks)}")
        return slacks[0]

    def pv_sites(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.kind == "pv_site")


@dataclass(frozen=True)
class Violation:
    """One validation finding; names the offending element."""

    code: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.element}: {self.message}"


def cable_resistance(cable: CableType, length_miles: float) -> complex:
    """Series impedance of a cable run in ohms, R + jX.

    Multiplies the catalog ohm/mile and reactance/mile values by the
    run length.
    """
    if length_miles < 0:
        raise ValueError(f"cable length must be >= 0, got {length_miles}")
    return complex(cable.ohms_per_mile * length_miles,
                   cable.reactance_per_mile * length_miles)


def to_per_unit(
    branch: Branch,
    bus_base_kv: float,
    s_base_mva: float,
    cable_catalog: Mapping[str, CableType] | None = None,
) -> complex:
    """Series impedance of a branch in per-unit on the system base.

    Cables: Z_pu = Z_ohm / (kV^2 / MVA). Transformers: nameplate percent
    impedance on the unit's own rating, rebased to the system MVA base
    and modeled as pure reactance (no-load losses and R ignored).
    """
    if s_base_mva <= 0:
        raise ValueError(f"system base must be > 0 MVA, got {s_base_mva}")
    if bus_base_kv <= 0:
        raise ValueError(f"bus base voltage must be > 0 kV, got {bus_base_kv}")

    if branch.kind == "cable":
        if cable_catalog is None or branch.cable_type not in cable_catalog:
            raise ValueError(f"unknown cable type {branch.cable_type!r} on {branch.id}")
        if branch.length_miles is None:
            raise ValueError(f"cable branch {branch.id} has no length")
        z_ohm = cable_resistance(cable_catalog[branch.cable_type], branch.length_miles)
        z_base = bus_base_kv ** 2 / s_base_mva
        return z_ohm / z_base
    if branch.kind == "transformer":
        if branch.rating_kva <= 0:
            raise ValueError(
                f"transformer {branch.id} rating must be > 0 kVA, got {branch.rating_kva}"
            )
        if branch.impedance_percent is None:
            raise ValueError(f"transformer branch {branch.id} has no impedance_percent")
        rating_mva = branch.rating_kva / 1000.0
        return complex(0.0, (branch.impedance_percent / 100.0) * (s_base_mva / rating_mva))
    raise ValueError(f"unknown branch kind {branch.kind!r} on {branch.id}")


def derive_impedances(net: Network) -> Network:
    """Return a copy of the network with series_impedance_pu filled in.

    Cable impedances are referred to the from-bus voltage base. Branches
    whose references cannot be resolved, or whose arithmetic overflows or
    divides by zero, are left underived; validation reports them.
    """
    bus_kv = {bus.id: bus.base_voltage for bus in net.buses}
    derived = []
    for branch in net.branches:
        base_kv = bus_kv.get(branch.from_bus, 0.0)
        try:
            z_pu = to_per_unit(branch, base_kv, net.s_base_mva, net.cable_catalog)
        except (ValueError, ArithmeticError):
            derived.append(branch)
            continue
        derived.append(replace(branch, series_impedance_pu=z_pu))
    return replace(net, branches=tuple(derived))


def _connected_component(bus_ids: set[str], branches: tuple[Branch, ...]) -> set[str]:
    adjacency: dict[str, set[str]] = {bus_id: set() for bus_id in bus_ids}
    for branch in branches:
        if branch.from_bus in adjacency and branch.to_bus in adjacency:
            adjacency[branch.from_bus].add(branch.to_bus)
            adjacency[branch.to_bus].add(branch.from_bus)
    if not bus_ids:
        return set()
    start = next(iter(sorted(bus_ids)))
    seen = {start}
    stack = [start]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def _usable_per_unit(branch: Branch, s_base_mva: float) -> bool:
    """Whether the per-unit terms the power flow compiles for branch, y/tap**2,
    y/tap and y = 1/series_impedance_pu, and its rating, are all finite and
    non-zero. They take the solver's own expressions; an overflow or a
    division by zero on the way counts as unusable."""
    try:
        y = 1.0 / branch.series_impedance_pu
        terms = (y / branch.tap ** 2, y / branch.tap, y, branch.rating_kva / (1000.0 * s_base_mva))
    except ArithmeticError:
        return False
    return all(cmath.isfinite(term) and term != 0 for term in terms)


def validate_network(net: Network) -> list[Violation]:
    """Check every network invariant; empty report means the network is sound.

    Violations are data, not exceptions: the same network always yields
    the identical report.
    """
    violations: list[Violation] = []

    if net.s_base_mva <= 0:
        violations.append(Violation("nonpositive-system-base", "network",
                                    f"s_base_mva must be > 0, got {net.s_base_mva}"))

    for name, cable in net.cable_catalog.items():
        if cable.ohms_per_mile < 0 or cable.reactance_per_mile < 0:
            violations.append(Violation("negative-cable-impedance", name,
                                        "ohm/mile values must be >= 0"))
        elif cable.ohms_per_mile == 0 and cable.reactance_per_mile == 0:
            violations.append(Violation("zero-cable-impedance", name,
                                        "resistance and reactance are both zero"))

    seen_ids: set[str] = set()
    for bus in net.buses:
        if bus.id in seen_ids:
            violations.append(Violation("duplicate-bus", bus.id, "bus id is not unique"))
        seen_ids.add(bus.id)
        if bus.kind not in BUS_KINDS:
            violations.append(Violation("unknown-bus-kind", bus.id,
                                        f"kind must be one of {BUS_KINDS}, got {bus.kind!r}"))
        if bus.base_voltage <= 0:
            violations.append(Violation("nonpositive-base-voltage", bus.id,
                                        f"base_voltage must be > 0 kV, got {bus.base_voltage}"))

    slack_ids = [bus.id for bus in net.buses if bus.kind == "slack"]
    if not slack_ids:
        violations.append(Violation("no-slack", "network", "no slack bus defined"))
    elif len(slack_ids) > 1:
        violations.append(Violation("multiple-slack", ", ".join(slack_ids),
                                    f"{len(slack_ids)} slack buses; exactly one allowed"))

    bus_kv = {bus.id: bus.base_voltage for bus in net.buses}
    seen_branch_ids: set[str] = set()
    for branch in net.branches:
        if branch.id in seen_branch_ids:
            violations.append(Violation("duplicate-branch", branch.id,
                                        "branch id is not unique"))
        seen_branch_ids.add(branch.id)
        missing = [end for end in (branch.from_bus, branch.to_bus) if end not in bus_kv]
        if missing:
            violations.append(Violation("dangling-endpoint", branch.id,
                                        f"unknown bus(es): {', '.join(missing)}"))
            continue
        if branch.kind not in BRANCH_KINDS:
            violations.append(Violation("unknown-branch-kind", branch.id,
                                        f"kind must be one of {BRANCH_KINDS}, got {branch.kind!r}"))
            continue
        checked = len(violations)
        if branch.rating_kva <= 0:
            violations.append(Violation("nonpositive-rating", branch.id,
                                        f"rating must be > 0 kVA, got {branch.rating_kva}"))
        if branch.tap <= 0:
            violations.append(Violation("nonpositive-tap", branch.id,
                                        f"tap must be > 0, got {branch.tap}"))
        if branch.kind == "cable":
            if branch.length_miles is not None and branch.length_miles < 0:
                violations.append(Violation("negative-length", branch.id,
                                            f"length_miles must be >= 0, got {branch.length_miles}"))
            if branch.cable_type not in net.cable_catalog:
                violations.append(Violation("unknown-cable-type", branch.id,
                                            f"cable type {branch.cable_type!r} not in catalog"))
            elif bus_kv[branch.from_bus] != bus_kv[branch.to_bus]:
                violations.append(Violation("voltage-mismatch", branch.id,
                                            "cable endpoints have different base voltages"))
        if branch.series_impedance_pu is None:
            # derive_impedances leaves a branch underived on a bad system or
            # from-bus base and on its own bad values; those are reported.
            if net.s_base_mva > 0 and bus_kv[branch.from_bus] > 0 and len(violations) == checked:
                violations.append(Violation("underived-impedance", branch.id,
                                            "series_impedance_pu has not been derived"))
        elif branch.series_impedance_pu == 0:
            violations.append(Violation("zero-impedance", branch.id,
                                        "derived impedance magnitude must be > 0"))
        elif len(violations) == checked and not _usable_per_unit(branch, net.s_base_mva):
            violations.append(Violation("degenerate-per-unit", branch.id,
                                        "y/tap**2, y/tap, y (y = 1/impedance) and rating in pu "
                                        "must be finite and non-zero"))

    for gen in net.generators:
        if gen.bus not in bus_kv:
            violations.append(Violation("generator-unknown-bus", gen.bus,
                                        "generator references a missing bus"))
            continue
        if gen.kind not in GENERATOR_KINDS:
            violations.append(Violation("unknown-generator-kind", gen.bus,
                                        f"kind must be one of {GENERATOR_KINDS}, got {gen.kind!r}"))
            continue
        if gen.kind == "pv_site" and gen.capacity_kw <= 0:
            violations.append(Violation("nonpositive-capacity", gen.bus,
                                        f"pv_site capacity must be > 0 kW, got {gen.capacity_kw}"))
        if gen.kind == "grid_supply" and gen.bus not in slack_ids:
            violations.append(Violation("grid-supply-off-slack", gen.bus,
                                        "grid_supply generators belong at the slack bus"))

    if net.buses and not any(v.code == "dangling-endpoint" for v in violations):
        reachable = _connected_component(set(bus_kv), net.branches)
        unreachable = sorted(set(bus_kv) - reachable)
        if unreachable:
            violations.append(Violation("disconnected", ", ".join(unreachable),
                                        "bus(es) unreachable from the rest of the network"))

    return violations
