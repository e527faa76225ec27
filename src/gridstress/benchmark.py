"""Bundled campus benchmark network.

A synthetic university-campus distribution grid: two utility service
points at 34.5 kV feeding three substations, radial 4.16 kV feeders to
building buses, dedicated 480 V service transformers for the three
large parking buses, 18 parking areas carrying projected EV charging
load, and three rooftop/canopy PV sites.

Parking capacities and PV capacities are real published figures for
the modeled campus; impedances, ratings, and building loads are
synthetic stand-ins (the true values are not public) calibrated so the
no-EV base case at 09:00 shows exactly two branches in the 40-80%
loading bin and none above 80%. Loading trends across the EV/PV/load-
management scenarios follow from that anchor; exact congestion counts
are calibration artifacts, not field data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .network import (
    Branch,
    Bus,
    CableType,
    Generator,
    Network,
    NominalLoad,
    derive_impedances,
    reactive_kvar,
)
from .scenario import (
    SLOTS_PER_DAY,
    LoadProfile,
    ParkingLot,
    ProfileBindings,
    Scenario,
    ev_workday_profile,
    pv_clear_day_profile,
)

S_BASE_MVA = 10.0
HV_KV = 34.5       # utility service level
MV_KV = 4.16       # campus distribution level
LV_KV = 0.48       # parking service level

CABLE_CATALOG = {
    "HV-tie-336": CableType("HV-tie-336", 0.278, 0.690),
    "MV-feeder-A": CableType("MV-feeder-A", 0.095, 0.141),
    "MV-feeder-2xA": CableType("MV-feeder-2xA", 0.0475, 0.0705),
    "MV-feeder-B": CableType("MV-feeder-B", 0.130, 0.152),
    "MV-lateral-4/0": CableType("MV-lateral-4/0", 0.303, 0.166),
}

# (bus id, base kV, load kW). Substation and utility buses carry no load;
# the three parking buses carry only small lighting loads.
_BUSES = (
    ("DWP Pole", HV_KV, 0.0),
    ("Tampa DWP Pole", HV_KV, 0.0),
    ("SubB", HV_KV, 0.0),
    ("Sub A", HV_KV, 0.0),
    ("Sub C (HV)", HV_KV, 0.0),
    ("SubB (LV)", MV_KV, 0.0),
    ("Sub A (LV)", MV_KV, 0.0),
    ("Sub C", MV_KV, 0.0),
    # north feeder (SubB)
    ("SU(CP)", MV_KV, 40.0),
    ("SU(AN)", MV_KV, 30.0),
    ("Sustainability Center", MV_KV, 45.0),
    ("Redwood Hall", MV_KV, 150.0),
    ("Education", MV_KV, 200.0),
    ("Extended Learning", MV_KV, 140.0),
    ("Physical Plant", MV_KV, 260.0),
    ("Jacaranda Hall", MV_KV, 260.0),
    ("Art Design Center", MV_KV, 130.0),
    ("E6 Mathador Hall", MV_KV, 95.0),
    ("Athletic Field", MV_KV, 80.0),
    ("Juniper Hall", MV_KV, 150.0),
    # central feeder (Sub A)
    ("SU Center", MV_KV, 230.0),
    ("SU (AE)", MV_KV, 120.0),
    ("Student REC", MV_KV, 430.0),
    ("SU Admin", MV_KV, 140.0),
    ("SU (As)", MV_KV, 90.0),      # placement uncertain; kept on the SU Admin spur
    ("Street LTS", MV_KV, 60.0),   # placement uncertain; kept near SU (AE)
    ("SEQUOIA Hall", MV_KV, 230.0),
    ("Oviatt library", MV_KV, 420.0),
    ("Byramian", MV_KV, 150.0),
    ("University Hall", MV_KV, 240.0),
    ("Seirra Center", MV_KV, 130.0),
    ("Jerome Richfield", MV_KV, 120.0),
    ("Seirra Hall", MV_KV, 120.0),
    ("Parking B2", LV_KV, 20.0),
    # south feeder (Sub C)
    ("Sattelite Plant", MV_KV, 330.0),
    ("Chapparal Hall", MV_KV, 220.0),
    ("Manzanita Hall", MV_KV, 180.0),
    ("Cypress Hall", MV_KV, 160.0),
    ("Nordhoff Hall", MV_KV, 200.0),
    ("Parking B3", LV_KV, 25.0),
    ("Health Center", MV_KV, 170.0),
    ("Bookstore", MV_KV, 190.0),
    ("Monterey Hall", MV_KV, 150.0),
    ("Soraya Hall", MV_KV, 240.0),
    ("Chrisholm Hall", MV_KV, 160.0),
    ("Parking G3", LV_KV, 25.0),
)

# Cable branches: (from, to, catalog type, miles, rating kVA).
_CABLES = (
    ("DWP Pole", "Tampa DWP Pole", "HV-tie-336", 0.45, 20000.0),
    ("DWP Pole", "Sub A", "HV-tie-336", 0.24, 20000.0),
    ("DWP Pole", "Sub C (HV)", "HV-tie-336", 0.30, 20000.0),
    ("Tampa DWP Pole", "SubB", "HV-tie-336", 0.28, 20000.0),
    # north feeder
    ("SubB (LV)", "SU(CP)", "MV-feeder-B", 0.06, 3600.0),
    ("SU(CP)", "SU(AN)", "MV-feeder-A", 0.05, 4330.0),
    ("SU(AN)", "Sustainability Center", "MV-feeder-A", 0.07, 4330.0),
    ("Sustainability Center", "Redwood Hall", "MV-feeder-A", 0.08, 4330.0),
    ("Redwood Hall", "Education", "MV-feeder-B", 0.09, 3600.0),
    ("Education", "Extended Learning", "MV-feeder-B", 0.08, 3600.0),
    ("Extended Learning", "Physical Plant", "MV-lateral-4/0", 0.10, 1300.0),
    ("Redwood Hall", "Jacaranda Hall", "MV-lateral-4/0", 0.07, 1440.0),
    ("Jacaranda Hall", "Art Design Center", "MV-lateral-4/0", 0.08, 1440.0),
    ("SU(AN)", "E6 Mathador Hall", "MV-lateral-4/0", 0.09, 1440.0),
    ("SU(CP)", "Athletic Field", "MV-lateral-4/0", 0.11, 2165.0),
    ("Education", "Juniper Hall", "MV-lateral-4/0", 0.07, 1440.0),
    # central feeder
    ("Sub A (LV)", "SU Center", "MV-feeder-2xA", 0.05, 8660.0),
    ("SU Center", "SU (AE)", "MV-feeder-A", 0.05, 4330.0),
    ("SU (AE)", "Student REC", "MV-feeder-A", 0.06, 4330.0),
    ("SU Center", "SU Admin", "MV-lateral-4/0", 0.06, 1440.0),
    ("SU Admin", "SU (As)", "MV-lateral-4/0", 0.05, 720.0),
    ("SU (AE)", "Street LTS", "MV-lateral-4/0", 0.12, 720.0),
    ("SU Center", "SEQUOIA Hall", "MV-feeder-A", 0.08, 4330.0),
    ("SEQUOIA Hall", "Oviatt library", "MV-lateral-4/0", 0.06, 2165.0),
    ("SEQUOIA Hall", "Byramian", "MV-feeder-A", 0.09, 4330.0),
    ("Byramian", "University Hall", "MV-feeder-A", 0.07, 4330.0),
    ("University Hall", "Seirra Center", "MV-feeder-A", 0.06, 4330.0),
    ("Seirra Center", "Jerome Richfield", "MV-feeder-A", 0.07, 4330.0),
    ("Jerome Richfield", "Seirra Hall", "MV-lateral-4/0", 0.06, 1440.0),
    # south feeder
    ("Sub C", "Sattelite Plant", "MV-feeder-A", 0.05, 5000.0),
    ("Sattelite Plant", "Chapparal Hall", "MV-feeder-B", 0.06, 3200.0),
    ("Chapparal Hall", "Manzanita Hall", "MV-feeder-B", 0.08, 3200.0),
    ("Manzanita Hall", "Cypress Hall", "MV-lateral-4/0", 0.06, 2165.0),
    ("Cypress Hall", "Nordhoff Hall", "MV-lateral-4/0", 0.07, 2165.0),
    ("Sattelite Plant", "Health Center", "MV-feeder-B", 0.07, 3400.0),
    ("Health Center", "Bookstore", "MV-lateral-4/0", 0.06, 1440.0),
    ("Health Center", "Monterey Hall", "MV-feeder-B", 0.09, 3200.0),
    ("Monterey Hall", "Soraya Hall", "MV-lateral-4/0", 0.07, 1440.0),
    ("Monterey Hall", "Chrisholm Hall", "MV-feeder-B", 0.07, 3000.0),
)

# Transformers: (from, to, rating kVA, percent impedance on own rating).
_TRANSFORMERS = (
    ("SubB", "SubB (LV)", 7500.0, 6.5),
    ("Sub A", "Sub A (LV)", 7500.0, 6.5),
    ("Sub C (HV)", "Sub C", 9000.0, 6.5),
    ("Jerome Richfield", "Parking B2", 1000.0, 5.75),
    ("Manzanita Hall", "Parking B3", 2000.0, 5.75),
    ("Chrisholm Hall", "Parking G3", 1500.0, 5.75),
)

PV_SITES = (
    ("Parking B2", 467.0),
    ("E6 Mathador Hall", 225.0),
    ("Student REC", 1200.0),
)

GRID_SUPPLY_KW = 40000.0

# Parking areas and the bus each one's chargers feed from. Only the
# three structures with dedicated service transformers have their own
# buses; the rest share the nearest named building bus.
PARKING_LOTS = (
    ParkingLot("B5", 420, "Extended Learning"),
    ParkingLot("B5 Structure", 1290, "University Hall"),
    ParkingLot("E5", 100, "Redwood Hall"),
    ParkingLot("F5", 230, "Athletic Field"),
    ParkingLot("G6", 50, "Athletic Field"),
    ParkingLot("B6", 460, "Physical Plant"),
    ParkingLot("E6", 590, "E6 Mathador Hall"),
    ParkingLot("G6 Structure", 1300, "SU(CP)"),
    ParkingLot("B1", 480, "Nordhoff Hall"),
    ParkingLot("B2", 460, "Parking B2"),
    ParkingLot("F2", 50, "Soraya Hall"),
    ParkingLot("G1", 90, "Monterey Hall"),
    ParkingLot("G3 Structure", 1370, "Parking G3"),
    ParkingLot("G3", 450, "Parking G3"),
    ParkingLot("B3 Structure", 1760, "Parking B3"),
    ParkingLot("B4", 300, "Juniper Hall"),
    ParkingLot("G4", 170, "Chrisholm Hall"),
    ParkingLot("B3", 500, "Parking B3"),
)


def campus_building_profile() -> LoadProfile:
    """Weekday building-demand shape: overnight floor, morning ramp,
    working-hours plateau at 1.0, evening decline."""
    coeffs = []
    for slot in range(SLOTS_PER_DAY):
        if slot < 24:
            coeffs.append(0.30)
        elif slot < 36:
            coeffs.append(0.30 + 0.70 * (slot - 23) / 13)
        elif slot < 64:
            coeffs.append(1.0)
        elif slot < 88:
            coeffs.append(1.0 - 0.65 * (slot - 63) / 24)
        else:
            coeffs.append(0.32)
    return LoadProfile("campus_buildings", tuple(coeffs))


def build_network() -> Network:
    buses = tuple(
        Bus(name, kind="slack" if name == "DWP Pole" else "load",
            base_voltage=kv,
            nominal_load=NominalLoad(kw, reactive_kvar(kw)) if kw else NominalLoad())
        for name, kv, kw in _BUSES
    )
    branches = tuple(
        Branch(f, t, "cable", rating, cable_type=cable, length_miles=miles)
        for f, t, cable, miles, rating in _CABLES
    ) + tuple(
        Branch(f, t, "transformer", rating, impedance_percent=z)
        for f, t, rating, z in _TRANSFORMERS
    )
    generators = (Generator("DWP Pole", "grid_supply", GRID_SUPPLY_KW),) + tuple(
        Generator(bus, "pv_site", kw) for bus, kw in PV_SITES
    )
    net = Network(
        s_base_mva=S_BASE_MVA,
        buses=buses,
        branches=branches,
        generators=generators,
        cable_catalog=dict(CABLE_CATALOG),
    )
    return derive_impedances(net)


def build_profiles() -> dict[str, LoadProfile]:
    profiles = (campus_building_profile(), ev_workday_profile(), pv_clear_day_profile())
    return {p.id: p for p in profiles}


def _scenario(name: str, penetration: float, pv: bool, controller: str) -> Scenario:
    return Scenario(
        name=name,
        penetration=penetration,
        per_charger_kw=10.0,
        pv_enabled=pv,
        controller=controller,
        parking_lots=PARKING_LOTS,
        bindings=ProfileBindings(
            load_default="campus_buildings",
            ev="ev_workday",
            pv_default="pv_clear_day",
        ),
    )


def build_scenarios() -> tuple[Scenario, ...]:
    return (
        _scenario("base", 0.0, pv=False, controller="null"),
        _scenario("ev10", 0.10, pv=False, controller="null"),
        _scenario("ev25", 0.25, pv=False, controller="null"),
        _scenario("ev25_pv", 0.25, pv=True, controller="null"),
        _scenario("ev25_pv_lm", 0.25, pv=True, controller="one_third_stagger"),
    )


@dataclass(frozen=True)
class BenchmarkBundle:
    """The ready-to-run study: network, profile shapes, and scenarios."""

    network: Network
    profiles: Mapping[str, LoadProfile]
    scenarios: tuple[Scenario, ...]

    def scenario(self, name: str) -> Scenario:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(name)


def build_benchmark() -> BenchmarkBundle:
    """Deterministic benchmark fixture; identical on every build."""
    return BenchmarkBundle(
        network=build_network(),
        profiles=build_profiles(),
        scenarios=build_scenarios(),
    )
