"""Shared builders and checks for tests: tiny and randomly generated
networks, a small network document, injection vectors from mappings by
bus id, the benchmark's seeded feeder days, no-load injections, overload
counts, a stagger day checked on every prefix, and reference models: the
Gauss-Seidel oracle of the Newton-Raphson solver, a solution's series
losses from its branch columns, one slot's injections and the stagger
controller."""

from __future__ import annotations

import cmath
import json
import os
import random
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

import gridstress
from gridstress import (
    Branch,
    Bus,
    CableType,
    CongestionHistogram,
    LoadProfile,
    Network,
    NominalLoad,
    PowerFlowSolution,
    Scenario,
    branch_flows,
    derive_impedances,
    one_third_stagger,
)
from gridstress.powerflow import build_ybus

# Fixes the property/equivalence generators only; the simulator itself
# uses no randomness.
SEED = int(os.environ.get("GRIDSTRESS_SEED", "20250810"))

S_BASE = 10.0
MV_KV = 4.16
Z_BASE_OHM = MV_KV * MV_KV / S_BASE

# A valid network document with a load, a cable and a tapped transformer.
NETWORK_TEXT = json.dumps({
    "s_base_mva": 10.0,
    "cable_catalog": {"c": {"ohms_per_mile": 0.1, "reactance_per_mile": 0.2}},
    "buses": [{"id": "s", "kind": "slack", "base_voltage": 4.16},
              {"id": "a", "kind": "load", "base_voltage": 4.16, "nominal_load": {"kw": 100.0}},
              {"id": "b", "kind": "load", "base_voltage": 0.48}],
    "branches": [{"from": "s", "to": "a", "kind": "cable", "rating": 1000.0,
                  "cable_type": "c", "length_miles": 0.5},
                 {"from": "a", "to": "b", "kind": "transformer", "rating": 500.0,
                  "impedance_percent": 5.0, "tap": 1.0}],
})


def two_bus_network(z_pu: complex, rating_kva: float = 10000.0) -> Network:
    """Slack feeding one load bus through a single series impedance."""
    catalog = {"line": CableType("line", z_pu.real * Z_BASE_OHM, z_pu.imag * Z_BASE_OHM)}
    net = Network(
        s_base_mva=S_BASE,
        buses=(Bus("source", "slack", MV_KV), Bus("load", "load", MV_KV)),
        branches=(Branch("source", "load", "cable", rating_kva,
                         cable_type="line", length_miles=1.0),),
        cable_catalog=catalog,
    )
    return derive_impedances(net)


def bus_vector(net: Network, injections: Mapping[str, complex]) -> np.ndarray:
    """The injection vector the solvers take, from injections by bus id:
    ordered like net.buses, slack entry zero, every other bus required."""
    slack = net.slack_id()
    return np.array([0j if bus_id == slack else complex(injections[bus_id])
                     for bus_id in net.bus_ids()])


def make_radial_network(rng: random.Random, n_buses: int,
                        ties: int = 0) -> tuple[Network, np.ndarray]:
    """Random connected radial network plus a matching injection vector.

    Branch resistance and reactance are each uniform in [0.005, 0.1] pu;
    bus active loads are uniform in [0, 0.5] pu with Q = 0.3 P. ties
    adds up to that many tie branches, drawn the same way, between buses
    not yet connected, which makes the network meshed. With ties=0 the
    draws from rng are those of a radial network only.
    """
    catalog: dict[str, CableType] = {}
    buses = [Bus("bus-0", "slack", MV_KV)]
    branches = []
    injections: dict[str, complex] = {}
    for i in range(1, n_buses):
        p = rng.uniform(0.0, 0.5)
        q = 0.3 * p
        buses.append(Bus(f"bus-{i}", "load", MV_KV, NominalLoad(p * 10000.0, q * 10000.0)))
        injections[f"bus-{i}"] = complex(-p, -q)
        parent = rng.randrange(i)
        r = rng.uniform(0.005, 0.1)
        x = rng.uniform(0.005, 0.1)
        name = f"cable-{i}"
        catalog[name] = CableType(name, r * Z_BASE_OHM, x * Z_BASE_OHM)
        branches.append(Branch(f"bus-{parent}", f"bus-{i}", "cable", 10000.0,
                               cable_type=name, length_miles=1.0))
    for k in range(min(ties, (n_buses - 1) * (n_buses - 2) // 2)):
        linked = {(b.from_bus, b.to_bus) for b in branches}
        while True:
            ends = tuple(f"bus-{i}" for i in sorted(rng.sample(range(n_buses), 2)))
            if ends not in linked:
                break
        name = f"tie-{k}"
        catalog[name] = CableType(name, rng.uniform(0.005, 0.1) * Z_BASE_OHM,
                                  rng.uniform(0.005, 0.1) * Z_BASE_OHM)
        branches.append(Branch(*ends, "cable", 10000.0, cable_type=name, length_miles=1.0))
    net = derive_impedances(Network(S_BASE, tuple(buses), tuple(branches), (), catalog))
    return net, bus_vector(net, injections)


# The Gauss-Seidel oracle converges linearly. It stops once no voltage
# moves more than GS_TOL pu in a sweep, or after GS_MAX_ITER sweeps.
GS_TOL = 1e-10
GS_MAX_ITER = 50_000


def solve_gauss_seidel(net: Network, injections: np.ndarray) -> PowerFlowSolution:
    """Gauss-Seidel power flow, the oracle of the Newton-Raphson solver:
    per-bus fixed-point voltage updates, swept from a flat start.

    It shares only build_ybus and branch_flows with the solver and takes
    the same bus-ordered injections. Converged means the largest voltage
    change in a sweep is <= GS_TOL; max_mismatch is the largest |dP| or
    |dQ| at a PQ bus at the last iterate. Only a converged solution
    carries branch columns.
    """
    ybus = build_ybus(net)
    s_spec = np.asarray(injections, dtype=complex)
    slack = net.bus_ids().index(net.slack_id())
    pq = [i for i in range(len(net.buses)) if i != slack]
    voltages = np.ones(len(net.buses), dtype=complex)
    iterations, stop = 0, "max_iter"
    while iterations < GS_MAX_ITER:
        max_dv = 0.0
        for i in pq:
            coupled = ybus[i, :] @ voltages - ybus[i, i] * voltages[i]
            updated = (np.conj(s_spec[i] / voltages[i]) - coupled) / ybus[i, i]
            max_dv = max(max_dv, abs(updated - voltages[i]))
            voltages[i] = updated
        iterations += 1
        if max_dv <= GS_TOL:
            stop = "converged"
            break
        if not np.all(np.isfinite(voltages)):
            stop = "non_finite"
            break

    currents = ybus @ voltages
    mismatch = (s_spec - voltages * np.conj(currents))[pq].view(float)
    converged = stop == "converged"
    s_from, s_to, loading = branch_flows(net, voltages) if converged else ((), (), ())
    v = voltages.tolist()
    return PowerFlowSolution(
        bus_ids=net.bus_ids(),
        v_mag=tuple(map(abs, v)),
        v_ang=tuple(map(cmath.phase, v)),
        branch_ids=tuple(b.id for b in net.branches) if converged else (),
        branch_kinds=tuple(b.kind for b in net.branches) if converged else (),
        s_from=s_from,
        s_to=s_to,
        loading_percent=loading,
        slack_injection=v[slack] * complex(currents[slack]).conjugate(),
        iterations=iterations,
        max_mismatch=float(np.abs(mismatch).max(initial=0.0)),
        stop_reason=stop,
    )


def series_losses_pu(solution: PowerFlowSolution) -> complex:
    """A solution's series losses in pu, P + jQ: the power entering its
    branches at both ends, sum(s_from) + sum(s_to)."""
    return sum(solution.s_from, 0j) + sum(solution.s_to, 0j)


def feeder_days(seed: int) -> tuple[Network, tuple[Scenario, ...], dict[str, LoadProfile]]:
    """The seeded 60-bus feeder of the benchmark (perfbench/feeder.py):
    its network, its EV ramp scenarios and its profiles."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import feeder

    return feeder.to_program_inputs(feeder.generate(seed), gridstress)


def no_load_injections(net: Network) -> np.ndarray:
    """Zero injection at every bus."""
    return np.zeros(len(net.buses), dtype=complex)


def slot_injections(net: Network, scenario: Scenario, profiles: Mapping[str, LoadProfile],
                    interval: int, ev_kw: Mapping[str, float] | None = None) -> dict[str, complex]:
    """Reference model of build_injections that resolves every binding
    for the one slot, in the program's float operation order. ev_kw is
    the whole EV draw; None draws each lot's nominal kW times the EV
    coefficient."""
    bindings = scenario.bindings
    if ev_kw is None:
        ev_kw = {}
        for bus, kw in scenario.ev_connected_kw_by_bus().items():
            ev_kw[bus] = kw * profiles[bindings.ev].coefficient(interval)
    pv_kw: dict[str, float] = {}
    if scenario.pv_enabled:
        for site in net.pv_sites():
            profile = profiles[bindings.pv.get(site.bus) or site.profile or bindings.pv_default]
            pv_kw[site.bus] = pv_kw.get(site.bus, 0.0) + site.capacity_kw * profile.coefficient(interval)
    kva_base = 1000.0 * net.s_base_mva
    injections = {}
    for bus in net.buses:
        if bus.kind == "slack":
            continue
        p_kw = 0.0
        q_kvar = 0.0
        if bus.nominal_load.kw != 0.0 or bus.nominal_load.kvar != 0.0:
            coeff = profiles[bindings.load.get(bus.id, bindings.load_default)].coefficient(interval)
            p_kw -= bus.nominal_load.kw * coeff
            q_kvar -= bus.nominal_load.kvar * coeff
        if bus.id in ev_kw:
            p_kw -= ev_kw[bus.id]
        if bus.id in pv_kw:
            p_kw += pv_kw[bus.id]
        injections[bus.id] = complex(p_kw / kva_base, q_kvar / kva_base)
    return injections


def at_or_above_100(hist: CongestionHistogram) -> int:
    """Branches loaded at 100% or more."""
    return hist.bin_100_150 + hist.bin_gt_150


def stagger_day(connected_kw: Mapping[str, float], demanded_kw: np.ndarray,
                intervals: Sequence[int]) -> tuple[np.ndarray, Fraction]:
    """Run one_third_stagger over a day and return its (served_kw, unserved_kw).

    Checks the controller against FifoStagger on every prefix of the
    intervals: the served rows equal the model's and the exact unserved
    kW equals its queue, so served plus unserved is the demand. Also
    asserts that a bus outside the active group (position in the sorted
    bus ids mod 3) served nothing and a bus inside it at most its cap.
    """
    buses = list(connected_kw)
    group = {bus: i % 3 for i, bus in enumerate(sorted(buses))}
    oracle = FifoStagger(connected_kw)
    expected: list[list[float]] = []
    demanded = Fraction(0)

    def check(k: int) -> tuple[np.ndarray, Fraction]:
        served, unserved = one_third_stagger(connected_kw, demanded_kw[:k], intervals[:k])
        assert served.tolist() == expected, k
        assert unserved == oracle.unserved(), k
        assert oracle.served + unserved == demanded, k
        return served, unserved

    for k, interval in enumerate(intervals):
        check(k)
        row = demanded_kw[k].tolist()
        demanded += sum(map(Fraction, row), Fraction(0))
        step = oracle.step(dict(zip(buses, row)), interval)
        expected.append([step[bus] for bus in buses])
        for bus, kw in step.items():
            room = connected_kw[bus] if group[bus] == interval % 3 else 0.0
            assert 0.0 <= kw <= room, (interval, bus)
    return check(len(intervals))


class FifoStagger:
    """Reference model of the one-third stagger controller.

    Each bus keeps a FIFO queue of exact deferral entries. The active
    group (interval mod 3, groups round-robin over the sorted bus ids)
    drains its queue oldest entry first, up to the bus's connected
    power, then serves current demand from the room left; the excess
    joins the queue tail.
    """

    def __init__(self, connected_kw_by_bus: Mapping[str, float]):
        self.buses = tuple(sorted(connected_kw_by_bus))
        self.group = {bus: i % 3 for i, bus in enumerate(self.buses)}
        self.cap = {bus: Fraction(connected_kw_by_bus[bus]) for bus in self.buses}
        self.queues: dict[str, deque[Fraction]] = {bus: deque() for bus in self.buses}
        self.served = Fraction(0)

    def step(self, demands: Mapping[str, float], interval: int) -> dict[str, float]:
        """Settle one slot; the served kW of every bus."""
        served_kw = {}
        for bus in self.buses:
            demand = Fraction(demands.get(bus, 0.0))
            queue = self.queues[bus]
            room = self.cap[bus] if self.group[bus] == interval % 3 else 0
            drained = 0
            while queue and room > 0:
                take = min(queue[0], room)
                drained += take
                room -= take
                if take == queue[0]:
                    queue.popleft()
                else:
                    queue[0] -= take
            direct = min(demand, room)
            if demand > direct:
                queue.append(demand - direct)
            self.served += drained + direct
            served_kw[bus] = float(drained + direct)
        return served_kw

    def queued(self, bus: str) -> Fraction:
        return sum(self.queues[bus], Fraction(0))

    def unserved(self) -> Fraction:
        return sum((self.queued(bus) for bus in self.buses), Fraction(0))
