"""Seeded radial 4.16 kV feeder for the ``feeder_ramp`` workload.

The generator builds a 34.5 kV source, one substation transformer and a
radial 4.16 kV tree of building buses, about a tenth of which carry a
parking lot. Building load and lot sizes are calibrated with a linear
(DistFlow) voltage-drop estimate so that, for every seed:

* the no-EV day and the two lower ramp steps converge with margin;
* at the top ramp step, exactly the EV surge slots are past voltage
  collapse and diverge, and every other slot converges.

That keeps the diverged share, and so the cost of a pass, the same for
every seed. The program receives only the generated ``Network``,
``Scenario`` objects and profiles.

The module also holds the workload's reference: an independent polar
Newton-Raphson (flat start, same stopping rule as the program, elementwise
Jacobian) over the benchmark's own admittance matrix and injections, and
the exact energy ledger of each ramp day.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

S_BASE_MVA = 10.0
HV_KV = 34.5
MV_KV = 4.16
N_BUSES = 60                 # including the source and the substation bus
TREE_WINDOW = 6              # a new bus hangs off one of the last few buses
LOT_SHARE = 0.1
CHARGER_KW = 10.0
POWER_FACTOR = 0.95

# Linear voltage-drop targets (pu) at the worst bus; collapse of a radial
# feeder sits near 0.25 on this scale.
BUILDING_DROP = 0.04         # all buildings at profile coefficient 1
EV_FULL_DROP = 1.0          # all lots at penetration 1, EV coefficient 1

RAMP = (0.03, 0.06, 1.0)    # EV penetration per ramp day
SURGE_SLOTS = range(32, 40)  # 08:00-10:00 arrival surge, EV coefficient 1
WORKDAY_SLOTS = range(32, 68)
WORKDAY_EV_COEFF = 0.05
SLOTS = 96

CABLES = {
    "MV-feeder-A": (0.095, 0.141),
    "MV-feeder-B": (0.130, 0.152),
    "MV-lateral-4/0": (0.303, 0.166),
}
SUB_RATING_KVA = 12000.0
SUB_IMPEDANCE_PERCENT = 6.0

# The reference NR's stopping rule; must equal the defaults of
# gridstress.powerflow.SolverOptions, which the program's sweep uses.
NR_TOL = 1e-8
NR_MAX_ITER = 30


@dataclass(frozen=True)
class FeederSpec:
    """Plain-data description of one generated feeder."""

    seed: int
    bus_ids: tuple[str, ...]             # index 0 is the slack
    parents: tuple[int, ...]             # parent bus index of bus i (i >= 1)
    branch_kind: tuple[str, ...]         # kind of the branch feeding bus i
    branch_cable: tuple[str | None, ...]
    branch_miles: tuple[float, ...]
    branch_rating_kva: tuple[float, ...]
    load_kw: tuple[float, ...]
    lots: tuple[tuple[str, int, int], ...]   # (lot name, bus index, stalls)
    building_coeffs: tuple[float, ...]
    ev_coeffs: tuple[float, ...]

    def branch_z_pu(self, i: int) -> complex:
        """Series impedance of the branch feeding bus i, system base."""
        if self.branch_kind[i] == "transformer":
            return complex(0.0, SUB_IMPEDANCE_PERCENT / 100.0
                           * S_BASE_MVA / (self.branch_rating_kva[i] / 1000.0))
        r, x = CABLES[self.branch_cable[i]]
        miles = self.branch_miles[i]
        return complex(r * miles, x * miles) / (MV_KV ** 2 / S_BASE_MVA)

    def load_kvar(self, i: int) -> float:
        return self.load_kw[i] * math.tan(math.acos(POWER_FACTOR))

    def ev_kw_by_bus(self, penetration: float) -> dict[int, float]:
        totals: dict[int, float] = {}
        for _, bus, stalls in self.lots:
            totals[bus] = totals.get(bus, 0.0) + penetration * stalls * CHARGER_KW
        return totals

    def stall_total(self) -> int:
        return sum(stalls for _, _, stalls in self.lots)


def _building_profile(rng: random.Random) -> tuple[float, ...]:
    shape = []
    for slot in range(SLOTS):
        if slot < 24:
            base = 0.3
        elif slot < 36:
            base = 0.3 + 0.7 * (slot - 23) / 13
        elif slot < 64:
            base = 1.0
        elif slot < 88:
            base = 1.0 - 0.65 * (slot - 63) / 24
        else:
            base = 0.32
        shape.append(base * rng.uniform(0.95, 1.05))
    peak = max(shape)
    return tuple(v / peak for v in shape)


def _ev_profile() -> tuple[float, ...]:
    return tuple(1.0 if slot in SURGE_SLOTS else WORKDAY_EV_COEFF if slot in WORKDAY_SLOTS
                 else 0.0 for slot in range(SLOTS))


def _worst_linear_drop(parents, z, p_pu, q_pu) -> float:
    """Largest sum over a root path of R*P + X*Q with downstream P, Q."""
    n = len(parents)
    p_down = list(p_pu)
    q_down = list(q_pu)
    for i in range(n - 1, 0, -1):       # children always follow parents
        p_down[parents[i]] += p_down[i]
        q_down[parents[i]] += q_down[i]
    drop = [0.0] * n
    for i in range(1, n):
        drop[i] = drop[parents[i]] + z[i].real * p_down[i] + z[i].imag * q_down[i]
    return max(drop)


def generate(seed: int) -> FeederSpec:
    """Deterministic feeder for a seed (stdlib RNG, independent of numpy)."""
    rng = random.Random(seed)
    n = N_BUSES
    bus_ids = ("source", "substation") + tuple(f"f{i:03d}" for i in range(2, n))
    parents = [0, 0]
    kinds = ["none", "transformer"]
    cables: list[str | None] = [None, None]
    miles = [0.0, 0.0]
    names = sorted(CABLES)
    for i in range(2, n):
        parents.append(rng.randrange(max(1, i - TREE_WINDOW), i))
        kinds.append("cable")
        cables.append(rng.choices(names, weights=(3, 2, 2))[0])
        miles.append(round(rng.uniform(0.02, 0.12), 4))

    raw_kw = [0.0, 0.0] + [rng.uniform(20.0, 120.0) for _ in range(2, n)]
    lot_buses = sorted(rng.sample(range(2, n), max(1, round(LOT_SHARE * (n - 2)))))
    raw_stalls = {bus: rng.randint(50, 400) for bus in lot_buses}
    building = _building_profile(rng)

    provisional = FeederSpec(seed, bus_ids, tuple(parents), tuple(kinds), tuple(cables),
                             tuple(miles), (0.0, SUB_RATING_KVA) + (1.0,) * (n - 2),
                             tuple(raw_kw), (), building, _ev_profile())
    z = [0j] + [provisional.branch_z_pu(i) for i in range(1, n)]
    kva_base = 1000.0 * S_BASE_MVA
    tan_phi = math.tan(math.acos(POWER_FACTOR))
    bldg_drop = _worst_linear_drop(parents, z, [kw / kva_base for kw in raw_kw],
                                   [kw * tan_phi / kva_base for kw in raw_kw])
    load_kw = [round(kw * BUILDING_DROP / bldg_drop, 3) for kw in raw_kw]
    ev_raw = [raw_stalls.get(i, 0) * CHARGER_KW / kva_base for i in range(n)]
    ev_drop = _worst_linear_drop(parents, z, ev_raw, [0.0] * n)
    stall_scale = EV_FULL_DROP / ev_drop
    lots = tuple((f"lot-{bus_ids[bus]}", bus, max(1, round(raw_stalls[bus] * stall_scale)))
                 for bus in lot_buses)

    # Ratings: downstream building kVA at peak times a seeded headroom, so
    # converged slots spread over every loading bin.
    down_kva = [kw / POWER_FACTOR for kw in load_kw]
    for i in range(n - 1, 0, -1):
        down_kva[parents[i]] += down_kva[i]
    ratings = [0.0, SUB_RATING_KVA] + [
        max(50.0, round(down_kva[i] * rng.uniform(0.9, 3.0), -1)) for i in range(2, n)]

    return FeederSpec(seed, bus_ids, tuple(parents), tuple(kinds), tuple(cables),
                      tuple(miles), tuple(ratings), tuple(load_kw), lots, building,
                      _ev_profile())


def to_program_inputs(spec: FeederSpec, gs):
    """Network, ramp scenarios and profiles as the program's own types.

    ``gs`` is the imported ``gridstress`` package.
    """
    buses = []
    for i, bus_id in enumerate(spec.bus_ids):
        kind = "slack" if i == 0 else "load"
        kv = HV_KV if i == 0 else MV_KV
        load = (gs.NominalLoad(spec.load_kw[i], spec.load_kvar(i)) if spec.load_kw[i]
                else gs.NominalLoad())
        buses.append(gs.Bus(bus_id, kind, kv, load))
    branches = []
    for i in range(1, len(spec.bus_ids)):
        f, t = spec.bus_ids[spec.parents[i]], spec.bus_ids[i]
        if spec.branch_kind[i] == "transformer":
            branches.append(gs.Branch(f, t, "transformer", spec.branch_rating_kva[i],
                                      impedance_percent=SUB_IMPEDANCE_PERCENT))
        else:
            branches.append(gs.Branch(f, t, "cable", spec.branch_rating_kva[i],
                                      cable_type=spec.branch_cable[i],
                                      length_miles=spec.branch_miles[i]))
    catalog = {name: gs.CableType(name, r, x) for name, (r, x) in CABLES.items()}
    net = gs.network.derive_impedances(gs.Network(
        S_BASE_MVA, tuple(buses), tuple(branches),
        (gs.Generator("source", "grid_supply", SUB_RATING_KVA),), catalog))

    profiles = {
        "feeder_buildings": gs.LoadProfile("feeder_buildings", spec.building_coeffs),
        "feeder_ev": gs.LoadProfile("feeder_ev", spec.ev_coeffs),
    }
    lots = tuple(gs.ParkingLot(name, stalls, spec.bus_ids[bus]) for name, bus, stalls in spec.lots)
    bindings = gs.ProfileBindings(load_default="feeder_buildings", ev="feeder_ev")
    scenarios = tuple(gs.Scenario(f"ramp{k}_p{pen:g}", pen, CHARGER_KW, parking_lots=lots,
                                  bindings=bindings) for k, pen in enumerate(RAMP))
    return net, scenarios, profiles


# ---------------------------------------------------------------- reference

def _ybus(spec: FeederSpec) -> np.ndarray:
    n = len(spec.bus_ids)
    y = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        f, ys = spec.parents[i], 1.0 / spec.branch_z_pu(i)
        y[f, f] += ys
        y[i, i] += ys
        y[f, i] -= ys
        y[i, f] -= ys
    return y


def _injections(spec: FeederSpec, ev_kw: dict[int, float], slot: int) -> np.ndarray:
    kva_base = 1000.0 * S_BASE_MVA
    s = np.zeros(len(spec.bus_ids), dtype=complex)
    cb, ce = spec.building_coeffs[slot], spec.ev_coeffs[slot]
    for i in range(1, len(spec.bus_ids)):
        p = -spec.load_kw[i] * cb - ev_kw.get(i, 0.0) * ce
        s[i] = complex(p / kva_base, -spec.load_kvar(i) * cb / kva_base)
    return s


def newton_raphson(ybus: np.ndarray, s_spec: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Polar NR from a flat start; bus 0 is the slack.

    Returns (voltages, iterations), or (None, iterations) when the
    mismatch never reaches ``NR_TOL`` within ``NR_MAX_ITER`` updates.
    """
    n = len(s_spec)
    vm = np.ones(n)
    va = np.zeros(n)
    for it in range(NR_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        i_bus = ybus @ v
        ds = (s_spec - v * np.conj(i_bus))[1:]
        mis = np.concatenate([ds.real, ds.imag])
        if np.max(np.abs(mis)) <= NR_TOL:
            return v, it
        if it == NR_MAX_ITER:
            break
        # dS/dVa and dS/dVm built elementwise (O(n^2)).
        ds_dva = -1j * v[:, None] * np.conj(ybus * v[None, :])
        ds_dva[np.diag_indices(n)] += 1j * v * np.conj(i_bus)
        vn = v / np.abs(v)
        ds_dvm = v[:, None] * np.conj(ybus * vn[None, :])
        ds_dvm[np.diag_indices(n)] += np.conj(i_bus) * vn
        a, m = ds_dva[1:, 1:], ds_dvm[1:, 1:]
        jac = np.block([[a.real, m.real], [a.imag, m.imag]])
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            break
        va[1:] += dx[: n - 1]
        vm[1:] += dx[n - 1:]
        if not (np.all(np.isfinite(vm)) and np.all(np.isfinite(va))):
            break
    return None, it


def reference_ledger(spec: FeederSpec, penetration: float) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (demanded, served, unserved) kWh of a null-controller day.

    Demand is each lot bus's connected kW times the EV coefficient, over
    1/4 h slots; without a controller all of it is served.
    """
    ev_kw = spec.ev_kw_by_bus(penetration)
    demanded = sum((Fraction(kw * coeff) for coeff in spec.ev_coeffs for kw in ev_kw.values()),
                   Fraction(0)) * Fraction(1, 4)
    return demanded, demanded, Fraction(0)


@dataclass(frozen=True)
class SlotReference:
    voltages: np.ndarray | None      # None: the slot diverges
    bins: tuple[str, ...] | None     # per branch, in network branch order


def reference(spec: FeederSpec, bin_label) -> dict[tuple[int, int], SlotReference]:
    """Reference outcome of every (ramp step, slot) of the workload.

    ``bin_label`` maps a loading percentage to its bin label.
    """
    ybus = _ybus(spec)
    n = len(spec.bus_ids)
    z = [spec.branch_z_pu(i) for i in range(1, n)]
    rating_pu = np.array(spec.branch_rating_kva[1:]) / (1000.0 * S_BASE_MVA)
    f_idx = np.array(spec.parents[1:])
    t_idx = np.arange(1, n)
    y_series = 1.0 / np.array(z)

    solved: dict[tuple[float, int], SlotReference] = {}
    out = {}
    for step, pen in enumerate(RAMP):
        ev_kw = spec.ev_kw_by_bus(pen)
        for slot in range(SLOTS):
            key = (pen if spec.ev_coeffs[slot] else 0.0, slot)
            if key not in solved:
                v, _ = newton_raphson(ybus, _injections(spec, ev_kw, slot))
                if v is None:
                    solved[key] = SlotReference(None, None)
                else:
                    vf, vt = v[f_idx], v[t_idx]
                    s_from = vf * np.conj(y_series * (vf - vt))
                    s_to = vt * np.conj(y_series * (vt - vf))
                    loading = 100.0 * np.maximum(np.abs(s_from), np.abs(s_to)) / rating_pu
                    solved[key] = SlotReference(v, tuple(bin_label(float(x)) for x in loading))
            out[(step, slot)] = solved[key]
    return out
