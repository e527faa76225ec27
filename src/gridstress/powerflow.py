"""AC power-flow solvers over the network model.

Solves for bus voltages given per-bus complex power injections, then
computes branch flows and loading percentages against branch ratings.
Two independent solvers are provided: full-Jacobian Newton-Raphson in
polar form (the production path) and Gauss-Seidel per-bus fixed-point
iteration (slower, used as a cross-check). Every non-slack bus is a PQ
node; PV generation enters as negative load upstream of this module.

Each Network is compiled into arrays (Ybus, bus and branch indices) on
its first solve, and the compiled form is kept on the instance, so a
single solve and every slot of a sweep run the same code. Solves are
pure and deterministic: the same network and injections give
bit-identical solutions. Non-convergence is a reportable outcome, not
an exception, because overload studies intentionally push past
feasibility.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .network import Network

InjectionSet = Mapping[str, complex]


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 30


# Gauss-Seidel converges linearly; the tolerance applies to the largest
# per-sweep voltage change rather than the power mismatch.
GAUSS_SEIDEL_DEFAULTS = SolverOptions(tol=1e-10, max_iter=50_000)


@dataclass(frozen=True)
class BranchFlow:
    """Complex power entering a branch at each end, in pu, plus loading."""

    branch_id: str
    kind: str
    s_from: complex
    s_to: complex
    loading_percent: float


@dataclass(frozen=True)
class PowerFlowSolution:
    """Solved state for one interval.

    Voltages are per-unit magnitude and radian angle, ordered like
    bus_ids. loading_percent of a branch is
    100 * max(|s_from|, |s_to|) / rating_pu.
    """

    bus_ids: tuple[str, ...]
    v_mag: tuple[float, ...]
    v_ang: tuple[float, ...]
    branch_flows: tuple[BranchFlow, ...]
    slack_injection: complex
    iterations: int
    converged: bool
    max_mismatch: float

    def voltage(self, bus_id: str) -> complex:
        i = self.bus_ids.index(bus_id)
        return cmath.rect(self.v_mag[i], self.v_ang[i])

    def voltages(self) -> dict[str, complex]:
        return {bus_id: self.voltage(bus_id) for bus_id in self.bus_ids}

    def loading_by_branch(self) -> dict[str, float]:
        return {f.branch_id: f.loading_percent for f in self.branch_flows}

    def voltage_range(self) -> tuple[float, float]:
        return min(self.v_mag), max(self.v_mag)


def build_ybus(net: Network) -> np.ndarray:
    """Dense bus admittance matrix ordered like net.buses.

    Diagonal entries sum the series admittances incident to the bus;
    off-diagonals are the negated series admittance of the connecting
    branch. Off-nominal transformer taps enter on the from side.
    """
    index = {bus.id: i for i, bus in enumerate(net.buses)}
    ybus = np.zeros((len(net.buses), len(net.buses)), dtype=complex)
    for branch in net.branches:
        z = branch.series_impedance_pu
        if z is None:
            raise ValueError(f"branch {branch.id} has no derived impedance")
        if abs(z) == 0.0:
            raise ValueError(f"branch {branch.id} has zero impedance (singular)")
        y = 1.0 / z
        f, t = index[branch.from_bus], index[branch.to_bus]
        tap = branch.tap
        ybus[f, f] += y / tap ** 2
        ybus[t, t] += y
        ybus[f, t] -= y / tap
        ybus[t, f] -= y / tap
    return ybus


class _Compiled(NamedTuple):
    """A Network's solver inputs as index arrays, built once per instance.

    The branch admittance terms y/tap**2, y/tap and y are computed with
    the same scalar expressions as build_ybus uses.
    """

    ybus: np.ndarray
    bus_ids: tuple[str, ...]
    slack: int
    pq: np.ndarray
    pq_grid: tuple[np.ndarray, np.ndarray]
    pq_ids: tuple[str, ...]
    non_slack: frozenset[str]
    branch_ids: tuple[str, ...]
    branch_kinds: tuple[str, ...]
    from_ids: tuple[str, ...]
    to_ids: tuple[str, ...]
    y_ff: np.ndarray
    y_ft: np.ndarray
    y_tt: np.ndarray
    rating_pu: np.ndarray

    def injection_vector(self, injections: InjectionSet) -> np.ndarray:
        """Injections ordered like the buses, with the slack entry zero."""
        given = set(injections)
        if given != self.non_slack:
            missing = sorted(self.non_slack - given)
            extra = sorted(given - self.non_slack)
            parts = []
            if missing:
                parts.append(f"missing injections for: {', '.join(missing)}")
            if extra:
                parts.append(f"unexpected injections for: {', '.join(extra)}")
            raise ValueError("; ".join(parts))
        s = np.zeros(len(self.bus_ids), dtype=complex)
        for i, bus_id in zip(self.pq.tolist(), self.pq_ids):
            value = complex(injections[bus_id])
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"non-finite injection at {bus_id}: {value}")
            s[i] = value
        return s


def _compiled(net: Network) -> _Compiled:
    """The compiled form of net, memoised in the instance's __dict__.

    Network is frozen, so the cache can never go stale; it is not a
    dataclass field and takes no part in equality, hashing or replace().
    """
    compiled = net.__dict__.get("_compiled")
    if compiled is None:
        compiled = _compile(net)
        net.__dict__["_compiled"] = compiled
    return compiled


def _compile(net: Network) -> _Compiled:
    ybus = build_ybus(net)
    ybus.setflags(write=False)
    bus_ids = net.bus_ids()
    slack = bus_ids.index(net.slack_id())
    pq = np.array([i for i in range(len(bus_ids)) if i != slack], dtype=int)
    pq_ids = tuple(bus_ids[i] for i in pq)
    y_ff, y_ft, y_tt = [], [], []
    for branch in net.branches:
        y = 1.0 / branch.series_impedance_pu
        y_ff.append(y / branch.tap ** 2)
        y_ft.append(y / branch.tap)
        y_tt.append(y)
    return _Compiled(
        ybus=ybus,
        bus_ids=bus_ids,
        slack=slack,
        pq=pq,
        pq_grid=np.ix_(pq, pq),
        pq_ids=pq_ids,
        non_slack=frozenset(pq_ids),
        branch_ids=tuple(b.id for b in net.branches),
        branch_kinds=tuple(b.kind for b in net.branches),
        from_ids=tuple(b.from_bus for b in net.branches),
        to_ids=tuple(b.to_bus for b in net.branches),
        y_ff=np.array(y_ff, dtype=complex),
        y_ft=np.array(y_ft, dtype=complex),
        y_tt=np.array(y_tt, dtype=complex),
        rating_pu=np.array([b.rating_kva / (1000.0 * net.s_base_mva) for b in net.branches],
                           dtype=float),
    )


def _cmul(a_re: np.ndarray, a_im: np.ndarray, b_re: np.ndarray,
          b_im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise complex product on real and imaginary parts.

    Spelled out because numpy's vectorised complex multiply may round
    differently from the scalar one; this form rounds like it, which
    keeps branch flows (and every report built from them) bit-identical
    to a per-branch scalar loop.
    """
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def branch_flows(net: Network, voltages: Mapping[str, complex]) -> tuple[BranchFlow, ...]:
    """Per-branch complex power at both ends and the loading percentage."""
    c = _compiled(net)
    vf = np.array([voltages[bus_id] for bus_id in c.from_ids], dtype=complex)
    vt = np.array([voltages[bus_id] for bus_id in c.to_ids], dtype=complex)
    vf_re, vf_im, vt_re, vt_im = vf.real, vf.imag, vt.real, vt.imag

    # i_from = y_ff*vf - y_ft*vt and i_to = y_tt*vt - y_ft*vf
    a_re, a_im = _cmul(c.y_ff.real, c.y_ff.imag, vf_re, vf_im)
    b_re, b_im = _cmul(c.y_ft.real, c.y_ft.imag, vt_re, vt_im)
    if_re, if_im = a_re - b_re, a_im - b_im
    a_re, a_im = _cmul(c.y_tt.real, c.y_tt.imag, vt_re, vt_im)
    b_re, b_im = _cmul(c.y_ft.real, c.y_ft.imag, vf_re, vf_im)
    it_re, it_im = a_re - b_re, a_im - b_im

    # s = v * conj(i); np.hypot rounds like abs() of a Python complex.
    sf_re, sf_im = _cmul(vf_re, vf_im, if_re, -if_im)
    st_re, st_im = _cmul(vt_re, vt_im, it_re, -it_im)
    abs_f = np.hypot(sf_re, sf_im)
    abs_t = np.hypot(st_re, st_im)
    # np.where(t > f, t, f) is Python's max(f, t), NaN order included.
    loading = 100.0 * np.where(abs_t > abs_f, abs_t, abs_f) / c.rating_pu
    return tuple(
        BranchFlow(branch_id, kind, complex(fr, fi), complex(tr, ti), load)
        for branch_id, kind, fr, fi, tr, ti, load in zip(
            c.branch_ids, c.branch_kinds, sf_re.tolist(), sf_im.tolist(),
            st_re.tolist(), st_im.tolist(), loading.tolist())
    )


def total_losses(net: Network, solution: PowerFlowSolution) -> complex:
    """Network series losses in MW + jMvar, summed over branch ends."""
    s_loss_pu = sum((f.s_from + f.s_to for f in solution.branch_flows), 0j)
    return s_loss_pu * net.s_base_mva


def _finish(
    net: Network,
    c: _Compiled,
    voltages: np.ndarray,
    iterations: int,
    converged: bool,
    max_mismatch: float,
) -> PowerFlowSolution:
    by_id = dict(zip(c.bus_ids, voltages))
    s_slack = voltages[c.slack] * np.conj(c.ybus[c.slack, :] @ voltages)
    return PowerFlowSolution(
        bus_ids=c.bus_ids,
        v_mag=tuple(np.hypot(voltages.real, voltages.imag).tolist()),
        v_ang=tuple(cmath.phase(v) for v in voltages.tolist()),
        branch_flows=branch_flows(net, by_id),
        slack_injection=complex(s_slack),
        iterations=iterations,
        converged=converged,
        max_mismatch=float(max_mismatch),
    )


def _mismatch(ybus: np.ndarray, voltages: np.ndarray, s_spec: np.ndarray,
              pq: np.ndarray) -> tuple[np.ndarray, float]:
    s_calc = voltages * np.conj(ybus @ voltages)
    ds = s_spec - s_calc
    stacked = np.concatenate([ds[pq].real, ds[pq].imag])
    max_mis = float(np.max(np.abs(stacked))) if stacked.size else 0.0
    return stacked, max_mis


def solve_newton_raphson(
    net: Network,
    injections: InjectionSet,
    opts: SolverOptions = SolverOptions(),
) -> PowerFlowSolution:
    """Full-Jacobian Newton-Raphson power flow in polar form.

    Converged means max(|dP|, |dQ|) <= opts.tol at every non-slack bus.
    On non-convergence the best iterate seen (smallest mismatch) is
    returned with converged=False so the caller can decide.
    """
    c = _compiled(net)
    ybus, pq = c.ybus, c.pq
    s_spec = c.injection_vector(injections)
    n, npq = len(c.bus_ids), len(pq)

    # Flat start: 1.0 per unit, zero angle.
    v_mag = np.ones(n)
    v_ang = np.zeros(n)
    jacobian = np.empty((2 * npq, 2 * npq))

    best_voltages = np.ones(n, dtype=complex)
    best_mismatch = np.inf
    iterations = 0
    converged = False

    for _ in range(opts.max_iter + 1):
        voltages = v_mag * np.exp(1j * v_ang)
        mis, max_mis = _mismatch(ybus, voltages, s_spec, pq)
        if max_mis < best_mismatch:
            best_mismatch = max_mis
            best_voltages = voltages
        if max_mis <= opts.tol:
            converged = True
            break
        if iterations >= opts.max_iter:
            break

        # Complex power derivatives with respect to voltage angle and
        # magnitude; the Jacobian blocks are their real/imag parts. The
        # dense diagonal products stay: an elementwise O(n^2) form is
        # faster but rounds differently, which moves the last bits of
        # the loadings written to reports.
        i_bus = ybus @ voltages
        diag_v = np.diag(voltages)
        diag_i = np.diag(i_bus)
        diag_vnorm = np.diag(voltages / np.abs(voltages))
        ds_dva = (1j * diag_v @ np.conj(diag_i - ybus @ diag_v))[c.pq_grid]
        ds_dvm = (diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm)[c.pq_grid]
        jacobian[:npq, :npq] = ds_dva.real
        jacobian[:npq, npq:] = ds_dvm.real
        jacobian[npq:, :npq] = ds_dva.imag
        jacobian[npq:, npq:] = ds_dvm.imag

        try:
            dx = np.linalg.solve(jacobian, mis)
        except np.linalg.LinAlgError:
            break
        v_ang[pq] += dx[:npq]
        v_mag[pq] += dx[npq:]
        iterations += 1
        if not np.all(np.isfinite(v_mag)) or not np.all(np.isfinite(v_ang)):
            break

    if converged:
        return _finish(net, c, voltages, iterations, True, max_mis)
    return _finish(net, c, best_voltages, iterations, False, best_mismatch)


def solve_gauss_seidel(
    net: Network,
    injections: InjectionSet,
    opts: SolverOptions = GAUSS_SEIDEL_DEFAULTS,
) -> PowerFlowSolution:
    """Gauss-Seidel power flow: sweep per-bus fixed-point voltage updates.

    Converged means the largest voltage change in a sweep is <= opts.tol.
    Independent of the Newton path, which makes it a usable oracle.
    """
    c = _compiled(net)
    ybus = c.ybus
    s_spec = c.injection_vector(injections)
    pq = c.pq.tolist()

    voltages = np.ones(len(c.bus_ids), dtype=complex)
    iterations = 0
    converged = False

    for _ in range(opts.max_iter):
        max_dv = 0.0
        for i in pq:
            coupled = ybus[i, :] @ voltages - ybus[i, i] * voltages[i]
            updated = (np.conj(s_spec[i] / voltages[i]) - coupled) / ybus[i, i]
            max_dv = max(max_dv, abs(updated - voltages[i]))
            voltages[i] = updated
        iterations += 1
        if max_dv <= opts.tol:
            converged = True
            break
        if not np.all(np.isfinite(voltages)):
            break

    _, max_mis = _mismatch(ybus, voltages, s_spec, c.pq)
    return _finish(net, c, voltages, iterations, converged, max_mis)
