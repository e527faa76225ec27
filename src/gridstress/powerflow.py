"""AC power-flow solvers over the network model.

Solves for bus voltages given per-bus complex power injections, then
computes branch flows and loading percentages against branch ratings.
Two independent solvers are provided: full-Jacobian Newton-Raphson in
polar form (the production path) and Gauss-Seidel per-bus fixed-point
iteration (slower, used as a cross-check). Every non-slack bus is a PQ
node; PV generation enters as negative load upstream of this module.

Each Network is compiled into arrays on its first solve: Ybus, bus and
branch indices, and the bus powers and Newton-Raphson Jacobian at the
flat start, which depend on the network alone and serve every solve's
first step. The
compiled form is kept on the instance, so a single solve and every slot
of a sweep run the same code. Solves are pure and deterministic: the
same network and injections give bit-identical solutions.
Non-convergence is a reportable outcome, not an exception, because
overload studies intentionally push past feasibility.

Injections are one complex vector ordered like net.buses with the slack
entry zero (what a sweep builds per slot), or a mapping by non-slack bus
id, which becomes that vector on entry. Voltages keep the same bus order
from the iteration to branch_flows. The mismatch and the Jacobian blocks
are gathered from the float view of complex arrays at compiled indices.
The Jacobian keeps its dense products with diagonal matrices: OpenBLAS
zgemm rounds its last n mod 4 columns unlike the elementwise O(n^2) form,
so that faster form would move the last bits of the reported loadings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .network import Network

# Injections in pu: by non-slack bus id, or one complex entry per bus in
# the order of net.buses with the slack entry zero.
InjectionSet = Mapping[str, complex] | np.ndarray


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 30


# Gauss-Seidel converges linearly; the tolerance applies to the largest
# per-sweep voltage change rather than the power mismatch.
GAUSS_SEIDEL_DEFAULTS = SolverOptions(tol=1e-10, max_iter=50_000)


class BranchFlow(NamedTuple):
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
    the same scalar expressions as build_ybus uses. mismatch_index and
    jacobian_index are flat positions in the float view of complex bus
    arrays: the first gathers the real then the imaginary parts of a
    power mismatch at the PQ buses, the second the four Jacobian blocks
    from the stacked angle and magnitude derivatives. flat_voltages,
    flat_power and flat_jacobian are the voltages, bus powers and
    Jacobian at the flat start, computed by the same code as every later
    Newton-Raphson step's.
    """

    ybus: np.ndarray
    bus_ids: tuple[str, ...]
    slack: int
    pq: np.ndarray
    pq_ids: tuple[str, ...]
    non_slack: frozenset[str]
    mismatch_index: np.ndarray
    jacobian_index: np.ndarray
    branch_ids: tuple[str, ...]
    branch_kinds: tuple[str, ...]
    near_index: np.ndarray
    far_index: np.ndarray
    y_near: np.ndarray
    y_far: np.ndarray
    rating_pu: np.ndarray
    flat_voltages: np.ndarray
    flat_power: np.ndarray
    flat_jacobian: np.ndarray

    def injection_vector(self, injections: InjectionSet) -> np.ndarray:
        """Injections ordered like the buses, with the slack entry zero.

        A mapping is keyed by every non-slack bus id; an array is used
        as given once its shape, slack entry and finiteness are checked.
        """
        if not isinstance(injections, Mapping):
            s = np.asarray(injections, dtype=complex)
            if s.shape != (len(self.bus_ids),):
                raise ValueError(f"injection vector has shape {s.shape}, "
                                 f"expected ({len(self.bus_ids)},), one entry per bus")
            if s[self.slack] != 0:
                raise ValueError(f"injection at slack bus {self.bus_ids[self.slack]} must be 0, "
                                 f"got {complex(s[self.slack])}")
            finite = np.isfinite(s)
            if not finite.all():
                k = int(np.argmin(finite))
                raise ValueError(f"non-finite injection at {self.bus_ids[k]}: {complex(s[k])}")
            return s
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
    n = len(bus_ids)
    slack = bus_ids.index(net.slack_id())
    pq = np.array([i for i in range(n) if i != slack], dtype=int)
    pq_ids = tuple(bus_ids[i] for i in pq)
    # Float view of a complex (n,) array: Re z[i] at 2i, Im z[i] at 2i + 1.
    # Of the stacked (2, n, n) derivatives: block b, row i, column j at
    # 2n(n*b + i) + 2j, its imaginary part one further.
    mismatch_index = np.concatenate([2 * pq, 2 * pq + 1])
    rows = np.concatenate([2 * n * pq, 2 * n * pq + 1])
    columns = np.concatenate([2 * pq, 2 * n * n + 2 * pq])
    jacobian_index = rows[:, None] + columns[None, :]
    flat_voltages = _polar(np.ones(n), np.zeros(n))
    flat_power, flat_currents = _power(ybus, flat_voltages)
    flat_jacobian = _jacobian(ybus, jacobian_index, flat_voltages, flat_currents,
                              np.empty((2, n, n), dtype=complex),
                              np.empty((2 * len(pq), 2 * len(pq))))
    for array in (flat_voltages, flat_power, flat_jacobian):
        array.setflags(write=False)
    index = {bus_id: i for i, bus_id in enumerate(bus_ids)}
    from_index = [index[b.from_bus] for b in net.branches]
    to_index = [index[b.to_bus] for b in net.branches]
    y_ff, y_ft, y_tt = [], [], []
    for branch in net.branches:
        y = 1.0 / branch.series_impedance_pu
        y_ff.append(y / branch.tap ** 2)
        y_ft.append(y / branch.tap)
        y_tt.append(y)
    y_near = np.array(y_ff + y_tt, dtype=complex)
    y_far = np.array(y_ft + y_ft, dtype=complex)
    return _Compiled(
        ybus=ybus,
        bus_ids=bus_ids,
        slack=slack,
        pq=pq,
        pq_ids=pq_ids,
        non_slack=frozenset(pq_ids),
        mismatch_index=mismatch_index,
        jacobian_index=jacobian_index,
        branch_ids=tuple(b.id for b in net.branches),
        branch_kinds=tuple(b.kind for b in net.branches),
        near_index=np.array(from_index + to_index, dtype=int),
        far_index=np.array(to_index + from_index, dtype=int),
        y_near=np.array([y_near.real, y_near.imag]),
        y_far=np.array([y_far.real, y_far.imag]),
        rating_pu=np.array([b.rating_kva / (1000.0 * net.s_base_mva) for b in net.branches],
                           dtype=float),
        flat_voltages=flat_voltages,
        flat_power=flat_power,
        flat_jacobian=flat_jacobian,
    )


def _polar(v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """Complex bus voltages from per-unit magnitudes and radian angles."""
    return v_mag * np.exp(1j * v_ang)


def _power(ybus: np.ndarray, voltages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex power injected at each bus, and the bus currents."""
    i_bus = ybus @ voltages
    return voltages * np.conj(i_bus), i_bus


def _jacobian(ybus: np.ndarray, index: np.ndarray, voltages: np.ndarray, i_bus: np.ndarray,
              derivatives: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with the polar Newton-Raphson Jacobian at voltages; returns out.

    derivatives (2, n, n) receives the complex power's derivatives with
    respect to voltage angle and magnitude; index gathers the real and
    imaginary parts of their PQ rows and columns into the four blocks.
    The dense diagonal products stay: an elementwise O(n^2) form is
    faster but rounds differently, which moves the last bits of the
    loadings written to reports.
    """
    diag_v = np.diag(voltages)
    diag_i = np.diag(i_bus)
    diag_vnorm = np.diag(voltages / np.abs(voltages))
    np.matmul(1j * diag_v, np.conj(diag_i - ybus @ diag_v), out=derivatives[0])
    np.add(diag_v @ np.conj(ybus @ diag_vnorm), np.conj(diag_i) @ diag_vnorm,
           out=derivatives[1])
    # Every index is in range; mode="clip" only spares take a buffered copy.
    return np.take(derivatives.view(float), index, out=out, mode="clip")


def _cmul(a_re: np.ndarray, a_im: np.ndarray, b_re: np.ndarray,
          b_im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise complex product on real and imaginary parts.

    Spelled out because numpy's vectorised complex multiply may round
    differently from the scalar one; this form rounds like it, which
    keeps branch flows (and every report built from them) bit-identical
    to a per-branch scalar loop.
    """
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def branch_flows(net: Network, voltages: np.ndarray) -> tuple[BranchFlow, ...]:
    """Per-branch complex power at both ends and the loading percentage.

    voltages holds one complex per-unit voltage per bus, ordered like
    net.buses.
    """
    c = _compiled(net)
    voltages = np.asarray(voltages, dtype=complex)
    if voltages.shape != (len(c.bus_ids),):
        raise ValueError(f"voltage vector has shape {voltages.shape}, "
                         f"expected ({len(c.bus_ids)},), one entry per bus")
    # Each branch end k (from ends, then to ends) carries the current
    # y_near[k]*v[near] - y_far[k]*v[far]: i_from = y_ff*vf - y_ft*vt and
    # i_to = y_tt*vt - y_ft*vf.
    near = voltages[c.near_index]
    far = voltages[c.far_index]
    v_re, v_im = near.real, near.imag
    a_re, a_im = _cmul(*c.y_near, v_re, v_im)
    b_re, b_im = _cmul(*c.y_far, far.real, far.imag)
    i_re, i_im = a_re - b_re, a_im - b_im

    # s = v * conj(i); np.hypot rounds like abs() of a Python complex.
    s_re, s_im = _cmul(v_re, v_im, i_re, -i_im)
    m = len(c.branch_ids)
    abs_s = np.hypot(s_re, s_im)
    abs_f, abs_t = abs_s[:m], abs_s[m:]
    # np.where(t > f, t, f) is Python's max(f, t), NaN order included.
    loading = 100.0 * np.where(abs_t > abs_f, abs_t, abs_f) / c.rating_pu
    s = _complex_list(s_re, s_im)
    return tuple(map(BranchFlow._make, zip(
        c.branch_ids, c.branch_kinds, s[:m], s[m:], loading.tolist())))


def _complex_list(re: np.ndarray, im: np.ndarray) -> list[complex]:
    """complex(re[k], im[k]) for each k, signed zeros kept."""
    z = np.empty(len(re), dtype=complex)
    z.real = re
    z.imag = im
    return z.tolist()


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
    s_slack = voltages[c.slack] * np.conj(c.ybus[c.slack, :] @ voltages)
    return PowerFlowSolution(
        bus_ids=c.bus_ids,
        v_mag=tuple(np.hypot(voltages.real, voltages.imag).tolist()),
        v_ang=tuple(map(cmath.phase, voltages.tolist())),
        branch_flows=branch_flows(net, voltages),
        slack_injection=complex(s_slack),
        iterations=iterations,
        converged=converged,
        max_mismatch=float(max_mismatch),
    )


def _mismatch(s_spec: np.ndarray, s_calc: np.ndarray,
              index: np.ndarray) -> tuple[np.ndarray, float]:
    """The PQ buses' active then reactive power mismatch, and its largest magnitude."""
    ds = s_spec - s_calc
    stacked = ds.view(float)[index]
    max_mis = float(np.abs(stacked).max()) if stacked.size else 0.0
    return stacked, max_mis


def solve_newton_raphson(
    net: Network,
    injections: InjectionSet,
    opts: SolverOptions = SolverOptions(),
) -> PowerFlowSolution:
    """Full-Jacobian Newton-Raphson power flow in polar form.

    injections is the bus-ordered vector or the mapping by bus id (see
    the module docstring). Converged means max(|dP|, |dQ|) <= opts.tol
    at every non-slack bus. On non-convergence the best iterate seen
    (smallest mismatch) is returned with converged=False so the caller
    can decide.
    """
    c = _compiled(net)
    ybus, pq = c.ybus, c.pq
    s_spec = c.injection_vector(injections)
    n, npq = len(c.bus_ids), len(pq)

    # Flat start: 1.0 per unit, zero angle. Its voltages, powers and
    # Jacobian are compiled; each later step computes its own, assembling
    # the Jacobian into work from the bus currents of its mismatch.
    v_mag = np.ones(n)
    v_ang = np.zeros(n)
    derivatives = np.empty((2, n, n), dtype=complex)
    work = np.empty((2 * npq, 2 * npq))

    best_voltages = c.flat_voltages
    best_mismatch = np.inf
    iterations = 0
    converged = False

    voltages, s_calc, i_bus = c.flat_voltages, c.flat_power, None
    for _ in range(opts.max_iter + 1):
        mis, max_mis = _mismatch(s_spec, s_calc, c.mismatch_index)
        if max_mis < best_mismatch:
            best_mismatch = max_mis
            best_voltages = voltages
        if max_mis <= opts.tol:
            converged = True
            break
        if iterations >= opts.max_iter:
            break

        jacobian = (c.flat_jacobian if iterations == 0
                    else _jacobian(ybus, c.jacobian_index, voltages, i_bus, derivatives, work))
        try:
            dx = np.linalg.solve(jacobian, mis)
        except np.linalg.LinAlgError:
            break
        v_ang[pq] += dx[:npq]
        v_mag[pq] += dx[npq:]
        iterations += 1
        if not (np.isfinite(v_mag).all() and np.isfinite(v_ang).all()):
            break
        voltages = _polar(v_mag, v_ang)
        s_calc, i_bus = _power(ybus, voltages)

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

    _, max_mis = _mismatch(s_spec, _power(ybus, voltages)[0], c.mismatch_index)
    return _finish(net, c, voltages, iterations, converged, max_mis)
