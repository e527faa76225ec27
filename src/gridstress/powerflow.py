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
first step. The compiled form is kept on the instance. Solves are pure
and deterministic: the same network and injections give bit-identical
solutions. Non-convergence is a reportable outcome, not an exception,
because overload studies intentionally push past feasibility; each
solution records why its iteration stopped (STOP_REASONS).

Newton-Raphson runs in lockstep over a batch of operating points, one
row of bus-ordered injections each: a sweep solves its distinct rows as
one batch and a single solve is a batch of one, so there is one NR loop.
The mismatch, the stopping and best-iterate bookkeeping, the voltage
update and the bus powers are computed once per step for all rows still
iterating, a row leaves the batch when it stops, and the branch flows of
the stopped rows are computed together. Rows go through the loop in
blocks of _BLOCK_ROWS, which bounds the memory a batch holds. Each row
keeps the exact steps of a solve of it alone:

- Its Jacobian is assembled and solved on its own. The Jacobian keeps
  its dense products with diagonal matrices: OpenBLAS zgemm rounds its
  last n mod 4 columns unlike the elementwise O(n^2) form, so that
  faster form would move the last bits of the reported loadings. The
  Jacobians are not stacked into one (k, m, m) array for a batched
  solve either: every row still needs its own factorisation, and that
  stack measured 0.92-1.07x of solving the rows one by one.
- Bus currents come from np.matmul over the stacked (k, n, 1) columns,
  one matrix-vector product per row, which rounds like ybus @ v. The
  single product ybus @ V.T is a zgemm and rounds differently.

Injections take one form: a complex vector in pu ordered like net.buses
with the slack entry zero, one row of the day matrix a sweep evaluates
(see scenario). Voltages keep the same bus order from the iteration to
branch_flows. The mismatch and the Jacobian blocks are gathered from the
float view of complex arrays at compiled indices, the Jacobian in column
order, the layout LAPACK factorises without a strided copy.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .network import Network

# Why an iteration stopped, by code: within tolerance, out of iterations,
# a singular Newton-Raphson Jacobian, or a non-finite iterate.
STOP_REASONS = ("converged", "max_iter", "singular_jacobian", "non_finite")
_CONVERGED, _MAX_ITER, _SINGULAR, _NON_FINITE = range(len(STOP_REASONS))


# Newton-Raphson stops once max(|dP|, |dQ|) <= NR_TOL pu, or after
# NR_MAX_ITER steps. Gauss-Seidel converges linearly; its tolerance applies
# to the largest per-sweep voltage change rather than the power mismatch.
NR_TOL = 1e-8
NR_MAX_ITER = 30
GS_TOL = 1e-10
GS_MAX_ITER = 50_000


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
    100 * max(|s_from|, |s_to|) / rating_pu. stop_reason is one of
    STOP_REASONS; converged is stop_reason == "converged".
    """

    bus_ids: tuple[str, ...]
    v_mag: tuple[float, ...]
    v_ang: tuple[float, ...]
    branch_flows: tuple[BranchFlow, ...]
    slack_injection: complex
    iterations: int
    max_mismatch: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

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
        if z == 0:
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
    from the stacked angle and magnitude derivatives, transposed:
    jacobian_index[j, i] is the position of Jacobian entry (i, j).
    flat_voltages, flat_power and flat_jacobian are the voltages, bus
    powers and (column-ordered) Jacobian at the flat start, computed by
    the same code as every later Newton-Raphson step's.
    """

    ybus: np.ndarray
    bus_ids: tuple[str, ...]
    slack: int
    pq: np.ndarray
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

    def check_rows(self, s: np.ndarray) -> None:
        """Raise unless each row of s (k, n) is a vector of bus-ordered
        injections, one entry per bus; then for the first row whose slack
        entry is not zero or that holds a non-finite entry."""
        n = len(self.bus_ids)
        if s.shape[1:] != (n,):
            raise ValueError(f"injection vector has shape {s.shape[1:]}, "
                             f"expected ({n},), one entry per bus")
        finite = np.isfinite(s)
        bad = (s[:, self.slack] != 0) | ~finite.all(axis=1)
        if not bad.any():
            return
        row = int(np.argmax(bad))
        if s[row, self.slack] != 0:
            raise ValueError(f"injection at slack bus {self.bus_ids[self.slack]} must be 0, "
                             f"got {complex(s[row, self.slack])}")
        k = int(np.argmin(finite[row]))
        raise ValueError(f"non-finite injection at {self.bus_ids[k]}: {complex(s[row, k])}")


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
    # Float view of a complex (n,) array: Re z[i] at 2i, Im z[i] at 2i + 1.
    # Of the stacked (2, n, n) derivatives: block b, row i, column j at
    # 2n(n*b + i) + 2j, its imaginary part one further.
    mismatch_index = np.concatenate([2 * pq, 2 * pq + 1])
    rows = np.concatenate([2 * n * pq, 2 * n * pq + 1])
    columns = np.concatenate([2 * pq, 2 * n * n + 2 * pq])
    jacobian_index = columns[:, None] + rows[None, :]
    flat_voltages = _polar(np.ones(n), np.zeros(n))
    flat_power, flat_currents = (a[0] for a in _power(ybus, flat_voltages[None]))
    flat_jacobian = _JacobianWork(ybus, jacobian_index)(flat_voltages, flat_currents)
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
    z = 1j * v_ang
    return np.multiply(v_mag, np.exp(z, out=z), out=z)


def _power(ybus: np.ndarray, voltages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex power injected at each bus, and the bus currents, per row of
    voltages (k, n): one matrix-vector product per row."""
    i_bus = np.matmul(ybus, voltages[..., None])[..., 0]
    s = np.conj(i_bus)
    return np.multiply(voltages, s, out=s), i_bus


class _JacobianWork:
    """Buffers for the polar Newton-Raphson Jacobian of one network, reused
    by every row and step of a solve.

    Each diagonal matrix of the dense products is a zero buffer whose
    diagonal is overwritten per assembly, so the products see the same
    operands as with np.diag: diag(v), 1j * diag(v), diag(i), conj(diag(i))
    (its off-diagonal zeros have imaginary part -0.0) and diag(v / |v|).
    """

    def __init__(self, ybus: np.ndarray, index: np.ndarray):
        n = len(ybus)
        self.ybus, self.index = ybus, index
        diagonal = np.zeros((5, n, n), dtype=complex)
        diagonal[3].imag = -0.0
        self.diag_v, self.diag_jv, self.diag_i, self.diag_conj_i, self.diag_vnorm = diagonal
        # Writable views of each buffer's diagonal, in the same order.
        self.diagonals = diagonal.reshape(5, -1)[:, ::n + 1]
        self.product = np.empty((n, n), dtype=complex)
        self.derivatives = np.empty((2, n, n), dtype=complex)
        self.out = np.empty((len(index), len(index)))

    def __call__(self, voltages: np.ndarray, i_bus: np.ndarray) -> np.ndarray:
        """The Jacobian at voltages with bus currents i_bus, in column order:
        the transpose of self.out.

        derivatives receives the complex power's derivatives with respect
        to voltage angle and magnitude; the transposed index gathers the
        real and imaginary parts of their PQ rows and columns into self.out
        as the four blocks of the transposed Jacobian. np.linalg.solve hands
        LAPACK a column-ordered copy of its matrix, which it then copies
        contiguously rather than with a strided gather.
        """
        v, jv, i, conj_i, vnorm = self.diagonals
        v[:] = voltages
        jv[:] = 1j * voltages
        i[:] = i_bus
        conj_i[:] = np.conj(i_bus)
        vnorm[:] = voltages / np.abs(voltages)
        ybus, product, derivatives = self.ybus, self.product, self.derivatives
        # dS/dangle = 1j * diag(v) @ conj(diag(i) - ybus @ diag(v))
        np.matmul(ybus, self.diag_v, out=product)
        np.subtract(self.diag_i, product, out=product)
        np.matmul(self.diag_jv, np.conj(product, out=product), out=derivatives[0])
        # dS/dmagnitude = diag(v) @ conj(ybus @ diag(vnorm)) + conj(diag(i)) @ diag(vnorm)
        np.matmul(ybus, self.diag_vnorm, out=product)
        np.matmul(self.diag_v, np.conj(product, out=product), out=derivatives[1])
        np.matmul(self.diag_conj_i, self.diag_vnorm, out=product)
        np.add(derivatives[1], product, out=derivatives[1])
        # Every index is in range; mode="clip" only spares take a buffered copy.
        return np.take(derivatives.view(float), self.index, out=self.out, mode="clip").T


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
    return _branch_flows(c, voltages[None])[0]


def _branch_flows(c: _Compiled, voltages: np.ndarray) -> list[tuple[BranchFlow, ...]]:
    """branch_flows for each row of voltages (k, n)."""
    # Each branch end k (from ends, then to ends) carries the current
    # y_near[k]*v[near] - y_far[k]*v[far]: i_from = y_ff*vf - y_ft*vt and
    # i_to = y_tt*vt - y_ft*vf.
    near = voltages[:, c.near_index]
    far = voltages[:, c.far_index]
    v_re, v_im = near.real, near.imag
    a_re, a_im = _cmul(*c.y_near, v_re, v_im)
    b_re, b_im = _cmul(*c.y_far, far.real, far.imag)
    i_re, i_im = a_re - b_re, a_im - b_im

    # s = v * conj(i); np.hypot rounds like abs() of a Python complex.
    s_re, s_im = _cmul(v_re, v_im, i_re, -i_im)
    m = len(c.branch_ids)
    abs_s = np.hypot(s_re, s_im)
    abs_f, abs_t = abs_s[:, :m], abs_s[:, m:]
    # np.where(t > f, t, f) is Python's max(f, t), NaN order included.
    loading = 100.0 * np.where(abs_t > abs_f, abs_t, abs_f) / c.rating_pu
    return [tuple(map(_branch_flow, zip(c.branch_ids, c.branch_kinds, s[:m], s[m:], row)))
            for s, row in zip(_complex_list(s_re, s_im), loading.tolist())]


# BranchFlow._make without its Python-level call per branch: every
# zipped row has the five fields that _make would check for.
_branch_flow = partial(tuple.__new__, BranchFlow)


def _complex_list(re: np.ndarray, im: np.ndarray) -> list:
    """complex(re[..., k], im[..., k]) for each k, nested like re, signed zeros kept."""
    z = np.empty(re.shape, dtype=complex)
    z.real = re
    z.imag = im
    return z.tolist()


def total_losses(net: Network, solution: PowerFlowSolution) -> complex:
    """Network series losses in MW + jMvar, summed over branch ends."""
    s_loss_pu = sum((f.s_from + f.s_to for f in solution.branch_flows), 0j)
    return s_loss_pu * net.s_base_mva


def _finish(c: _Compiled, voltages: np.ndarray, iterations: np.ndarray, stops: np.ndarray,
            mismatches: np.ndarray) -> list[PowerFlowSolution]:
    """One solution per row of the C-contiguous voltages (k, n), with its stop record."""
    # The slack bus's injection: one dot product per row (over contiguous
    # rows, as in a solve of one), then Python's complex product, which
    # rounds like numpy's scalar one.
    slack_currents = np.matmul(voltages[:, None, :], c.ybus[c.slack][:, None])[:, 0, 0]
    return [
        PowerFlowSolution(
            bus_ids=c.bus_ids,
            v_mag=tuple(v_mag),
            v_ang=tuple(map(cmath.phase, v)),
            branch_flows=flows,
            slack_injection=v[c.slack] * i_slack.conjugate(),
            iterations=its,
            max_mismatch=mismatch,
            stop_reason=STOP_REASONS[stop],
        )
        for v, v_mag, flows, i_slack, its, stop, mismatch in zip(
            voltages.tolist(), np.hypot(voltages.real, voltages.imag).tolist(),
            _branch_flows(c, voltages), slack_currents.tolist(), iterations.tolist(),
            stops.tolist(), mismatches.tolist())
    ]


def _mismatch(s_spec: np.ndarray, s_calc: np.ndarray,
              index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (k, n) bus powers: the PQ buses' active then reactive
    power mismatch, and its largest magnitude (0.0 with no PQ bus)."""
    stacked = (s_spec - s_calc).view(float)[:, index]
    return stacked, np.abs(stacked).max(axis=1, initial=0.0)


def solve_newton_raphson(net: Network, injections: np.ndarray) -> PowerFlowSolution:
    """Full-Jacobian Newton-Raphson power flow in polar form.

    injections is the bus-ordered vector that build_injections returns
    (see the module docstring). Converged means max(|dP|, |dQ|) <= NR_TOL
    at every non-slack bus. On non-convergence the best iterate seen
    (smallest mismatch) is returned with converged=False so the caller
    can decide. This is a batch of one (_newton_raphson).
    """
    return _newton_raphson(net, np.asarray(injections, dtype=complex)[None])[0]


# Rows iterated and finished together. Each row holds about ten n-vectors
# of state: 96 rows at once on a 60-bus feeder raised the peak resident
# memory by about 1 MB, and wider blocks than this ran no faster.
_BLOCK_ROWS = 32


def _newton_raphson(net: Network, s_spec: np.ndarray) -> list[PowerFlowSolution]:
    """Newton-Raphson in lockstep over the rows of s_spec (k, n), each a
    bus-ordered injection vector; one solution per row, in row order."""
    c = _compiled(net)
    c.check_rows(s_spec)
    return [solution for start in range(0, len(s_spec), _BLOCK_ROWS)
            for solution in _finish(c, *_iterate(c, s_spec[start:start + _BLOCK_ROWS]))]


def _iterate(c: _Compiled, s_spec: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Newton-Raphson steps of every row of s_spec (k, n); returns, per
    row, the voltages it reports, its step count, stop code and mismatch.

    Every row starts flat (1.0 per unit, zero angle), whose voltages,
    powers and Jacobian are compiled, and stops on its own: converged,
    after NR_MAX_ITER steps, at a singular Jacobian (not counted as a
    step) or at a non-finite iterate (counted). A converged row reports
    its last iterate; any other its best one, the smallest mismatch seen.
    """
    k, n = s_spec.shape
    pq, npq = c.pq, len(c.pq)
    jacobian = _JacobianWork(c.ybus, c.jacobian_index)

    # Per row of s_spec: what it reports once stopped. Every row stops
    # within the loop, the last ones at step NR_MAX_ITER.
    final_voltages = np.empty((k, n), dtype=complex)
    iterations = np.empty(k, dtype=int)
    stops = np.empty(k, dtype=int)
    mismatches = np.empty(k)

    # Per row still iterating (the batch shrinks as rows stop): its row in
    # s_spec, its injections, the voltage angles then magnitudes at the PQ
    # buses (laid out like a Newton step), its voltages and its best iterate.
    rows = np.arange(k)
    polar = np.zeros((k, 2, npq))
    polar[:, 1] = 1.0
    voltages = np.tile(c.flat_voltages, (k, 1))
    best_voltages = voltages.copy()
    best_mismatch = np.full(k, np.inf)
    s_calc, i_bus = c.flat_power, None

    def stop(which, reason, steps: int) -> None:
        at = rows[which]
        final_voltages[at] = best_voltages[which]
        mismatches[at] = best_mismatch[which]
        iterations[at] = steps
        stops[at] = reason

    for step in range(NR_MAX_ITER + 1):
        mis, max_mis = _mismatch(s_spec, s_calc, c.mismatch_index)
        converged = max_mis <= NR_TOL
        # A converged row's iterate is its best: every earlier one was above NR_TOL.
        best = max_mis < best_mismatch
        best_mismatch = np.where(best, max_mis, best_mismatch)
        np.copyto(best_voltages, voltages, where=best[:, None])
        if step == NR_MAX_ITER:
            stop(slice(None), np.where(converged, _CONVERGED, _MAX_ITER), step)
            break
        if converged.any():
            stop(converged, _CONVERGED, step)
            if converged.all():
                break

        # Each moving row's Newton step overwrites its mismatch; a row
        # that stopped steps by zero until it leaves the batch below.
        moved = ~converged
        for r in np.flatnonzero(moved).tolist():
            jac = c.flat_jacobian if step == 0 else jacobian(voltages[r], i_bus[r])
            try:
                mis[r] = np.linalg.solve(jac, mis[r])
            except np.linalg.LinAlgError:
                moved[r] = False
                stop(r, _SINGULAR, step)
        if not moved.all():
            mis[~moved] = 0.0
        polar += mis.reshape(len(mis), 2, npq)
        going = moved & np.isfinite(polar).all(axis=(1, 2))
        if not going.all():
            stop(moved & ~going, _NON_FINITE, step + 1)
            if not going.any():
                break
            rows, s_spec, polar, voltages, best_voltages, best_mismatch = (
                a[going] for a in (rows, s_spec, polar, voltages, best_voltages, best_mismatch))
        voltages[:, pq] = _polar(polar[:, 1], polar[:, 0])
        s_calc, i_bus = _power(c.ybus, voltages)

    return final_voltages, iterations, stops, mismatches


def solve_gauss_seidel(net: Network, injections: np.ndarray) -> PowerFlowSolution:
    """Gauss-Seidel power flow: sweep per-bus fixed-point voltage updates.

    Converged means the largest voltage change in a sweep is <= GS_TOL.
    Independent of the Newton path, which makes it a usable oracle.
    """
    c = _compiled(net)
    ybus = c.ybus
    s_spec = np.asarray(injections, dtype=complex)[None]
    c.check_rows(s_spec)
    pq = c.pq.tolist()

    voltages = np.ones(len(c.bus_ids), dtype=complex)
    iterations = 0
    stop = _MAX_ITER

    for _ in range(GS_MAX_ITER):
        max_dv = 0.0
        for i in pq:
            coupled = ybus[i, :] @ voltages - ybus[i, i] * voltages[i]
            updated = (np.conj(s_spec[0, i] / voltages[i]) - coupled) / ybus[i, i]
            max_dv = max(max_dv, abs(updated - voltages[i]))
            voltages[i] = updated
        iterations += 1
        if max_dv <= GS_TOL:
            stop = _CONVERGED
            break
        if not np.all(np.isfinite(voltages)):
            stop = _NON_FINITE
            break

    rows = voltages[None]
    _, max_mis = _mismatch(s_spec, _power(ybus, rows)[0], c.mismatch_index)
    return _finish(c, rows, np.array([iterations]), np.array([stop]), max_mis)[0]
