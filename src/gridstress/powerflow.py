"""AC power-flow solver over the network model.

Solves for bus voltages given per-bus complex power injections, then
computes branch flows and loading percentages against branch ratings.
The solver is full-Jacobian Newton-Raphson in polar form; the tests
cross-check it against a Gauss-Seidel oracle of their own. Every
non-slack bus is a PQ node; PV generation enters as negative load
upstream of this module.

Each Network is compiled into arrays on its first solve, and the
compiled form is kept on the instance. One pass over the branches gives
their end buses and admittance_terms, from which Ybus is summed and the
branch flows are computed; the Jacobian's index arrays come from Ybus.
Solves are pure and deterministic: the same network and injections give
bit-identical solutions. Non-convergence is a reportable outcome, not an
exception, because overload studies intentionally push past
feasibility; each solution records why its iteration stopped
(STOP_REASONS), and an iterate that overflows stops as non_finite rather
than warning. Only a converged solution carries branch results: a
non-solution keeps its best iterate's voltages, iterations and mismatch,
and its branch columns are empty, so it can reach no loading bin and no
report.

Newton-Raphson runs in lockstep over a batch of operating points, one
row of bus-ordered injections each: a sweep solves its distinct rows as
one batch and a single solve is a batch of one, so there is one NR loop.
The mismatch, the stopping and best-iterate bookkeeping, the voltage
update and the bus powers are computed once per step for all rows still
iterating, a row leaves the batch when it stops, and the branch flows of
the converged rows are computed together. Each solution holds them as
columns ordered like net.branches (branch_ids, branch_kinds, s_from,
s_to, loading_percent), Python values taken from the rows of those
arrays, with no object per branch. Rows go through the loop in
blocks of _BLOCK_ROWS, which bounds the memory a batch holds. Each row
keeps the exact steps of a solve of it alone:

- Its Jacobian is built at the pattern of its structural nonzeros only
  (the PQ pairs where Ybus is nonzero, plus the diagonal), as in the
  sparse dSbus_dV of MATPOWER, and each entry rounds like the dense
  products with diagonal matrices that define it. Those products are
  OpenBLAS zgemm calls. Its main kernel rounds each complex product like
  _cmul, which gives the entries in the first n - n mod 4 bus columns;
  its kernel for the last n mod 4 columns uses a fused multiply-add, as
  numpy's complex multiply of arrays does (a product of numpy scalars
  does not fuse), which gives the entries there. Either way one set of
  numpy operations serves every row still iterating. Entries off the
  pattern are +0.0 where the dense products left either zero; the sign
  of a zero entry does not change the solve of a nonsingular Jacobian.
  Each row's values are written into one zeroed buffer and solved on
  their own. The Jacobians are not stacked into one (k, m, m) array for
  a batched solve: every row still needs its own factorisation, and that
  stack measured 0.92-1.07x of solving the rows one by one.
- Bus currents come from np.matmul over the stacked (k, n, 1) columns,
  one matrix-vector product per row, which rounds like ybus @ v. The
  single product ybus @ V.T is a zgemm and rounds differently.

Injections take one form: a complex vector in pu ordered like net.buses
with the slack entry zero, one row of the day matrix a sweep evaluates
(see scenario). Voltages keep the same bus order from the iteration to
branch_flows. The mismatch is gathered from the float view of complex
arrays at compiled indices, and the Jacobian's entries are written at
compiled positions in column order, the layout LAPACK factorises
without a strided copy.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import Network, admittance_terms

# Why an iteration stopped, by code: within tolerance, out of iterations,
# a singular Newton-Raphson Jacobian, or a non-finite iterate.
STOP_REASONS = ("converged", "max_iter", "singular_jacobian", "non_finite")
_CONVERGED, _MAX_ITER, _SINGULAR, _NON_FINITE = range(len(STOP_REASONS))


# Newton-Raphson stops once max(|dP|, |dQ|) <= NR_TOL pu, or after
# NR_MAX_ITER steps.
NR_TOL = 1e-8
NR_MAX_ITER = 30


@dataclass(frozen=True)
class PowerFlowSolution:
    """Solved state for one interval.

    Voltages are per-unit magnitude and radian angle, ordered like
    bus_ids. The branch columns are ordered like the network's branches:
    the complex power entering each branch at its from and to end, in
    pu, and its loading_percent, 100 * max(|s_from|, |s_to|) / rating_pu.
    stop_reason is one of STOP_REASONS; converged is stop_reason ==
    "converged". A solution that did not converge keeps its best iterate's
    voltages but carries no branch: its five branch columns are empty.
    """

    bus_ids: tuple[str, ...]
    v_mag: tuple[float, ...]
    v_ang: tuple[float, ...]
    branch_ids: tuple[str, ...]
    branch_kinds: tuple[str, ...]
    s_from: tuple[complex, ...]
    s_to: tuple[complex, ...]
    loading_percent: tuple[float, ...]
    slack_injection: complex
    iterations: int
    max_mismatch: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def loading_by_branch(self) -> dict[str, float]:
        return dict(zip(self.branch_ids, self.loading_percent))

    def voltage_range(self) -> tuple[float, float]:
        return min(self.v_mag), max(self.v_mag)


def build_ybus(net: Network) -> np.ndarray:
    """Dense bus admittance matrix ordered like net.buses: the sum of the
    admittance_terms of every branch (pi model, taps on the from side)."""
    return _sum_ybus(len(net.buses), *_branch_arrays(net))


def _branch_arrays(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Per branch, in branch order: the positions in net.buses of its from
    and to buses (m, 2), and its admittance_terms y_ff, y_ft, y_tt (m, 3).
    The first branch with no impedance, or a zero one, raises."""
    index = {bus.id: i for i, bus in enumerate(net.buses)}
    ends, terms = [], []
    for branch in net.branches:
        z = branch.series_impedance_pu
        if z is None:
            raise ValueError(f"branch {branch.id} has no derived impedance")
        if z == 0:
            raise ValueError(f"branch {branch.id} has zero impedance (singular)")
        terms.append(admittance_terms(branch))
        ends.append((index[branch.from_bus], index[branch.to_bus]))
    return np.array(ends, dtype=int).reshape(-1, 2), np.array(terms, dtype=complex).reshape(-1, 3)


def _sum_ybus(n: int, ends: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The (n, n) Ybus of the branch arrays, with the bits of a scalar loop
    over the branches: np.add.at adds y_ff at (f, f), y_tt at (t, t), then
    -y_ft at (f, t) and (t, f), branch by branch, and x + (-y) rounds like x - y."""
    (f, t), (y_ff, y_ft, y_tt) = ends.T, terms.T
    ybus = np.zeros((n, n), dtype=complex)
    np.add.at(ybus, (np.stack([f, t, f, t], 1).ravel(), np.stack([f, t, t, f], 1).ravel()),
              np.stack([y_ff, y_tt, -y_ft, -y_ft], 1).ravel())
    return ybus


class _Compiled(NamedTuple):
    """A Network's solver inputs as index arrays, built once per instance.

    mismatch_index holds the flat positions, in the float view of a
    complex bus array, of the real then the imaginary parts of a power
    mismatch at the PQ buses; jacobian computes and assembles the
    Jacobian's values at its structural nonzeros.
    """

    ybus: np.ndarray
    bus_ids: tuple[str, ...]
    slack: int
    pq: np.ndarray
    mismatch_index: np.ndarray
    jacobian: _JacobianWork
    branch_ids: tuple[str, ...]
    branch_kinds: tuple[str, ...]
    near_index: np.ndarray
    far_index: np.ndarray
    y_near: np.ndarray
    y_far: np.ndarray
    rating_pu: np.ndarray

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
    bus_ids = net.bus_ids()
    n = len(bus_ids)
    ends, terms = _branch_arrays(net)
    ybus = _sum_ybus(n, ends, terms)
    ybus.setflags(write=False)
    slack = bus_ids.index(net.slack_id())
    pq = np.array([i for i in range(n) if i != slack], dtype=int)
    # Float view of a complex (n,) array: Re z[i] at 2i, Im z[i] at 2i + 1.
    mismatch_index = np.concatenate([2 * pq, 2 * pq + 1])
    (f, t), (y_ff, y_ft, y_tt) = ends.T, terms.T
    y_near = np.concatenate([y_ff, y_tt])
    y_far = np.concatenate([y_ft, y_ft])
    return _Compiled(
        ybus=ybus,
        bus_ids=bus_ids,
        slack=slack,
        pq=pq,
        mismatch_index=mismatch_index,
        jacobian=_JacobianWork(ybus, pq),
        branch_ids=tuple(b.id for b in net.branches),
        branch_kinds=tuple(b.kind for b in net.branches),
        near_index=np.concatenate([f, t]),
        far_index=np.concatenate([t, f]),
        y_near=np.array([y_near.real, y_near.imag]),
        y_far=np.array([y_far.real, y_far.imag]),
        rating_pu=np.array([b.rating_kva / (1000.0 * net.s_base_mva) for b in net.branches],
                           dtype=float),
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
    """The polar Newton-Raphson Jacobians of one network at its pattern.
    It holds index arrays only, so concurrent solves can share it; each
    solve assembles into a buffer() of its own.

    The pattern is the pairs of PQ buses (row bus a, column bus b) with
    ybus[a, b] != 0 or a == b, one entry of each of the four blocks,
    ordered by column bus, then row bus. positions holds their flat
    positions in the transposed Jacobian, the real angle block's first,
    then the reactive angle, real magnitude and reactive magnitude ones.

    The entries are those of the dense products that define them,
      dS/dangle = 1j * diag(v) @ conj(diag(i) - ybus @ diag(v))
      dS/dmagnitude = diag(v) @ conj(ybus @ diag(vnorm)) + conj(diag(i)) @ diag(vnorm)
    with vnorm = v / |v|, computed elementwise with the same formulas in
    both column ranges: on real and imaginary parts with _cmul in the
    first n - n mod 4 bus columns (the main range) and with numpy's
    complex multiply, left operand first, in the last n mod 4 (the
    remainder), as the module docstring explains.
    """

    def __init__(self, ybus: np.ndarray, pq: np.ndarray):
        npq, n = len(pq), len(ybus)
        self.size = 2 * npq    # the Jacobian's order: two per PQ bus
        linked = ybus[np.ix_(pq, pq)] != 0
        np.fill_diagonal(linked, True)
        j, i = np.nonzero(linked.T)    # by column, then by row
        rows, columns = pq[i], pq[j]
        # Entry (i, j) of the Jacobian is entry (j, i) of its transpose; the
        # angle blocks hold columns j, the magnitude blocks columns npq + j,
        # the real parts rows i and the reactive parts rows npq + i.
        self.positions = 2 * npq * j + i + np.array(
            [[0], [npq], [2 * npq * npq], [2 * npq * npq + npq]])
        main = int(np.count_nonzero(columns < n - n % 4))
        # Per column range, main then remainder: the row and column buses
        # of its entries, their ybus values, and the positions and bus of
        # its diagonal entries.
        ranges = []
        for part in (slice(main), slice(main, None)):
            r, c = rows[part], columns[part]
            diagonal = np.flatnonzero(r == c)
            ranges.append((r, c, ybus[r, c], diagonal, r[diagonal]))
        self.main, self.remainder = ranges

    def __call__(self, voltages: np.ndarray, i_bus: np.ndarray) -> np.ndarray:
        """Per row of voltages (k, n) with bus currents i_bus: the values
        at the pattern's positions, (k, 4, entries)."""
        rows, columns, y, diagonal, at = self.main
        main = len(rows)
        jv = 1j * voltages
        vnorm = voltages / np.abs(voltages)
        values = np.empty((len(voltages), *self.positions.shape))
        # dS/dangle: 1j * v_a * conj(i_a - y v_b), with i_a at the diagonal only.
        v_b = voltages[:, columns]
        yv_re, yv_im = _cmul(y.real, y.imag, v_b.real, v_b.imag)
        d_re, d_im = np.negative(yv_re, out=yv_re), np.negative(yv_im, out=yv_im)
        d_re[:, diagonal] += i_bus.real[:, at]
        d_im[:, diagonal] += i_bus.imag[:, at]
        jv_a = jv[:, rows]
        values[:, 0, :main], values[:, 1, :main] = _cmul(jv_a.real, jv_a.imag, d_re, -d_im)
        # dS/dmagnitude: v_a * conj(y vnorm_b), plus conj(i_a) * vnorm_a at the diagonal.
        vnorm_b = vnorm[:, columns]
        yn_re, yn_im = _cmul(y.real, y.imag, vnorm_b.real, vnorm_b.imag)
        v_a = voltages[:, rows]
        d_re, d_im = _cmul(v_a.real, v_a.imag, yn_re, -yn_im)
        vnorm_a = vnorm[:, at]
        c_re, c_im = _cmul(i_bus.real[:, at], -i_bus.imag[:, at], vnorm_a.real, vnorm_a.imag)
        d_re[:, diagonal] += c_re
        d_im[:, diagonal] += c_im
        values[:, 2, :main], values[:, 3, :main] = d_re, d_im
        rows, columns, y, diagonal, at = self.remainder
        if len(rows):
            # The same formulas on complex arrays.
            d = np.negative(y * voltages[:, columns])
            d[:, diagonal] += i_bus[:, at]
            d_angle = jv[:, rows] * np.conj(d)
            d_mag = voltages[:, rows] * np.conj(y * vnorm[:, columns])
            d_mag[:, diagonal] += np.conj(i_bus[:, at]) * vnorm[:, at]
            values[:, 0, main:], values[:, 1, main:] = d_angle.real, d_angle.imag
            values[:, 2, main:], values[:, 3, main:] = d_mag.real, d_mag.imag
        return values

    def buffer(self) -> np.ndarray:
        """A transposed Jacobian to assemble in; entries off the pattern stay zero."""
        return np.zeros((self.size, self.size))

    def assemble(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The Jacobian of one row's values (4, entries), written into the
        buffer out, in column order: the transpose of out. np.linalg.solve
        hands LAPACK a column-ordered copy of its matrix, which it then
        copies contiguously rather than with a strided gather."""
        out.reshape(-1)[self.positions] = values
        return out.T


def _cmul(a_re: np.ndarray, a_im: np.ndarray, b_re: np.ndarray,
          b_im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise complex product on real and imaginary parts.

    Spelled out because numpy's complex multiply of arrays fuses a
    multiply-add, and so rounds unlike a scalar product and unlike
    zgemm's main kernel; this form rounds like both. It keeps branch
    flows (and every report built from them) bit-identical to a
    per-branch scalar loop, and the Jacobian's main columns to the
    dense products that define them.
    """
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def branch_flows(net: Network, voltages: np.ndarray) -> tuple[tuple, tuple, tuple]:
    """The s_from, s_to and loading_percent columns of the branches at
    voltages, one complex per-unit voltage per bus ordered like net.buses.
    """
    c = _compiled(net)
    voltages = np.asarray(voltages, dtype=complex)
    if voltages.shape != (len(c.bus_ids),):
        raise ValueError(f"voltage vector has shape {voltages.shape}, "
                         f"expected ({len(c.bus_ids)},), one entry per bus")
    s, loading = (a[0].tolist() for a in _branch_flows(c, voltages[None]))
    m = len(c.branch_ids)
    return tuple(s[:m]), tuple(s[m:]), tuple(loading)


def _branch_flows(c: _Compiled, voltages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of voltages (k, n): the complex power entering each branch
    end, from ends then to ends (k, 2m), and each branch's loading (k, m)."""
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
    # The complex s from its parts, signed zeros kept.
    return np.stack((s_re, s_im), axis=-1).view(complex)[..., 0], loading


_NO_FLOWS = dict.fromkeys(("branch_ids", "branch_kinds", "s_from", "s_to", "loading_percent"), ())


def _finish(c: _Compiled, voltages: np.ndarray, iterations: np.ndarray, stops: np.ndarray,
            mismatches: np.ndarray) -> list[PowerFlowSolution]:
    """One solution per row of the C-contiguous voltages (k, n), with its
    stop record; only the converged rows get branch columns."""
    # The slack bus's injection: one dot product per row (over contiguous
    # rows, as in a solve of one), then Python's complex product, which
    # rounds like numpy's scalar one.
    slack_currents = np.matmul(voltages[:, None, :], c.ybus[c.slack][:, None])[:, 0, 0]
    s, loading = _branch_flows(c, voltages[stops == _CONVERGED])
    m = len(c.branch_ids)
    # The branch columns of each converged row, in row order.
    flows = iter([dict(branch_ids=c.branch_ids, branch_kinds=c.branch_kinds, s_from=tuple(z[:m]),
                       s_to=tuple(z[m:]), loading_percent=tuple(percent))
                  for z, percent in zip(s.tolist(), loading.tolist())])
    return [
        PowerFlowSolution(
            bus_ids=c.bus_ids,
            v_mag=tuple(v_mag),
            v_ang=tuple(map(cmath.phase, v)),
            **(next(flows) if stop == _CONVERGED else _NO_FLOWS),
            slack_injection=v[c.slack] * i_slack.conjugate(),
            iterations=its,
            max_mismatch=mismatch,
            stop_reason=STOP_REASONS[stop],
        )
        for v, v_mag, i_slack, its, stop, mismatch in zip(
            voltages.tolist(), np.hypot(voltages.real, voltages.imag).tolist(),
            slack_currents.tolist(), iterations.tolist(), stops.tolist(), mismatches.tolist())
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


# An iterate that overflows is a stop reason (non_finite), not a warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _iterate(c: _Compiled, s_spec: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Newton-Raphson steps of every row of s_spec (k, n); returns, per
    row, the voltages it reports, its step count, stop code and mismatch.

    Every row starts flat (1.0 per unit, zero angle), so step 0 computes
    the bus powers and Jacobian of one flat row for all of them. Each row
    stops on its own: converged, after NR_MAX_ITER steps, at a singular
    Jacobian (not counted as a step) or at a non-finite iterate (counted).
    A converged row reports its last iterate; any other its best one, the
    smallest mismatch seen.
    """
    k, n = s_spec.shape
    pq, npq = c.pq, len(c.pq)
    jacobian, out = c.jacobian, c.jacobian.buffer()

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
    voltages = np.ones((k, n), dtype=complex)
    best_voltages = voltages.copy()
    best_mismatch = np.full(k, np.inf)
    # The flat row's powers broadcast over the rows in step 0's mismatch.
    s_calc, i_bus = _power(c.ybus, voltages[:1])
    flat_jacobian = jacobian.assemble(jacobian(voltages[:1], i_bus)[0], out)

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

        # Each moving row's Newton step overwrites its mismatch; a row that
        # did not move (converged or singular) has reported and leaves the batch below.
        moved = ~converged
        moving = np.flatnonzero(moved)
        if step:
            values = jacobian(voltages[moving], i_bus[moving])
        for t, r in enumerate(moving.tolist()):
            jac = jacobian.assemble(values[t], out) if step else flat_jacobian
            try:
                mis[r] = np.linalg.solve(jac, mis[r])
            except np.linalg.LinAlgError:
                moved[r] = False
                stop(r, _SINGULAR, step)
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
