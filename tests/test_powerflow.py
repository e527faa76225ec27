"""Solver tests: Y-bus assembly, Newton-Raphson against the Gauss-Seidel
oracle, flows, losses."""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
import random
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gridstress import (
    Branch,
    Bus,
    CableType,
    Network,
    branch_flows,
    derive_impedances,
    run_sweep,
    solve_newton_raphson,
)
from gridstress import powerflow as powerflow_module
from gridstress.network import admittance_terms
from gridstress.powerflow import PowerFlowSolution, build_ybus

import helpers
from helpers import (
    bus_vector,
    feeder_days,
    make_radial_network,
    no_load_injections,
    series_losses_pu,
    solve_gauss_seidel,
    two_bus_network,
)

# Reference solution of the two-bus case (slack 1.0 at angle 0, series
# z = 0.01+0.05j pu, load 0.5+0.2j pu), computed beforehand by iterating
# the fixed point V = 1 + z * conj(S/V) to 1e-15.
TWO_BUS_Z = 0.01 + 0.05j
TWO_BUS_LOAD = 0.5 + 0.2j
TWO_BUS_VMAG = 0.9844907599865401
TWO_BUS_VANG = -0.02336445772447334
TWO_BUS_S_FROM = 0.5029920903889411 + 0.214960451944706j
TWO_BUS_LOSS_P = 0.0029920903889411


class TestBuildYbus:
    def test_two_bus_pure_reactance(self):
        net = two_bus_network(0.1j)
        ybus = build_ybus(net)
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.allclose(ybus, expected, atol=1e-9)

    def test_single_bus_no_branches(self):
        net = Network(10.0, (Bus("only", "slack", 4.16),), (), (), {})
        assert np.array_equal(build_ybus(net), np.zeros((1, 1), dtype=complex))

    def test_three_bus_triangle_hand_computed(self):
        # Each branch z = 0.01+0.05j; y = 1/z = 3.846153846... - j19.230769...
        z = 0.01 + 0.05j
        zb = 4.16 * 4.16 / 10.0
        catalog = {"c": CableType("c", z.real * zb, z.imag * zb)}
        buses = (Bus("1", "slack", 4.16), Bus("2", "load", 4.16), Bus("3", "load", 4.16))
        branches = tuple(
            Branch(f, t, "cable", 1000.0, cable_type="c", length_miles=1.0)
            for f, t in (("1", "2"), ("2", "3"), ("1", "3"))
        )
        net = derive_impedances(Network(10.0, buses, branches, (), catalog))
        y = 3.8461538461538454 - 19.23076923076923j
        expected = np.array([
            [2 * y, -y, -y],
            [-y, 2 * y, -y],
            [-y, -y, 2 * y],
        ])
        assert np.allclose(build_ybus(net), expected, rtol=1e-12)

    def test_symmetric_for_unit_tap(self, bench):
        ybus = build_ybus(bench.network)
        assert np.allclose(ybus, ybus.T, rtol=1e-12)

    def test_zero_impedance_is_singular(self):
        net = two_bus_network(0.1j)
        bad = Network(net.s_base_mva, net.buses,
                      (net.branches[0].__class__(**{**net.branches[0].__dict__,
                                                    "series_impedance_pu": 0j}),),
                      (), net.cable_catalog)
        with pytest.raises(ValueError, match="singular"):
            build_ybus(bad)

    def test_compiled_ybus_equals_the_scalar_loop_bit_for_bit(self, bench):
        cases = [bench.network, _reversed_parallel_network()]
        cases += [net for net, _ in _residue_networks()]
        for net in cases:
            net = dataclasses.replace(net)    # a fresh, never-compiled instance
            reference = _scalar_ybus(net).tobytes()
            assert powerflow_module._compiled(net).ybus.tobytes() == reference
            assert build_ybus(net).tobytes() == reference

    def test_compile_takes_each_branch_terms_once(self, bench, monkeypatch):
        net = dataclasses.replace(bench.network)    # a fresh, never-compiled instance
        calls = []
        terms = powerflow_module.admittance_terms

        def counted(branch):
            calls.append(branch)
            return terms(branch)

        monkeypatch.setattr(powerflow_module, "admittance_terms", counted)
        powerflow_module._compiled(net)
        assert calls == list(net.branches)

    def test_compile_raises_at_the_first_bad_branch(self):
        net = _reversed_parallel_network()
        zero, underived = (dataclasses.replace(b, series_impedance_pu=z)
                           for b, z in zip(net.branches[1:3], (0j, None)))
        for branches, message in (
                ((net.branches[0], zero, underived), f"branch {zero.id} has zero impedance"),
                ((net.branches[0], underived, zero), f"branch {underived.id} has no derived")):
            bad = dataclasses.replace(net, branches=branches)
            with pytest.raises(ValueError, match=message):
                solve_newton_raphson(bad, np.zeros(len(bad.buses), dtype=complex))


def _scalar_ybus(net):
    """Reference: each branch's admittance_terms added into a dense matrix
    with scalar +=, one branch at a time, in branch order."""
    index = {bus.id: i for i, bus in enumerate(net.buses)}
    ybus = np.zeros((len(net.buses), len(net.buses)), dtype=complex)
    for branch in net.branches:
        y_ff, y_ft, y_tt = admittance_terms(branch)
        f, t = index[branch.from_bus], index[branch.to_bus]
        ybus[f, f] += y_ff
        ybus[t, t] += y_tt
        ybus[f, t] -= y_ft
        ybus[t, f] -= y_ft
    return ybus


def _reversed_parallel_network():
    """Three buses joined by parallel branches laid both ways (a -> b and
    b -> a) with off-nominal taps, so several terms meet in one entry."""
    net = two_bus_network(0.01 + 0.05j)
    line = net.branches[0]
    buses = (*net.buses, dataclasses.replace(net.buses[1], id="far"))
    branches = tuple(dataclasses.replace(line, from_bus=f, to_bus=t, tap=tap)
                     for f, t, tap in (("source", "load", 1.05), ("load", "source", 0.97),
                                       ("load", "far", 1.0), ("far", "load", 1.1),
                                       ("source", "far", 0.95)))
    return dataclasses.replace(net, buses=buses, branches=branches)


class TestNewtonRaphson:
    def test_no_load_flat(self, bench):
        solution = solve_newton_raphson(bench.network, no_load_injections(bench.network))
        assert solution.converged
        assert solution.iterations == 0
        assert max(abs(v - 1.0) for v in solution.v_mag) <= 1e-10
        assert max(abs(a) for a in solution.v_ang) <= 1e-10
        assert len(solution.s_from) == len(solution.s_to) == len(bench.network.branches)
        for s_from, s_to in zip(solution.s_from, solution.s_to):
            assert abs(s_from) <= 1e-10
            assert abs(s_to) <= 1e-10

    def test_two_bus_matches_fixed_point_oracle(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        assert solution.converged
        assert solution.stop_reason == "converged"
        assert solution.v_mag[1] == pytest.approx(TWO_BUS_VMAG, abs=1e-6)
        assert solution.v_ang[1] == pytest.approx(TWO_BUS_VANG, abs=1e-6)
        assert solution.slack_injection == pytest.approx(TWO_BUS_S_FROM, abs=1e-6)

    def test_benchmark_base_case_no_congestion(self, bench):
        from gridstress import build_injections
        injections = build_injections(bench.network, bench.scenario("base"),
                                      bench.profiles, 36)
        solution = solve_newton_raphson(bench.network, injections)
        assert solution.converged
        assert len(solution.loading_percent) == len(bench.network.branches)
        assert all(loading < 80.0 for loading in solution.loading_percent)

    def test_non_finite_injection_rejected(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match="non-finite"):
            solve_newton_raphson(net, bus_vector(net, {"load": complex(float("nan"), 0.0)}))

    def test_vector_needs_one_entry_per_bus(self):
        net = two_bus_network(TWO_BUS_Z)
        for vector in (np.zeros(1, dtype=complex), np.zeros(3, dtype=complex),
                       np.zeros((2, 1), dtype=complex)):
            with pytest.raises(ValueError, match=r"expected \(2,\), one entry per bus"):
                solve_newton_raphson(net, vector)

    def test_non_finite_vector_entry_names_its_bus(self, bench):
        net = bench.network
        bus_ids = net.bus_ids()
        slack = bus_ids.index(net.slack_id())
        for k, bad in ((len(bus_ids) - 1, complex(float("nan"), 0.0)),
                       ((slack + 5) % len(bus_ids), complex(0.0, float("-inf")))):
            vector = np.zeros(len(bus_ids), dtype=complex)
            vector[k] = bad
            with pytest.raises(ValueError,
                               match=f"^non-finite injection at {re.escape(bus_ids[k])}: "):
                solve_newton_raphson(net, vector)

    def test_vector_slack_entry_must_be_zero(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match="injection at slack bus source must be 0"):
            solve_newton_raphson(net, np.array([0.5 + 0j, -TWO_BUS_LOAD]))

    def test_infeasible_load_reports_divergence(self):
        # Far past the nose of the PV curve: no solution exists.
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": complex(-40.0, -15.0)}))
        assert not solution.converged
        assert solution.max_mismatch > 0.0
        assert len(solution.v_mag) == 2  # best iterate still reported
        # A non-solution carries no branch results.
        assert (solution.branch_ids, solution.branch_kinds, solution.s_from, solution.s_to,
                solution.loading_percent) == ((),) * 5
        assert solution.loading_by_branch() == {}

    def test_deterministic_bit_identical(self, bench):
        from gridstress import build_injections
        injections = build_injections(bench.network, bench.scenario("ev25"),
                                      bench.profiles, 36)
        a = solve_newton_raphson(bench.network, injections)
        b = solve_newton_raphson(bench.network, injections)
        assert a.v_mag == b.v_mag
        assert a.v_ang == b.v_ang
        assert a.slack_injection == b.slack_injection
        assert a.loading_percent == b.loading_percent

    def test_monotone_voltage_drop_with_load(self):
        net = two_bus_network(TWO_BUS_Z)
        previous = float("inf")
        for p in np.linspace(0.0, 1.0, 11):
            solution = solve_newton_raphson(net, bus_vector(net, {"load": complex(-p, 0.0)}))
            assert solution.converged
            if p > 0:
                assert solution.v_mag[1] < previous
            previous = solution.v_mag[1]


class TestGaussSeidel:
    def test_no_load_flat(self, bench):
        solution = solve_gauss_seidel(bench.network, no_load_injections(bench.network))
        assert solution.converged
        assert max(abs(v - 1.0) for v in solution.v_mag) <= 1e-10

    def test_two_bus_reference_values(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_gauss_seidel(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        assert solution.converged
        assert solution.v_mag[1] == pytest.approx(TWO_BUS_VMAG, abs=1e-9)
        assert solution.v_ang[1] == pytest.approx(TWO_BUS_VANG, abs=1e-9)

    def test_agrees_with_newton_on_random_radial(self, rng):
        """A radial network, then tapped and meshed ones: every draw that NR
        solves, Gauss-Seidel solves to the same voltages, and both balance
        the slack against loads plus losses. Draws past the nose curve are
        skipped, as a diverging Gauss-Seidel run takes seconds."""
        cases = [make_radial_network(rng, 5), *_tapped_radial_networks(rng),
                 *_tapped_radial_networks(rng, ties=2)]
        kinds = set()
        for k, (net, injections) in enumerate(cases):
            nr = solve_newton_raphson(net, injections)
            if k and not nr.converged:
                continue
            gs = solve_gauss_seidel(net, injections)
            assert nr.converged and gs.converged
            for vn, vg in zip(nr.v_mag, gs.v_mag):
                assert vn == pytest.approx(vg, abs=1e-6)
            for an, ag in zip(nr.v_ang, gs.v_ang):
                assert an == pytest.approx(ag, abs=1e-6)
            for solution in (nr, gs):
                losses_pu = series_losses_pu(solution)
                assert abs(solution.slack_injection + sum(injections)
                           - losses_pu) <= 1e-6
            kinds.add((any(b.tap != 1.0 for b in net.branches),
                       len(net.branches) >= len(net.buses)))
        assert kinds == {(False, False), (True, False), (False, True), (True, True)}


class TestBranchFlows:
    def test_zero_flow(self):
        net = two_bus_network(TWO_BUS_Z)
        _, _, loading = branch_flows(net, np.array([1 + 0j, 1 + 0j]))
        assert loading == (0.0,)

    def test_loading_is_definitional_at_rating(self):
        # rating 10000 kVA = 1.0 pu on the 10 MVA base; drive exactly
        # 1.0 pu into the from end of a resistive branch (the receiving
        # end then carries less, so the from end sets the loading).
        net = two_bus_network(0.1 + 0j)
        v_from = 1.0 + 0j
        i_line = 1.0 + 0j  # S_from = V * conj(I) = 1.0 pu
        v_to = v_from - 0.1 * i_line
        _, _, loading = branch_flows(net, np.array([v_from, v_to]))
        assert loading == (100.0,)

    def test_voltages_need_one_entry_per_bus(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match=r"shape \(1,\), expected \(2,\)"):
            branch_flows(net, np.array([1 + 0j]))

    def test_two_bus_flow_matches_oracle(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_gauss_seidel(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        assert solution.s_from[0] == pytest.approx(TWO_BUS_S_FROM, abs=1e-8)
        assert solution.s_to[0] == pytest.approx(-TWO_BUS_LOAD, abs=1e-8)


def _scalar_branch_columns(net, voltages):
    """Reference: one branch at a time on Python complex scalars; the
    branch_ids, branch_kinds, s_from, s_to and loading_percent columns."""
    flows = []
    for branch in net.branches:
        y = 1.0 / branch.series_impedance_pu
        tap = branch.tap
        vf = voltages[branch.from_bus]
        vt = voltages[branch.to_bus]
        i_from = (y / tap ** 2) * vf - (y / tap) * vt
        i_to = y * vt - (y / tap) * vf
        s_from = complex(vf * i_from.conjugate())
        s_to = complex(vt * i_to.conjugate())
        rating_pu = branch.rating_kva / (1000.0 * net.s_base_mva)
        loading = float(100.0 * max(abs(s_from), abs(s_to)) / rating_pu)
        flows.append((branch.id, branch.kind, s_from, s_to, loading))
    return tuple(zip(*flows))


def _tapped_radial_networks(rng, count=12, ties=0):
    """Random networks with up to ties tie branches each (radial when 0),
    every other one with off-nominal taps."""
    cases = []
    for k in range(count):
        net, injections = make_radial_network(rng, rng.randrange(2, 25), ties)
        if k % 2:
            net = dataclasses.replace(net, branches=tuple(
                dataclasses.replace(b, tap=rng.uniform(0.9, 1.1)) for b in net.branches))
        cases.append((net, injections))
    return cases


def _solved_cases(bench, rng):
    from gridstress import build_injections
    cases = [(bench.network, build_injections(bench.network, bench.scenario(name),
                                              bench.profiles, 36))
             for name in ("base", "ev25", "ev25_pv")]
    return cases + _tapped_radial_networks(rng)


def _residue_networks():
    """Seeded networks of 2-21 buses, so every n mod 4: for each size one
    radial, one with up to three tie branches and one radial with
    off-nominal taps, each with its injection vector. OpenBLAS zgemm
    rounds the last n mod 4 columns of a product with its own kernel."""
    rng = random.Random(19)
    cases = []
    for n in range(2, 22):
        for ties, tapped in ((0, False), (3, False), (0, True)):
            net, injections = make_radial_network(rng, n, ties)
            if tapped:
                net = dataclasses.replace(net, branches=tuple(
                    dataclasses.replace(b, tap=rng.uniform(0.9, 1.1)) for b in net.branches))
            cases.append((net, injections))
    return cases


def _jacobian_cases(bench, rng):
    cases = _solved_cases(bench, rng) + _residue_networks()
    assert {len(net.buses) % 4 for net, _ in cases} == {0, 1, 2, 3}
    return cases


def _block_jacobian(ybus, pq, voltages):
    """Reference: the polar Jacobian's four blocks cut from the dense
    diagonal products with np.ix_ and assigned one by one."""
    npq = len(pq)
    grid = np.ix_(pq, pq)
    i_bus = ybus @ voltages
    diag_v = np.diag(voltages)
    diag_i = np.diag(i_bus)
    diag_vnorm = np.diag(voltages / np.abs(voltages))
    ds_dva = (1j * diag_v @ np.conj(diag_i - ybus @ diag_v))[grid]
    ds_dvm = (diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm)[grid]
    out = np.empty((2 * npq, 2 * npq))
    out[:npq, :npq] = ds_dva.real
    out[:npq, npq:] = ds_dvm.real
    out[npq:, :npq] = ds_dva.imag
    out[npq:, npq:] = ds_dvm.imag
    return out


class TestBitExactVectorisation:
    def test_branch_flows_equal_scalar_loop(self, bench, rng):
        for net, injections in _solved_cases(bench, rng):
            solution = solve_newton_raphson(net, injections)
            for voltages in ({b: cmath.rect(m, a) for b, m, a in
                              zip(solution.bus_ids, solution.v_mag, solution.v_ang)},
                             {b: complex(rng.uniform(0.8, 1.1), rng.uniform(-0.2, 0.2))
                              for b in solution.bus_ids}):
                vector = np.array([voltages[b] for b in solution.bus_ids])
                assert branch_flows(net, vector) == _scalar_branch_columns(net, voltages)[2:]

    def test_solution_voltages_are_exact_magnitude_and_phase(self, bench, rng, monkeypatch):
        seen = []
        finish = powerflow_module._finish

        def capture(c, voltages, *stop_record):
            seen.append(voltages)
            return finish(c, voltages, *stop_record)

        monkeypatch.setattr(powerflow_module, "_finish", capture)
        converged = 0
        for net, injections in _solved_cases(bench, rng):
            solution = solve_newton_raphson(net, injections)
            (voltages,) = seen[-1].tolist()
            assert solution.v_mag == tuple(abs(v) for v in voltages)
            assert solution.v_ang == tuple(cmath.phase(v) for v in voltages)
            columns = (solution.branch_ids, solution.branch_kinds, solution.s_from,
                       solution.s_to, solution.loading_percent)
            if solution.converged:
                converged += 1
                assert columns == _scalar_branch_columns(
                    net, dict(zip(solution.bus_ids, voltages)))
            else:
                assert columns == ((),) * 5
        assert converged >= 3

    def test_compiled_ybus_is_read_only(self):
        net = two_bus_network(TWO_BUS_Z)
        solve_newton_raphson(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        ybus = powerflow_module._compiled(net).ybus
        assert not ybus.flags.writeable
        with pytest.raises(ValueError):
            ybus[0, 0] = 0j
        assert np.array_equal(ybus, build_ybus(net))

    def test_flat_start_jacobian_is_the_block_assembly(self, bench, rng, monkeypatch):
        """Step 0 of every row of a block solves the flat start's mismatch
        with the flat row's Jacobian, which equals the block assembly at the
        flat start and gives the same step. The compiled form keeps no
        flat-start iterate."""
        assert [f for f in powerflow_module._Compiled._fields if f.startswith("flat")] == []
        solve = np.linalg.solve
        seen = []

        def spy(a, b):
            seen.append((a.copy(), b.copy()))
            return solve(a, b)

        for net, s_spec in _jacobian_cases(bench, rng):
            c = powerflow_module._compiled(net)
            n = len(c.bus_ids)
            flat = np.ones(n, dtype=complex)
            assert flat.tobytes() == powerflow_module._polar(np.ones(n), np.zeros(n)).tobytes()
            block = np.stack([s_spec, 0.5 * s_spec])
            mismatch, largest = powerflow_module._mismatch(
                block, (flat * np.conj(c.ybus @ flat))[None], c.mismatch_index)
            assert (largest > powerflow_module.NR_TOL).all()
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", spy)
                powerflow_module._newton_raphson(net, block)
            reference = _block_jacobian(c.ybus, c.pq, flat)
            assert len(seen) >= 2
            for (jacobian, step_mismatch), expected in zip(seen[:2], mismatch):
                assert np.array_equal(jacobian, reference)
                assert step_mismatch.tobytes() == expected.tobytes()
                _assert_same_step(jacobian, reference, expected)

    def test_solver_gets_each_jacobian_in_column_order(self, bench, monkeypatch):
        """np.linalg.solve gathers a row-ordered matrix into LAPACK's column
        order with a strided copy; each Jacobian, the flat-start one included,
        arrives in column order instead."""
        from gridstress import build_injections
        column_ordered = []
        solve = np.linalg.solve

        def spy(a, b):
            column_ordered.append(a.flags.f_contiguous)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        solution = solve_newton_raphson(bench.network, build_injections(
            bench.network, bench.scenario("ev25"), bench.profiles, 36))
        assert len(column_ordered) == solution.iterations > 1
        assert all(column_ordered)

    def test_gathered_jacobian_and_mismatch_equal_the_block_assembly(self, bench, rng):
        for net, s_spec in _jacobian_cases(bench, rng):
            c = powerflow_module._compiled(net)
            n = len(c.bus_ids)
            # One buffer serves every assembly, as in a solve.
            jacobian = c.jacobian
            out = jacobian.buffer()
            v_mag = np.array([[rng.uniform(0.8, 1.1) for _ in range(n)] for _ in range(3)])
            v_ang = np.array([[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in range(3)])
            voltages = powerflow_module._polar(v_mag, v_ang)
            s_calc, i_bus = powerflow_module._power(c.ybus, voltages)
            mismatch, largest = powerflow_module._mismatch(
                np.tile(s_spec, (3, 1)), s_calc, c.mismatch_index)
            # The three rows are one block, as the rows still iterating are.
            values = jacobian(voltages, i_bus)
            for k, v in enumerate(voltages):
                # Each row's currents round like a matrix-vector product of it alone.
                assert i_bus[k].tobytes() == (c.ybus @ v).tobytes()
                reference = _block_jacobian(c.ybus, c.pq, v)
                assembled = jacobian.assemble(values[k], out)
                assert assembled.flags.f_contiguous
                assert np.array_equal(assembled, reference)
                _assert_same_step(assembled, reference, mismatch[k])
                ds = s_spec - v * np.conj(c.ybus @ v)
                stacked = np.concatenate([ds[c.pq].real, ds[c.pq].imag])
                assert mismatch[k].tobytes() == stacked.tobytes()
                assert largest[k] == float(np.max(np.abs(stacked)))

    def test_sweep_assembles_one_jacobian_per_step_after_the_first(self, bench, monkeypatch):
        from gridstress import scenario as scenario_module
        net = dataclasses.replace(bench.network)    # a fresh, never-compiled instance
        events = []
        assemble = powerflow_module._JacobianWork.__call__
        power = powerflow_module._power
        iterate = powerflow_module._iterate

        def counted(work, voltages, i_bus):
            events.append(("jacobian", len(voltages)))
            return assemble(work, voltages, i_bus)

        def powers(ybus, voltages):
            events.append(("power", len(voltages)))
            return power(ybus, voltages)

        def block(c, s_spec):
            events.append(("block", len(s_spec)))
            return iterate(c, s_spec)

        iterations = []
        solve = scenario_module._newton_raphson

        def batch(net, rows, *args):
            solutions = solve(net, rows, *args)
            iterations.extend(solution.iterations for solution in solutions)
            return solutions

        monkeypatch.setattr(powerflow_module._JacobianWork, "__call__", counted)
        monkeypatch.setattr(powerflow_module, "_power", powers)
        monkeypatch.setattr(powerflow_module, "_iterate", block)
        monkeypatch.setattr(scenario_module, "_newton_raphson", batch)
        for name in ("ev25", "ev25_pv_lm"):
            run_sweep(net, bench.scenario(name), bench.profiles)
        # Compiling the fresh network computes neither; each block starts
        # with one flat row's powers and Jacobian, whatever its number of rows.
        starts = [i for i, (kind, _) in enumerate(events) if kind == "block"]
        assert starts[0] == 0 and len(starts) >= 2
        assert max(events[i][1] for i in starts) > 1
        for i in starts:
            assert events[i + 1:i + 3] == [("power", 1), ("jacobian", 1)]
        # Then one Jacobian per step after a row's first.
        assert sum(iterations) > len(iterations) > 0
        assert sum(rows for kind, rows in events if kind == "jacobian") == (
            len(starts) + sum(its - 1 for its in iterations if its >= 1))

    def test_solves_share_the_compiled_jacobian_index_arrays(self, bench, monkeypatch):
        """A network's one _JacobianWork is built with its compiled form;
        each solve allocates only its own assembly buffer."""
        from gridstress import build_injections
        net = dataclasses.replace(bench.network)    # a fresh, never-compiled instance
        built = []
        init = powerflow_module._JacobianWork.__init__

        def counted(work, ybus, pq):
            built.append(ybus)
            init(work, ybus, pq)

        monkeypatch.setattr(powerflow_module._JacobianWork, "__init__", counted)
        s_spec = build_injections(net, bench.scenario("ev25"), bench.profiles, 36)
        for _ in range(3):
            solve_newton_raphson(net, s_spec)
        assert len(built) == 1

    def test_concurrent_solves_on_one_network_match_serial_ones(self, bench):
        """Null-controller sweeps may run concurrently on one Network: the
        shared compiled form holds no buffer that solves write to."""
        from gridstress import build_injections
        net = dataclasses.replace(bench.network)
        rows = [build_injections(net, bench.scenario(name), bench.profiles, slot)
                for name in ("ev10", "ev25", "ev25_pv") for slot in (30, 36, 44)]
        serial = [repr(solve_newton_raphson(net, s_spec)) for s_spec in rows]
        results: list[tuple[int, str]] = []

        def worker(w: int) -> None:
            # Each worker solves every row, starting at its own.
            for i in range(len(rows)):
                k = (w + i) % len(rows)
                results.append((k, repr(solve_newton_raphson(net, rows[k]))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * len(rows)
        assert [k for k, text in results if text != serial[k]] == []


# SHA-256 over the repr of every solution of _residue_networks at three
# load scales, computed with the dense diagonal-product Jacobian.
RESIDUE_SOLUTIONS_SHA256 = "bb96bbbc0f892d7eaff6121e30e521efa9ae3daa8d415076b401b35ac214424a"


class TestJacobianPattern:
    def test_solutions_on_every_residue_are_pinned(self):
        cases = _residue_networks()
        assert {len(net.buses) % 4 for net, _ in cases} == {0, 1, 2, 3}
        digest = hashlib.sha256()
        stops = set()
        for net, injections in cases:
            for scale in (0.5, 1.0, 3.0):
                solution = solve_newton_raphson(net, scale * injections)
                stops.add(solution.stop_reason)
                digest.update(repr(solution).encode())
        assert stops == {"converged", "max_iter"}
        assert digest.hexdigest() == RESIDUE_SOLUTIONS_SHA256

    @pytest.mark.parametrize("n", range(2, 22))
    def test_diagonal_products_round_like_the_elementwise_forms(self, n):
        """The premise of the elementwise Jacobian: a zgemm product with a
        diagonal matrix rounds like _cmul in its first n - n mod 4 columns
        and like numpy's complex multiply of arrays, left operand first,
        in the last n mod 4. A product of numpy scalars does not fuse, so
        the operands stay arrays."""
        gen = np.random.default_rng(n)
        a = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        b = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        main, tail = slice(n - n % 4), slice(n - n % 4, n)
        left, right = np.diag(a) @ b, b @ np.diag(a)
        assert left[:, tail].tobytes() == (a[:, None] * b[:, tail]).tobytes()
        assert right[:, tail].tobytes() == (b[:, tail] * a[tail]).tobytes()
        cmul = powerflow_module._cmul
        for product, elementwise in ((left, cmul(a[:, None], b)), (right, cmul(b, a))):
            assert product[:, main].tobytes() == elementwise[:, main].tobytes()

    @pytest.mark.parametrize("a_shape, b_shape", [((6, 9), (6, 9)), ((9,), (5, 9))],
                             ids=["equal-shapes", "pattern-times-rows"])
    def test_cmul_rounds_like_a_python_complex_product(self, a_shape, b_shape):
        """Element by element and byte for byte, signed zeros included; the
        second shape is the (entries,) x (rows, entries) broadcast of the
        Jacobian's ybus values against each row's voltages."""
        gen = np.random.default_rng(len(b_shape))

        def draw(shape):
            parts = gen.standard_normal((2, *shape))
            parts[gen.random(parts.shape) < 0.25] = 0.0
            parts[gen.random(parts.shape) < 0.25] = -0.0
            z = np.empty(shape, dtype=complex)
            z.real, z.imag = parts
            return z

        a, b = draw(a_shape), draw(b_shape)
        assert {math.copysign(1.0, x) for x in np.concatenate([a.ravel(), b.ravel()]).view(float)
                if x == 0} == {1.0, -1.0}
        expected = np.array([complex(x) * complex(y) for x, y in
                             zip(*(z.ravel() for z in np.broadcast_arrays(a, b)))])
        product = powerflow_module._cmul(a, b)
        assert product.shape == b_shape
        assert product.tobytes() == expected.reshape(b_shape).tobytes()

    def test_pattern_is_the_pq_block_of_ybus_plus_the_diagonal(self, bench):
        for net, _ in [(bench.network, None)] + _residue_networks():
            c = powerflow_module._compiled(net)
            work = powerflow_module._JacobianWork(c.ybus, c.pq)
            n, npq = len(c.bus_ids), len(c.pq)
            linked = c.ybus != 0
            np.fill_diagonal(linked, True)
            linked[c.slack] = linked[:, c.slack] = False
            rows, columns = (np.concatenate([work.main[k], work.remainder[k]]).tolist()
                             for k in (0, 1))
            # In column order, and exactly the linked PQ pairs.
            assert sorted(zip(columns, rows)) == list(zip(columns, rows))
            assert set(zip(rows, columns)) == set(
                zip(*map(np.ndarray.tolist, np.nonzero(linked))))
            assert (work.main[1] < n - n % 4).all()
            assert (work.remainder[1] >= n - n % 4).all()
            # Each range's ybus values, and its diagonal entries and their bus.
            for r, b, y, diagonal, at in (work.main, work.remainder):
                assert y.tobytes() == c.ybus[r, b].tobytes()
                assert diagonal.tolist() == np.flatnonzero(r == b).tolist()
                assert at.tolist() == r[diagonal].tolist()
            # Four distinct positions per entry, inside the (m, m) Jacobian.
            assert work.size == 2 * npq
            assert work.positions.shape == (4, len(rows))
            assert len(set(work.positions.ravel().tolist())) == work.positions.size
            assert work.positions.min() >= 0 and work.positions.max() < work.size ** 2


def _assert_same_step(jacobian, reference, mismatch):
    """np.linalg.solve gives the same bytes for both matrices, which are
    equal by value and may differ in the sign of a zero entry."""
    assert np.linalg.solve(jacobian, mismatch).tobytes() == (
        np.linalg.solve(reference, mismatch).tobytes())


def _feeder_top_day(seed: int):
    """(network, scenario, profiles) of the top ramp step of a perfbench feeder."""
    net, scenarios, profiles = feeder_days(seed)
    return net, scenarios[-1], profiles


class TestStopReason:
    def test_feeder_top_step_surge_stops_at_max_iter(self):
        result = run_sweep(*_feeder_top_day(1))
        reasons = {r.interval: r.solution.stop_reason for r in result.records}
        assert result.diverged_intervals() == tuple(range(32, 40))
        assert {reasons[k] for k in range(32, 40)} == {"max_iter"}
        assert all(reasons[k] == "converged" for k in reasons if not 32 <= k < 40)
        assert all(r.solution.iterations == powerflow_module.NR_MAX_ITER
                   for r in result.records if 32 <= r.interval < 40)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_feeder_surge_slots_carry_no_branch_and_bin_nothing(self, seed):
        from gridstress import bin_loadings
        net, scenario, profiles = _feeder_top_day(seed)
        result = run_sweep(net, scenario, profiles)
        assert result.diverged_intervals() == tuple(range(32, 40))
        for record in result.records:
            solution = record.solution
            columns = (solution.branch_ids, solution.branch_kinds, solution.s_from,
                       solution.s_to, solution.loading_percent)
            hist = bin_loadings(solution.loading_by_branch())
            if 32 <= record.interval < 40:
                assert columns == ((),) * 5
                assert (hist.below_40, *hist.counts().values()) == (0, 0, 0, 0, 0)
                assert len(solution.v_mag) == len(net.buses)    # the best iterate
            else:
                assert [len(column) for column in columns] == [len(net.branches)] * 5
                assert hist.below_40 + sum(hist.counts().values()) == len(net.branches)

    def test_huge_injection_is_a_non_finite_iterate(self, bench):
        net = bench.network
        bus = min(bus_id for bus_id in net.bus_ids() if bus_id != net.slack_id())
        injections = no_load_injections(net)
        injections[net.bus_ids().index(bus)] = complex(-1e300, 0.0)
        # The overflow is the stop reason: pytest turns a numpy warning into an error.
        solution = solve_newton_raphson(net, injections)
        assert solution.stop_reason == "non_finite"
        assert not solution.converged
        assert solution.iterations >= 1
        assert all(math.isfinite(v) for v in solution.v_mag)   # the best iterate

    def test_singular_jacobian(self):
        # A load bus with no branch has a zero Jacobian row at the flat start.
        isolated = Network(10.0, (Bus("s", "slack", 4.16), Bus("a", "load", 4.16)), (), (), {})
        solution = solve_newton_raphson(isolated, bus_vector(isolated, {"a": -0.1 + 0j}))
        assert (solution.stop_reason, solution.iterations) == ("singular_jacobian", 0)
        assert solution.v_mag == (1.0, 1.0)
        assert solution.max_mismatch == 0.1
        assert solve_newton_raphson(isolated, no_load_injections(isolated)
                                    ).stop_reason == "converged"

    def test_converged_is_derived_from_the_stop_reason(self):
        assert "converged" not in {f.name for f in dataclasses.fields(PowerFlowSolution)}
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        for reason in powerflow_module.STOP_REASONS:
            assert dataclasses.replace(solution, stop_reason=reason).converged == (
                reason == "converged")

    def test_gauss_seidel_records_its_stop(self, monkeypatch):
        net = two_bus_network(TWO_BUS_Z)
        load = bus_vector(net, {"load": -TWO_BUS_LOAD})
        assert solve_gauss_seidel(net, load).stop_reason == "converged"
        monkeypatch.setattr(helpers, "GS_MAX_ITER", 3)
        tight = solve_gauss_seidel(net, load)
        assert (tight.stop_reason, tight.iterations) == ("max_iter", 3)


class TestLockstepBatch:
    """Rows solved together take exactly the steps each takes alone."""

    @staticmethod
    def _rows(net, vector):
        """Rows with mixed outcomes: the draw, no load, the draw 200 times
        over (past the nose) and a 1e300 draw at one bus."""
        huge = np.zeros_like(vector)
        huge[np.flatnonzero(vector)[:1]] = -1e300
        return np.array([vector, np.zeros_like(vector), 200 * vector, huge])

    def test_mixed_outcome_rows_equal_their_batch_of_one_solves(self, bench, rng):
        from gridstress import build_injections
        campus = (bench.network, build_injections(bench.network, bench.scenario("ev25"),
                                                  bench.profiles, 36))
        cases = [campus, *_tapped_radial_networks(rng), *_tapped_radial_networks(rng, ties=3)]
        reasons = set()
        for net, injections in cases:
            rows = self._rows(net, injections)
            batch = powerflow_module._newton_raphson(net, rows)
            assert len(batch) == len(rows)
            for row, solution in zip(rows, batch):
                alone = solve_newton_raphson(net, row)
                assert solution == alone
                assert repr(solution) == repr(alone)
                reasons.add(solution.stop_reason)
        assert {"converged", "max_iter", "non_finite"} <= reasons

    def test_rows_past_one_block_keep_their_order(self, bench):
        from gridstress import build_injections
        net = bench.network
        rows = np.array([build_injections(net, bench.scenario("ev25"), bench.profiles, slot)
                         for slot in range(96)])
        assert len(rows) > powerflow_module._BLOCK_ROWS
        batch = powerflow_module._newton_raphson(net, rows)
        for row, solution in zip(rows, batch):
            assert repr(solution) == repr(solve_newton_raphson(net, row))

    def test_slack_only_network_converges_in_zero_iterations(self):
        net = Network(10.0, (Bus("only", "slack", 4.16),), (), (), {})
        batch = powerflow_module._newton_raphson(net, np.zeros((3, 1), dtype=complex))
        for solution in batch:
            assert (solution.converged, solution.iterations, solution.stop_reason) == (
                True, 0, "converged")
            assert solution.max_mismatch == 0.0
            assert solution.v_mag == (1.0,)
            assert (solution.branch_ids, solution.branch_kinds, solution.s_from,
                    solution.s_to, solution.loading_percent) == ((),) * 5

    def test_empty_batch(self, bench):
        n = len(bench.network.buses)
        assert powerflow_module._newton_raphson(
            bench.network, np.zeros((0, n), dtype=complex)) == []

    def test_a_bad_row_is_named_like_a_single_solve(self):
        net = two_bus_network(TWO_BUS_Z)
        rows = np.array([[0j, -TWO_BUS_LOAD], [0j, complex(float("nan"), 0.0)],
                         [0.5 + 0j, -TWO_BUS_LOAD]])
        with pytest.raises(ValueError, match=r"^non-finite injection at load: \(nan\+0j\)$"):
            powerflow_module._newton_raphson(net, rows)
        with pytest.raises(ValueError, match="injection at slack bus source must be 0"):
            powerflow_module._newton_raphson(net, rows[[0, 2, 1]])


class TestLosses:
    def test_no_load_zero(self, bench):
        solution = solve_newton_raphson(bench.network, no_load_injections(bench.network))
        assert abs(series_losses_pu(solution) * bench.network.s_base_mva) <= 1e-9

    def test_lossless_network_has_zero_active_losses(self):
        net = two_bus_network(0.05j)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": -0.4 - 0.1j}))
        assert solution.converged
        losses_mva = series_losses_pu(solution) * net.s_base_mva
        assert losses_mva.real == pytest.approx(0.0, abs=1e-9 * net.s_base_mva)
        assert losses_mva.imag > 0.0

    def test_two_bus_balance_identity(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        losses_pu = series_losses_pu(solution)
        assert losses_pu.real == pytest.approx(TWO_BUS_LOSS_P, abs=1e-8)
        balance = solution.slack_injection - TWO_BUS_LOAD - losses_pu
        assert abs(balance) <= 1e-6

    def test_power_balance_on_benchmark(self, bench):
        from gridstress import build_injections
        for name in ("base", "ev10", "ev25"):
            injections = build_injections(bench.network, bench.scenario(name),
                                          bench.profiles, 36)
            solution = solve_newton_raphson(bench.network, injections)
            assert solution.converged
            loads = -sum(injections)
            losses_pu = series_losses_pu(solution)
            assert abs(solution.slack_injection - loads - losses_pu) <= 1e-6
            assert losses_pu.real >= -1e-9


class TestSolverOptions:
    def test_benchmark_reference_stops_like_the_default_solver(self):
        """perfbench/feeder.py checks the sweep, which solves with the
        solver's fixed settings, against its own NR run with NR_TOL and
        NR_MAX_ITER."""
        perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
        if perfbench not in sys.path:
            sys.path.insert(0, perfbench)
        import feeder

        assert (feeder.NR_TOL, feeder.NR_MAX_ITER) == (powerflow_module.NR_TOL,
                                                       powerflow_module.NR_MAX_ITER)

    def test_voltage_helpers(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": -TWO_BUS_LOAD}))
        assert solution.bus_ids == ("source", "load")
        assert cmath.rect(solution.v_mag[0], solution.v_ang[0]) == pytest.approx(1.0 + 0j)
        vmin, vmax = solution.voltage_range()
        assert vmin == pytest.approx(TWO_BUS_VMAG, abs=1e-6)
        assert vmax == pytest.approx(1.0)
        assert set(solution.loading_by_branch()) == {"source -> load"}
