"""Solver tests: Y-bus assembly, the two independent solvers, flows, losses."""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np
import pytest

from gridstress import (
    Branch,
    Bus,
    CableType,
    Network,
    branch_flows,
    build_ybus,
    derive_impedances,
    solve_gauss_seidel,
    solve_newton_raphson,
    total_losses,
)
from gridstress import powerflow as powerflow_module
from gridstress.powerflow import BranchFlow, SolverOptions

from helpers import make_radial_network, two_bus_network

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


def _no_load_injections(net):
    return {bus_id: 0j for bus_id in net.non_slack_ids()}


class TestNewtonRaphson:
    def test_no_load_flat(self, bench):
        solution = solve_newton_raphson(bench.network, _no_load_injections(bench.network))
        assert solution.converged
        assert solution.iterations == 0
        assert max(abs(v - 1.0) for v in solution.v_mag) <= 1e-10
        assert max(abs(a) for a in solution.v_ang) <= 1e-10
        for flow in solution.branch_flows:
            assert abs(flow.s_from) <= 1e-10
            assert abs(flow.s_to) <= 1e-10

    def test_two_bus_matches_fixed_point_oracle(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, {"load": -TWO_BUS_LOAD})
        assert solution.converged
        assert solution.v_mag[1] == pytest.approx(TWO_BUS_VMAG, abs=1e-6)
        assert solution.v_ang[1] == pytest.approx(TWO_BUS_VANG, abs=1e-6)
        assert solution.slack_injection == pytest.approx(TWO_BUS_S_FROM, abs=1e-6)

    def test_benchmark_base_case_no_congestion(self, bench):
        from gridstress import build_injections
        injections = build_injections(bench.network, bench.scenario("base"),
                                      bench.profiles, 36)
        solution = solve_newton_raphson(bench.network, injections)
        assert solution.converged
        assert all(f.loading_percent < 80.0 for f in solution.branch_flows)

    def test_missing_injection_rejected(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match="missing injections"):
            solve_newton_raphson(net, {})

    def test_unknown_injection_rejected(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match="unexpected"):
            solve_newton_raphson(net, {"load": 0j, "ghost": 0j})

    def test_non_finite_injection_rejected(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match="non-finite"):
            solve_newton_raphson(net, {"load": complex(float("nan"), 0.0)})

    def test_infeasible_load_reports_divergence(self):
        # Far past the nose of the PV curve: no solution exists.
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, {"load": complex(-40.0, -15.0)})
        assert not solution.converged
        assert solution.max_mismatch > 0.0
        assert len(solution.v_mag) == 2  # best iterate still reported

    def test_deterministic_bit_identical(self, bench):
        from gridstress import build_injections
        injections = build_injections(bench.network, bench.scenario("ev25"),
                                      bench.profiles, 36)
        a = solve_newton_raphson(bench.network, injections)
        b = solve_newton_raphson(bench.network, injections)
        assert a.v_mag == b.v_mag
        assert a.v_ang == b.v_ang
        assert a.slack_injection == b.slack_injection
        assert [f.loading_percent for f in a.branch_flows] == \
               [f.loading_percent for f in b.branch_flows]

    def test_monotone_voltage_drop_with_load(self):
        net = two_bus_network(TWO_BUS_Z)
        previous = float("inf")
        for p in np.linspace(0.0, 1.0, 11):
            solution = solve_newton_raphson(net, {"load": complex(-p, 0.0)})
            assert solution.converged
            if p > 0:
                assert solution.v_mag[1] < previous
            previous = solution.v_mag[1]


class TestGaussSeidel:
    def test_no_load_flat(self, bench):
        solution = solve_gauss_seidel(bench.network, _no_load_injections(bench.network))
        assert solution.converged
        assert max(abs(v - 1.0) for v in solution.v_mag) <= 1e-10

    def test_two_bus_reference_values(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_gauss_seidel(net, {"load": -TWO_BUS_LOAD})
        assert solution.converged
        assert solution.v_mag[1] == pytest.approx(TWO_BUS_VMAG, abs=1e-9)
        assert solution.v_ang[1] == pytest.approx(TWO_BUS_VANG, abs=1e-9)

    def test_agrees_with_newton_on_random_radial(self, rng):
        net, injections = make_radial_network(rng, 5)
        nr = solve_newton_raphson(net, injections)
        gs = solve_gauss_seidel(net, injections)
        assert nr.converged and gs.converged
        for vn, vg in zip(nr.v_mag, gs.v_mag):
            assert vn == pytest.approx(vg, abs=1e-6)
        for an, ag in zip(nr.v_ang, gs.v_ang):
            assert an == pytest.approx(ag, abs=1e-6)


class TestBranchFlows:
    def test_zero_flow(self):
        net = two_bus_network(TWO_BUS_Z)
        flows = branch_flows(net, {"source": 1 + 0j, "load": 1 + 0j})
        assert flows[0].loading_percent == 0.0

    def test_loading_is_definitional_at_rating(self):
        # rating 10000 kVA = 1.0 pu on the 10 MVA base; drive exactly
        # 1.0 pu into the from end of a resistive branch (the receiving
        # end then carries less, so the from end sets the loading).
        net = two_bus_network(0.1 + 0j)
        v_from = 1.0 + 0j
        i_line = 1.0 + 0j  # S_from = V * conj(I) = 1.0 pu
        v_to = v_from - 0.1 * i_line
        flows = branch_flows(net, {"source": v_from, "load": v_to})
        assert flows[0].loading_percent == 100.0

    def test_two_bus_flow_matches_oracle(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_gauss_seidel(net, {"load": -TWO_BUS_LOAD})
        flow = solution.branch_flows[0]
        assert flow.s_from == pytest.approx(TWO_BUS_S_FROM, abs=1e-8)
        assert flow.s_to == pytest.approx(-TWO_BUS_LOAD, abs=1e-8)


def _scalar_branch_flows(net, voltages):
    """Reference: one branch at a time on Python complex scalars."""
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
        flows.append(BranchFlow(branch.id, branch.kind, s_from, s_to, loading))
    return tuple(flows)


def _tapped_radial_networks(rng, count=12):
    """Random radial networks, every other one with off-nominal taps."""
    cases = []
    for k in range(count):
        net, injections = make_radial_network(rng, rng.randrange(2, 25))
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


class TestBitExactVectorisation:
    def test_branch_flows_equal_scalar_loop(self, bench, rng):
        for net, injections in _solved_cases(bench, rng):
            solution = solve_newton_raphson(net, injections)
            for voltages in (solution.voltages(),
                             {b: complex(rng.uniform(0.8, 1.1), rng.uniform(-0.2, 0.2))
                              for b in solution.bus_ids}):
                assert branch_flows(net, voltages) == _scalar_branch_flows(net, voltages)

    def test_solution_voltages_are_exact_magnitude_and_phase(self, bench, rng, monkeypatch):
        seen = []

        def capture(net, voltages):
            seen.append(voltages)
            return branch_flows(net, voltages)

        monkeypatch.setattr(powerflow_module, "branch_flows", capture)
        for net, injections in _solved_cases(bench, rng):
            solution = solve_newton_raphson(net, injections)
            voltages = [seen[-1][b] for b in solution.bus_ids]
            assert solution.v_mag == tuple(abs(v) for v in voltages)
            assert solution.v_ang == tuple(cmath.phase(v) for v in voltages)
            assert solution.branch_flows == _scalar_branch_flows(net, seen[-1])

    def test_compiled_ybus_is_read_only(self):
        net = two_bus_network(TWO_BUS_Z)
        solve_newton_raphson(net, {"load": -TWO_BUS_LOAD})
        ybus = powerflow_module._compiled(net).ybus
        assert not ybus.flags.writeable
        with pytest.raises(ValueError):
            ybus[0, 0] = 0j
        assert np.array_equal(ybus, build_ybus(net))


class TestLosses:
    def test_no_load_zero(self, bench):
        solution = solve_newton_raphson(bench.network, _no_load_injections(bench.network))
        assert abs(total_losses(bench.network, solution)) <= 1e-9

    def test_lossless_network_has_zero_active_losses(self):
        net = two_bus_network(0.05j)
        solution = solve_newton_raphson(net, {"load": -0.4 - 0.1j})
        assert solution.converged
        losses_mva = total_losses(net, solution)
        assert losses_mva.real == pytest.approx(0.0, abs=1e-9 * net.s_base_mva)
        assert losses_mva.imag > 0.0

    def test_two_bus_balance_identity(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, {"load": -TWO_BUS_LOAD})
        losses_pu = total_losses(net, solution) / net.s_base_mva
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
            loads = -sum(injections.values())
            losses_pu = total_losses(bench.network, solution) / bench.network.s_base_mva
            assert abs(solution.slack_injection - loads - losses_pu) <= 1e-6
            assert losses_pu.real >= -1e-9


class TestSolverOptions:
    def test_tight_iteration_budget_reports_divergence(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, {"load": -TWO_BUS_LOAD},
                                        SolverOptions(tol=1e-12, max_iter=1))
        assert not solution.converged
        assert solution.iterations == 1

    def test_voltage_helpers(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, {"load": -TWO_BUS_LOAD})
        assert solution.voltage("source") == pytest.approx(1.0 + 0j)
        vmin, vmax = solution.voltage_range()
        assert vmin == pytest.approx(TWO_BUS_VMAG, abs=1e-6)
        assert vmax == pytest.approx(1.0)
        assert set(solution.voltages()) == {"source", "load"}
        assert set(solution.loading_by_branch()) == {"source -> load"}
