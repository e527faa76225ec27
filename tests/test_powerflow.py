"""Solver tests: Y-bus assembly, the two independent solvers, flows, losses."""

from __future__ import annotations

import cmath
import dataclasses
import math
import re
import sys
from pathlib import Path

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

from helpers import make_radial_network, no_load_injections, two_bus_network

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


class TestNewtonRaphson:
    def test_no_load_flat(self, bench):
        solution = solve_newton_raphson(bench.network, no_load_injections(bench.network))
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
        solution = solve_gauss_seidel(bench.network, no_load_injections(bench.network))
        assert solution.converged
        assert max(abs(v - 1.0) for v in solution.v_mag) <= 1e-10

    def test_two_bus_reference_values(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_gauss_seidel(net, {"load": -TWO_BUS_LOAD})
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
                losses_pu = total_losses(net, solution) / net.s_base_mva
                assert abs(solution.slack_injection + sum(injections.values())
                           - losses_pu) <= 1e-6
            kinds.add((any(b.tap != 1.0 for b in net.branches),
                       len(net.branches) >= len(net.buses)))
        assert kinds == {(False, False), (True, False), (False, True), (True, True)}


class TestBranchFlows:
    def test_zero_flow(self):
        net = two_bus_network(TWO_BUS_Z)
        flows = branch_flows(net, np.array([1 + 0j, 1 + 0j]))
        assert flows[0].loading_percent == 0.0

    def test_loading_is_definitional_at_rating(self):
        # rating 10000 kVA = 1.0 pu on the 10 MVA base; drive exactly
        # 1.0 pu into the from end of a resistive branch (the receiving
        # end then carries less, so the from end sets the loading).
        net = two_bus_network(0.1 + 0j)
        v_from = 1.0 + 0j
        i_line = 1.0 + 0j  # S_from = V * conj(I) = 1.0 pu
        v_to = v_from - 0.1 * i_line
        flows = branch_flows(net, np.array([v_from, v_to]))
        assert flows[0].loading_percent == 100.0

    def test_voltages_need_one_entry_per_bus(self):
        net = two_bus_network(TWO_BUS_Z)
        with pytest.raises(ValueError, match=r"shape \(1,\), expected \(2,\)"):
            branch_flows(net, np.array([1 + 0j]))

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
                assert branch_flows(net, vector) == _scalar_branch_flows(net, voltages)

    def test_solution_voltages_are_exact_magnitude_and_phase(self, bench, rng, monkeypatch):
        seen = []
        flows = powerflow_module._branch_flows

        def capture(c, voltages):
            seen.append(voltages)
            return flows(c, voltages)

        monkeypatch.setattr(powerflow_module, "_branch_flows", capture)
        for net, injections in _solved_cases(bench, rng):
            solution = solve_newton_raphson(net, injections)
            (voltages,) = seen[-1].tolist()
            assert solution.v_mag == tuple(abs(v) for v in voltages)
            assert solution.v_ang == tuple(cmath.phase(v) for v in voltages)
            assert solution.branch_flows == _scalar_branch_flows(
                net, dict(zip(solution.bus_ids, voltages)))

    def test_compiled_ybus_is_read_only(self):
        net = two_bus_network(TWO_BUS_Z)
        solve_newton_raphson(net, {"load": -TWO_BUS_LOAD})
        ybus = powerflow_module._compiled(net).ybus
        assert not ybus.flags.writeable
        with pytest.raises(ValueError):
            ybus[0, 0] = 0j
        assert np.array_equal(ybus, build_ybus(net))

    def test_compiled_flat_jacobian_is_the_flat_start_assembly(self, bench, rng):
        for net, _ in _solved_cases(bench, rng):
            c = powerflow_module._compiled(net)
            n = len(c.bus_ids)
            flat = powerflow_module._polar(np.ones(n), np.zeros(n))
            assert c.flat_voltages.tobytes() == flat.tobytes()
            assert c.flat_power.tobytes() == (flat * np.conj(c.ybus @ flat)).tobytes()
            assert c.flat_jacobian.tobytes() == _block_jacobian(c.ybus, c.pq, flat).tobytes()
            for array in (c.flat_voltages, c.flat_power, c.flat_jacobian):
                assert not array.flags.writeable

    def test_vector_and_mapping_give_the_same_solution(self, bench, rng):
        cases = _solved_cases(bench, rng) + _tapped_radial_networks(rng, count=6, ties=3)
        for net, injections in cases:
            vector = np.array([injections.get(b, 0j) for b in net.bus_ids()])
            by_mapping = solve_newton_raphson(net, injections)
            by_vector = solve_newton_raphson(net, vector)
            assert by_vector == by_mapping
            assert repr(by_vector) == repr(by_mapping)

    def test_gathered_jacobian_and_mismatch_equal_the_block_assembly(self, bench, rng):
        for net, injections in _solved_cases(bench, rng):
            c = powerflow_module._compiled(net)
            s_spec = c.injection_vector(injections)
            n = len(c.bus_ids)
            # One set of buffers serves every assembly, as in a solve.
            assemble = powerflow_module._JacobianWork(c.ybus, c.jacobian_index)
            v_mag = np.array([[rng.uniform(0.8, 1.1) for _ in range(n)] for _ in range(3)])
            v_ang = np.array([[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in range(3)])
            voltages = powerflow_module._polar(v_mag, v_ang)
            s_calc, i_bus = powerflow_module._power(c.ybus, voltages)
            mismatch, largest = powerflow_module._mismatch(
                np.tile(s_spec, (3, 1)), s_calc, c.mismatch_index)
            for k, v in enumerate(voltages):
                # Each row's currents round like a matrix-vector product of it alone.
                assert i_bus[k].tobytes() == (c.ybus @ v).tobytes()
                gathered = assemble(v, i_bus[k])
                assert gathered.tobytes() == _block_jacobian(c.ybus, c.pq, v).tobytes()
                ds = s_spec - v * np.conj(c.ybus @ v)
                stacked = np.concatenate([ds[c.pq].real, ds[c.pq].imag])
                assert mismatch[k].tobytes() == stacked.tobytes()
                assert largest[k] == float(np.max(np.abs(stacked)))

    def test_sweep_assembles_one_jacobian_per_step_after_the_first(self, bench, monkeypatch):
        from gridstress import run_sweep
        from gridstress import scenario as scenario_module
        net = dataclasses.replace(bench.network)    # a fresh, never-compiled instance
        assembled = []
        assemble = powerflow_module._JacobianWork.__call__

        def counted(*args):
            assembled.append(1)
            return assemble(*args)

        iterations = []
        solve = scenario_module._newton_raphson

        def batch(net, rows, *args):
            solutions = solve(net, rows, *args)
            iterations.extend(solution.iterations for solution in solutions)
            return solutions

        monkeypatch.setattr(powerflow_module._JacobianWork, "__call__", counted)
        monkeypatch.setattr(scenario_module, "_newton_raphson", batch)
        for name in ("ev25", "ev25_pv_lm"):
            run_sweep(net, bench.scenario(name), bench.profiles)
        # One flat-start Jacobian at compile time, then one per step after
        # a row's first.
        assert sum(iterations) > len(iterations) > 0
        assert len(assembled) == 1 + sum(its - 1 for its in iterations if its >= 1)


def _feeder_top_day(seed: int):
    """(network, scenario, profiles) of the top ramp step of a perfbench feeder."""
    import gridstress
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import feeder

    net, scenarios, profiles = feeder.to_program_inputs(feeder.generate(seed), gridstress)
    return net, scenarios[-1], profiles


class TestStopReason:
    def test_feeder_top_step_surge_stops_at_max_iter(self):
        from gridstress import run_sweep
        result = run_sweep(*_feeder_top_day(1))
        reasons = {r.interval: r.solution.stop_reason for r in result.records}
        assert result.diverged_intervals() == tuple(range(32, 40))
        assert {reasons[k] for k in range(32, 40)} == {"max_iter"}
        assert all(reasons[k] == "converged" for k in reasons if not 32 <= k < 40)
        assert all(r.solution.iterations == SolverOptions().max_iter
                   for r in result.records if 32 <= r.interval < 40)

    def test_huge_injection_is_a_non_finite_iterate(self, bench):
        net = bench.network
        injections = no_load_injections(net)
        injections[sorted(injections)[0]] = complex(-1e300, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            solution = solve_newton_raphson(net, injections)
        assert solution.stop_reason == "non_finite"
        assert not solution.converged
        assert solution.iterations >= 1
        assert all(math.isfinite(v) for v in solution.v_mag)   # the best iterate

    def test_singular_jacobian(self):
        # A load bus with no branch has a zero Jacobian row at the flat start.
        isolated = Network(10.0, (Bus("s", "slack", 4.16), Bus("a", "load", 4.16)), (), (), {})
        solution = solve_newton_raphson(isolated, {"a": -0.1 + 0j})
        assert (solution.stop_reason, solution.iterations) == ("singular_jacobian", 0)
        assert solution.v_mag == (1.0, 1.0)
        assert solution.max_mismatch == 0.1
        assert solve_newton_raphson(isolated, {"a": 0j}).stop_reason == "converged"

    def test_gauss_seidel_records_its_stop(self):
        net = two_bus_network(TWO_BUS_Z)
        load = {"load": -TWO_BUS_LOAD}
        assert solve_gauss_seidel(net, load).stop_reason == "converged"
        tight = solve_gauss_seidel(net, load, SolverOptions(tol=1e-10, max_iter=3))
        assert (tight.stop_reason, tight.iterations) == ("max_iter", 3)


class TestLockstepBatch:
    """Rows solved together take exactly the steps each takes alone."""

    @staticmethod
    def _rows(net, injections):
        """Rows with mixed outcomes: the draw, no load, the draw 200 times
        over (past the nose) and a 1e300 draw at one bus."""
        vector = np.array([injections.get(b, 0j) for b in net.bus_ids()])
        huge = np.zeros_like(vector)
        huge[np.flatnonzero(vector)[:1]] = -1e300
        return np.array([vector, np.zeros_like(vector), 200 * vector, huge])

    def test_mixed_outcome_rows_equal_their_batch_of_one_solves(self, bench, rng):
        from gridstress import build_injections
        campus = (bench.network, build_injections(bench.network, bench.scenario("ev25"),
                                                  bench.profiles, 36))
        cases = [campus, *_tapped_radial_networks(rng), *_tapped_radial_networks(rng, ties=3)]
        reasons = set()
        with np.errstate(over="ignore", invalid="ignore"):
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
        c = powerflow_module._compiled(net)
        rows = np.array([c.injection_vector(build_injections(net, bench.scenario("ev25"),
                                                             bench.profiles, slot))
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
            assert solution.branch_flows == ()

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
        assert solution.stop_reason == "max_iter"

    def test_benchmark_reference_stops_like_the_default_solver(self):
        """perfbench/feeder.py checks the sweep, which solves with the
        defaults, against its own NR run with NR_TOL and NR_MAX_ITER."""
        perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
        if perfbench not in sys.path:
            sys.path.insert(0, perfbench)
        import feeder

        defaults = SolverOptions()
        assert (feeder.NR_TOL, feeder.NR_MAX_ITER) == (defaults.tol, defaults.max_iter)

    def test_voltage_helpers(self):
        net = two_bus_network(TWO_BUS_Z)
        solution = solve_newton_raphson(net, {"load": -TWO_BUS_LOAD})
        assert solution.bus_ids == ("source", "load")
        assert cmath.rect(solution.v_mag[0], solution.v_ang[0]) == pytest.approx(1.0 + 0j)
        vmin, vmax = solution.voltage_range()
        assert vmin == pytest.approx(TWO_BUS_VMAG, abs=1e-6)
        assert vmax == pytest.approx(1.0)
        assert set(solution.loading_by_branch()) == {"source -> load"}
