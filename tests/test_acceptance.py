"""Acceptance suite: the release gate, one check per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstress import (
    bin_loadings,
    build_injections,
    ev_load_kw,
    normalize_profile,
    run_sweep,
    solve_newton_raphson,
)
from gridstress.benchmark import PARKING_LOTS
from gridstress.fileio import (
    emit_network_file,
    emit_profile_csv,
    emit_report_csv,
    emit_report_json,
    emit_scenario_file,
    parse_network_file,
    parse_profile_csv,
    parse_report_csv,
    parse_report_json,
    parse_scenario_file,
)

from helpers import (SEED, at_or_above_100, make_radial_network, no_load_injections,
                     series_losses_pu, solve_gauss_seidel, stagger_day)


def _report(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")


def _converged_random_cases(count: int = 24):
    """Radial draws where a solution exists; infeasible draws (both
    solvers diverge past the nose curve) are discarded."""
    rng = random.Random(SEED)
    cases = []
    attempts = 0
    while len(cases) < count and attempts < 10 * count:
        attempts += 1
        net, injections = make_radial_network(rng, rng.randrange(3, 11))
        nr = solve_newton_raphson(net, injections)
        gs = solve_gauss_seidel(net, injections)
        if not nr.converged and not gs.converged:
            continue
        cases.append((net, injections, nr, gs))
    return cases


def test_criterion_1_solver_oracle_equivalence():
    started = time.perf_counter()
    cases = _converged_random_cases()
    ok = len(cases) >= 20
    for net, injections, nr, gs in cases:
        ok = ok and nr.converged and gs.converged
        for vn, vg in zip(nr.v_mag, gs.v_mag):
            ok = ok and abs(vn - vg) <= 1e-6
        for an, ag in zip(nr.v_ang, gs.v_ang):
            ok = ok and abs(an - ag) <= 1e-6
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    _report(1, f"NR and Gauss-Seidel agree to 1e-6 on {len(cases)} radial networks "
               f"in {elapsed:.2f}s", ok)
    assert ok


def test_criterion_2_conservation(bench):
    ok = True
    checked = 0
    for net, injections, nr, _ in _converged_random_cases():
        if not nr.converged:
            continue
        loads = -sum(injections)
        losses_pu = series_losses_pu(nr)
        ok = ok and abs(nr.slack_injection - loads - losses_pu) <= 1e-6
        ok = ok and losses_pu.real >= -1e-9
        checked += 1
    for name in ("base", "ev10", "ev25", "ev25_pv"):
        injections = build_injections(bench.network, bench.scenario(name),
                                      bench.profiles, 36)
        solution = solve_newton_raphson(bench.network, injections)
        if not solution.converged:
            continue
        loads = -sum(injections)
        losses_pu = series_losses_pu(solution)
        ok = ok and abs(solution.slack_injection - loads - losses_pu) <= 1e-6
        ok = ok and losses_pu.real >= -1e-9
        checked += 1
    _report(2, f"slack = loads + losses within 1e-6 pu on {checked} converged cases", ok)
    assert ok


def test_criterion_3_flat_no_load_case(bench):
    solution = solve_newton_raphson(bench.network, no_load_injections(bench.network))
    ok = solution.converged
    ok = ok and max(abs(v - 1.0) for v in solution.v_mag) <= 1e-10
    ok = ok and max(abs(a) for a in solution.v_ang) <= 1e-10
    ok = ok and len(solution.s_from) == len(solution.s_to) == len(bench.network.branches)
    for s_from, s_to in zip(solution.s_from, solution.s_to):
        ok = ok and abs(s_from) <= 1e-10 and abs(s_to) <= 1e-10
    _report(3, "no-load fixture is flat: |V|=1, zero flows, within 1e-10", ok)
    assert ok


def test_criterion_4_base_case_calibration(bench):
    injections = build_injections(bench.network, bench.scenario("base"),
                                  bench.profiles, 36)
    solution = solve_newton_raphson(bench.network, injections)
    hist = bin_loadings(solution.loading_by_branch())
    ok = (solution.converged
          and hist.bin_40_80 == 2
          and hist.bin_80_100 == 0
          and at_or_above_100(hist) == 0)
    _report(4, "base case at 09:00: exactly 2 branches in [40,80)%, none above 80%", ok)
    assert ok


def test_criterion_5_trend_reproduction(bench):
    histograms = {}
    ok = True
    for scenario in bench.scenarios:
        started = time.perf_counter()
        result = run_sweep(bench.network, scenario, bench.profiles, intervals=[36])
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 2.0
        record = result.records[0]
        ok = ok and record.solution.converged
        histograms[scenario.name] = bin_loadings(record.solution.loading_by_branch())

    over = {name: at_or_above_100(hist) for name, hist in histograms.items()}
    ok = ok and over["base"] == 0
    ok = ok and over["base"] < over["ev10"] < over["ev25"]
    ok = ok and over["ev25_pv"] < over["ev25"]
    ok = ok and histograms["ev25_pv_lm"].bin_100_150 == 0
    ok = ok and over["ev25_pv_lm"] <= over["ev25_pv"]
    _report(5, "congestion counts at 09:00 follow the study directions "
               f"(>=100%: {over['base']} -> {over['ev10']} -> {over['ev25']}, "
               f"PV {over['ev25_pv']}, PV+LM {over['ev25_pv_lm']} with empty [100,150))",
            ok)
    assert ok


def test_criterion_6_ev_load_formula_exact():
    ok = True
    for lot in PARKING_LOTS:
        ok = ok and ev_load_kw(0.25, lot.capacity, 10.0) == 0.25 * lot.capacity * 10.0
        ok = ok and ev_load_kw(0.10, lot.capacity, 10.0) == 0.10 * lot.capacity * 10.0
    ok = ok and ev_load_kw(0.25, 1370, 10.0) == 3425.0
    ok = ok and ev_load_kw(0.10, 1290, 10.0) == 0.10 * 1290 * 10.0
    _report(6, "EV load = penetration x capacity x 10 kW, exact for all 18 lots", ok)
    assert ok


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
                min_size=1, max_size=200).filter(lambda s: max(s) > 0.0))
def _normalization_property(series):
    profile = normalize_profile(series)
    assert max(profile.coefficients) == 1.0
    assert all(0.0 <= c <= 1.0 for c in profile.coefficients)


def test_criterion_7_normalization_property():
    try:
        _normalization_property()
    except BaseException:
        _report(7, "normalized profiles stay in [0,1] with max exactly 1 (1000 cases)", False)
        raise
    _report(7, "normalized profiles stay in [0,1] with max exactly 1 (1000 cases)", True)


@st.composite
def _demand_tables(draw):
    n_buses = draw(st.integers(min_value=1, max_value=6))
    caps = {
        f"bus-{i}": draw(st.floats(min_value=1.0, max_value=500.0, allow_nan=False))
        for i in range(n_buses)
    }
    n_intervals = draw(st.integers(min_value=1, max_value=12))
    coeffs = draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                 min_size=n_buses, max_size=n_buses),
        min_size=n_intervals, max_size=n_intervals))
    return caps, coeffs


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_demand_tables())
def _stagger_property(table):
    caps, coeffs = table
    demanded = np.array([[caps[bus] * c for bus, c in zip(caps, row)] for row in coeffs])
    # On every prefix of the day: the served rows and the exact unserved
    # kW of the FIFO model, nothing outside the active group, at most the
    # bus's cap inside it.
    stagger_day(caps, demanded, range(len(coeffs)))


def test_criterion_8_stagger_accounting():
    description = ("stagger: served + unserved = demanded exactly, as in the FIFO model; "
                   "each bus serves only in its group, within its cap (500 cases)")
    try:
        _stagger_property()
    except BaseException:
        _report(8, description, False)
        raise
    _report(8, description, True)


def test_criterion_9_round_trips(bench):
    ok = True
    network_text = emit_network_file(bench.network)
    reparsed = parse_network_file(network_text)
    ok = ok and reparsed == bench.network
    ok = ok and emit_network_file(reparsed) == network_text

    for scenario in bench.scenarios:
        text = emit_scenario_file(scenario)
        again = parse_scenario_file(text)
        ok = ok and again == scenario and emit_scenario_file(again) == text

    for profile in bench.profiles.values():
        text = emit_profile_csv(profile)
        again = parse_profile_csv(text, profile.id)
        ok = ok and again == profile and emit_profile_csv(again) == text

    rows = []
    for scenario in bench.scenarios:
        injections = build_injections(bench.network, scenario, bench.profiles, 36)
        solution = solve_newton_raphson(bench.network, injections)
        rows.append((scenario.name, bin_loadings(solution.loading_by_branch())))
    csv_text = emit_report_csv(rows)
    ok = ok and emit_report_csv(parse_report_csv(csv_text)) == csv_text
    json_text = emit_report_json(rows)
    ok = ok and emit_report_json(parse_report_json(json_text)) == json_text

    _report(9, "network, scenario, profile and report files round-trip exactly", ok)
    assert ok
