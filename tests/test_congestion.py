"""Loading bins, congested-element listing, scenario comparison."""

from __future__ import annotations

import pytest

from gridstress import (
    CongestionHistogram,
    bin_loadings,
    compare_scenarios,
    congested_elements,
    solve_newton_raphson,
)
from gridstress.congestion import ComparisonError, bin_label

from helpers import two_bus_network


class TestBinLoadings:
    def test_single_branch_in_80_100(self):
        hist = bin_loadings([85.0])
        assert hist.counts() == {"40-80": 0, "80-100": 1, "100-150": 0, ">150": 0}
        assert hist.below_40 == 0

    def test_left_inclusive_boundary(self):
        hist = bin_loadings([39.9, 40.0])
        assert hist.below_40 == 1
        assert hist.bin_40_80 == 1

    def test_all_boundaries(self):
        assert bin_label(0.0) == "<40"
        assert bin_label(40.0) == "40-80"
        assert bin_label(80.0) == "80-100"
        assert bin_label(100.0) == "100-150"
        assert bin_label(150.0) == ">150"
        assert bin_label(1e9) == ">150"

    def test_negative_loading_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            bin_loadings([-1.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loading_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            bin_label(value)
        with pytest.raises(ValueError, match="finite"):
            bin_loadings([value])

    def test_named_input_preserves_assignments(self):
        hist = bin_loadings({"tx": 120.0, "line": 12.0})
        assert hist.branch_bins == {"tx": "100-150", "line": "<40"}

    def test_permutation_invariant(self, rng):
        values = [rng.uniform(0.0, 200.0) for _ in range(60)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert bin_loadings(values).counts() == bin_loadings(shuffled).counts()

    def test_partition_conserves_totals(self, rng):
        values = [rng.uniform(0.0, 300.0) for _ in range(200)]
        hist = bin_loadings(values)
        assert hist.total_rated_branches() == len(values)

    def test_from_counts_round_trip(self):
        counts = {"40-80": 9, "80-100": 4, "100-150": 10, ">150": 8}
        hist = CongestionHistogram.from_counts(counts)
        assert hist.counts() == counts
        with pytest.raises(ValueError, match="unknown bin"):
            CongestionHistogram.from_counts({"0-40": 1})


class TestCongestedElements:
    def test_no_load_empty(self, bench):
        solution = solve_newton_raphson(
            bench.network, {b: 0j for b in bench.network.non_slack_ids()})
        assert congested_elements(solution, 100.0) == []

    def test_sorted_descending_above_threshold(self):
        net = two_bus_network(0.02 + 0.05j, rating_kva=10000.0)
        solution = solve_newton_raphson(net, {"load": -1.2 - 0.2j})
        listed = congested_elements(solution, 100.0)
        assert [branch for branch, _ in listed] == ["source -> load"]
        assert listed[0][1] >= 100.0
        assert congested_elements(solution, 1000.0) == []

    def test_threshold_must_be_positive(self, bench):
        solution = solve_newton_raphson(
            bench.network, {b: 0j for b in bench.network.non_slack_ids()})
        with pytest.raises(ValueError, match="threshold"):
            congested_elements(solution, 0.0)

    def test_benchmark_ev10_includes_a_transformer(self, bench):
        from gridstress import build_injections
        solution = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, bench.scenario("ev10"), bench.profiles, 36))
        listed = congested_elements(solution, 100.0)
        assert listed
        kinds = {f.branch_id: f.kind for f in solution.branch_flows}
        assert any(kinds[branch] == "transformer" for branch, _ in listed)


class TestCompareScenarios:
    def test_identical_histograms(self):
        hist = bin_loadings({"a": 50.0, "b": 110.0})
        comparison = compare_scenarios(hist, hist)
        assert all(delta == 0 for delta in comparison.deltas.values())
        assert comparison.changed_branches == ()

    def test_reported_fleet_growth_rows(self):
        # Previously published study rows: no-EV grid vs 10% EV fleet.
        current = CongestionHistogram.from_counts({"40-80": 2})
        ten_percent = CongestionHistogram.from_counts(
            {"40-80": 16, "80-100": 3, "100-150": 2})
        comparison = compare_scenarios(current, ten_percent)
        assert comparison.deltas["40-80"] == 14
        assert comparison.deltas["80-100"] == 3
        assert comparison.deltas["100-150"] == 2
        assert comparison.deltas[">150"] == 0

    def test_changed_branches_listed(self):
        a = bin_loadings({"tx": 95.0, "line": 30.0})
        b = bin_loadings({"tx": 120.0, "line": 30.0})
        comparison = compare_scenarios(a, b)
        assert comparison.changed_branches == (("tx", "80-100", "100-150"),)

    def test_mismatched_branch_sets_rejected(self):
        a = bin_loadings({"x": 50.0})
        b = bin_loadings({"y": 50.0})
        with pytest.raises(ComparisonError, match="branch sets differ"):
            compare_scenarios(a, b)

    def test_detail_and_count_only_mix_rejected(self):
        a = bin_loadings({"x": 50.0})
        b = CongestionHistogram.from_counts({"40-80": 1})
        with pytest.raises(ComparisonError, match="detail"):
            compare_scenarios(a, b)

    def test_benchmark_pv_relief_direction(self, bench):
        from gridstress import build_injections
        loadings = {}
        for name in ("ev25", "ev25_pv"):
            solution = solve_newton_raphson(
                bench.network,
                build_injections(bench.network, bench.scenario(name), bench.profiles, 36))
            loadings[name] = bin_loadings(solution.loading_by_branch())
        comparison = compare_scenarios(loadings["ev25"], loadings["ev25_pv"])
        overload_delta = comparison.deltas["100-150"] + comparison.deltas[">150"]
        assert overload_delta < 0
        assert comparison.deltas["100-150"] <= 0
        assert comparison.deltas[">150"] <= 0
