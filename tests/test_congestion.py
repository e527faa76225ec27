"""Loading bins and congested-element listing."""

from __future__ import annotations

import pytest

from gridstress import (
    CongestionHistogram,
    bin_loadings,
    congested_elements,
    solve_newton_raphson,
)
from gridstress.congestion import bin_label

from helpers import bus_vector, no_load_injections, two_bus_network


class TestBinLoadings:
    def test_single_branch_in_80_100(self):
        hist = bin_loadings({"a": 85.0})
        assert hist.counts() == {"40-80": 0, "80-100": 1, "100-150": 0, ">150": 0}
        assert hist.below_40 == 0

    def test_left_inclusive_boundary(self):
        hist = bin_loadings({"a": 39.9, "b": 40.0})
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
            bin_loadings({"a": -1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loading_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            bin_label(value)
        with pytest.raises(ValueError, match="finite"):
            bin_loadings({"a": value})

    def test_first_bad_value_is_reported(self):
        loadings = {"a": 50.0, "b": -0.5, "c": float("nan"), "d": -0.0}
        with pytest.raises(ValueError) as info:
            bin_loadings(loadings)
        with pytest.raises(ValueError) as first:
            bin_label(-0.5)
        assert str(info.value) == str(first.value)
        assert bin_loadings({"d": -0.0}).branch_bins == {"d": "<40"}

    def test_bins_each_value_as_bin_label_does(self, rng):
        edges = [0.0, 40.0, 80.0, 100.0, 150.0]
        values = {f"b{i}": v for i, v in enumerate(
            edges + [e - 1e-12 for e in edges[1:]] + [rng.uniform(0.0, 300.0) for _ in range(50)])}
        assert bin_loadings(values).branch_bins == {b: bin_label(v) for b, v in values.items()}

    def test_from_labels_counts_what_bin_loadings_assigns(self, rng):
        values = {f"b{i}": rng.uniform(0.0, 300.0) for i in range(100)}
        hist = bin_loadings(values)
        assert CongestionHistogram.from_labels(hist.branch_bins) == hist
        with pytest.raises(ValueError, match="unknown bin"):
            CongestionHistogram.from_labels({"a": "0-40"})

    def test_named_input_preserves_assignments(self):
        hist = bin_loadings({"tx": 120.0, "line": 12.0})
        assert hist.branch_bins == {"tx": "100-150", "line": "<40"}

    def test_permutation_invariant(self, rng):
        values = [(f"b{i}", rng.uniform(0.0, 200.0)) for i in range(60)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert bin_loadings(dict(values)).counts() == bin_loadings(dict(shuffled)).counts()

    def test_partition_conserves_totals(self, rng):
        values = {f"b{i}": rng.uniform(0.0, 300.0) for i in range(200)}
        hist = bin_loadings(values)
        assert hist.below_40 + sum(hist.counts().values()) == len(values)

    def test_from_counts_round_trip(self):
        counts = {"40-80": 9, "80-100": 4, "100-150": 10, ">150": 8}
        hist = CongestionHistogram.from_counts(counts)
        assert hist.counts() == counts
        with pytest.raises(ValueError, match="unknown bin"):
            CongestionHistogram.from_counts({"0-40": 1})


class TestCongestedElements:
    def test_no_load_empty(self, bench):
        solution = solve_newton_raphson(bench.network, no_load_injections(bench.network))
        assert congested_elements(solution, 100.0) == []

    def test_sorted_descending_above_threshold(self):
        net = two_bus_network(0.02 + 0.05j, rating_kva=10000.0)
        solution = solve_newton_raphson(net, bus_vector(net, {"load": -1.2 - 0.2j}))
        listed = congested_elements(solution, 100.0)
        assert [branch for branch, _ in listed] == ["source -> load"]
        assert listed[0][1] >= 100.0
        assert congested_elements(solution, 1000.0) == []

    def test_threshold_must_be_positive(self, bench):
        solution = solve_newton_raphson(bench.network, no_load_injections(bench.network))
        with pytest.raises(ValueError, match="threshold"):
            congested_elements(solution, 0.0)

    def test_benchmark_ev10_includes_a_transformer(self, bench):
        from gridstress import build_injections
        solution = solve_newton_raphson(
            bench.network,
            build_injections(bench.network, bench.scenario("ev10"), bench.profiles, 36))
        listed = congested_elements(solution, 100.0)
        assert listed
        kinds = dict(zip(solution.branch_ids, solution.branch_kinds))
        assert any(kinds[branch] == "transformer" for branch, _ in listed)
