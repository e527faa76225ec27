"""Branch-loading classification and scenario comparison.

Loadings are binned into [40, 80), [80, 100), [100, 150) and [150, inf)
percent, left-inclusive. Lines and transformers share one histogram;
branches below 40% are counted separately and excluded from the four
reported bins.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .powerflow import PowerFlowSolution

BIN_LABELS = ("40-80", "80-100", "100-150", ">150")
BELOW_LABEL = "<40"
# A loading's label is _LABELS[bisect_right(_EDGES, loading)].
_EDGES = (40.0, 80.0, 100.0, 150.0)
_LABELS = (BELOW_LABEL, *BIN_LABELS)


class ComparisonError(ValueError):
    """Raised when two histograms cannot be compared."""


def bin_label(loading_percent: float) -> str:
    if not math.isfinite(loading_percent):
        raise ValueError(f"loading percentage must be finite, got {loading_percent}")
    if loading_percent < 0:
        raise ValueError(f"loading percentage must be >= 0, got {loading_percent}")
    return _LABELS[bisect.bisect_right(_EDGES, loading_percent)]


@dataclass(frozen=True)
class CongestionHistogram:
    """Counts of branches per loading bin.

    branch_bins preserves the per-branch assignment when the histogram
    was built from named loadings; histograms restored from count-only
    reports carry None there.
    """

    bin_40_80: int
    bin_80_100: int
    bin_100_150: int
    bin_gt_150: int
    below_40: int = 0
    branch_bins: Mapping[str, str] | None = None

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], below_40: int = 0) -> CongestionHistogram:
        unknown = set(counts) - set(BIN_LABELS)
        if unknown:
            raise ValueError(f"unknown bin label(s): {sorted(unknown)}")
        return cls(*(counts.get(label, 0) for label in BIN_LABELS), below_40=below_40)

    def counts(self) -> dict[str, int]:
        return dict(zip(BIN_LABELS, (self.bin_40_80, self.bin_80_100, self.bin_100_150,
                                     self.bin_gt_150)))

    def total_rated_branches(self) -> int:
        return self.below_40 + sum(self.counts().values())

    def count_at_or_above_100(self) -> int:
        return self.bin_100_150 + self.bin_gt_150

    def same_counts(self, other: CongestionHistogram) -> bool:
        return self.counts() == other.counts() and self.below_40 == other.below_40


def bin_loadings(loadings: Mapping[str, float] | Iterable[float]) -> CongestionHistogram:
    """Classify per-branch loading percentages into the report bins.

    Accepts a branch-id-to-percent mapping, or a bare iterable whose
    entries are named branch-0, branch-1, ... in order.
    """
    if isinstance(loadings, Mapping):
        named = dict(loadings)
    else:
        named = {f"branch-{i}": value for i, value in enumerate(loadings)}
    assignments = {branch: bin_label(value) for branch, value in named.items()}
    tallies = Counter(assignments.values())
    return CongestionHistogram(*(tallies[label] for label in BIN_LABELS),
                               below_40=tallies[BELOW_LABEL], branch_bins=assignments)


def congested_elements(solution: PowerFlowSolution, threshold_percent: float) -> list[tuple[str, float]]:
    """Branches loaded at or above the threshold, worst first."""
    if threshold_percent <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold_percent}")
    over = [(f.branch_id, f.loading_percent) for f in solution.branch_flows
            if f.loading_percent >= threshold_percent]
    return sorted(over, key=lambda item: (-item[1], item[0]))


@dataclass(frozen=True)
class ScenarioComparison:
    """Per-bin count deltas (b minus a) and the branches that moved bin."""

    deltas: Mapping[str, int]
    changed_branches: tuple[tuple[str, str, str], ...]


def compare_scenarios(a: CongestionHistogram, b: CongestionHistogram) -> ScenarioComparison:
    """Delta histogram b - a over the same network.

    When both histograms carry per-branch assignments the branch sets
    must match, and the branches whose bin changed are listed as
    (branch, bin in a, bin in b).
    """
    deltas = {label: b.counts()[label] - a.counts()[label] for label in BIN_LABELS}
    deltas[BELOW_LABEL] = b.below_40 - a.below_40

    changed: tuple[tuple[str, str, str], ...] = ()
    if a.branch_bins is not None and b.branch_bins is not None:
        if set(a.branch_bins) != set(b.branch_bins):
            only_a = sorted(set(a.branch_bins) - set(b.branch_bins))
            only_b = sorted(set(b.branch_bins) - set(a.branch_bins))
            raise ComparisonError(
                f"branch sets differ (only in a: {only_a}; only in b: {only_b})"
            )
        changed = tuple(
            (branch, a.branch_bins[branch], b.branch_bins[branch])
            for branch in sorted(a.branch_bins)
            if a.branch_bins[branch] != b.branch_bins[branch]
        )
    elif (a.branch_bins is None) != (b.branch_bins is None):
        raise ComparisonError(
            "cannot compare a histogram with branch detail against one without"
        )
    return ScenarioComparison(deltas=deltas, changed_branches=changed)
