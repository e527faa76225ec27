"""Branch-loading classification into the report bins.

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
from typing import Mapping

from .powerflow import PowerFlowSolution

BIN_LABELS = ("40-80", "80-100", "100-150", ">150")
BELOW_LABEL = "<40"
# A loading's label is _LABELS[bisect_right(_EDGES, loading)].
_EDGES = (40.0, 80.0, 100.0, 150.0)
_LABELS = (BELOW_LABEL, *BIN_LABELS)


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
    def from_labels(cls, branch_bins: Mapping[str, str]) -> CongestionHistogram:
        """Count branch-id-to-label assignments (labels as bin_label gives them)."""
        tallies = Counter(branch_bins.values())
        unknown = set(tallies) - set(_LABELS)
        if unknown:
            raise ValueError(f"unknown bin label(s): {sorted(unknown)}")
        return cls(*(tallies[label] for label in BIN_LABELS), below_40=tallies[BELOW_LABEL],
                   branch_bins=branch_bins)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> CongestionHistogram:
        unknown = set(counts) - set(BIN_LABELS)
        if unknown:
            raise ValueError(f"unknown bin label(s): {sorted(unknown)}")
        return cls(*(counts.get(label, 0) for label in BIN_LABELS))

    def counts(self) -> dict[str, int]:
        return dict(zip(BIN_LABELS, (self.bin_40_80, self.bin_80_100, self.bin_100_150,
                                     self.bin_gt_150)))


def bin_loadings(loadings: Mapping[str, float]) -> CongestionHistogram:
    """Classify branch-id-to-percent loadings into the report bins."""
    if not all(0.0 <= value < math.inf for value in loadings.values()):
        for value in loadings.values():
            bin_label(value)        # raises for the first bad value
    return CongestionHistogram.from_labels(
        {branch: _LABELS[bisect.bisect_right(_EDGES, value)] for branch, value in loadings.items()})


def congested_elements(solution: PowerFlowSolution, threshold_percent: float) -> list[tuple[str, float]]:
    """Branches loaded at or above the threshold, worst first."""
    if threshold_percent <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold_percent}")
    over = [item for item in zip(solution.branch_ids, solution.loading_percent)
            if item[1] >= threshold_percent]
    return sorted(over, key=lambda item: (-item[1], item[0]))
