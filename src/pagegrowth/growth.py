"""Growth-rate samples, percentile trimming, and size-class binning.

A growth sample is one window-to-window observation: the gross ratio of
a metric across two calendar-adjacent windows together with the earlier
window's followers and engagement as covariates. Pairs separated by an
empty window, or with a non-positive metric value on either side, never
produce samples; they are counted in a skip report instead.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import date

import numpy as np

from .aggregate import AggregatedSeries, Timescale
from .ingest import EPOCH_ORDINAL

METRICS = ("followers", "engagement", "mean_engagement")

TRIM_MIN_SAMPLES = 20  # below this, trim passes input through with a warning


class DegenerateBinningError(ValueError):
    """Too few distinct covariate values to form the requested bins."""


@dataclass(frozen=True)
class GrowthSample:
    """One multiplicative growth observation between adjacent windows.

    ``window_start`` is the start of the later window (the one whose
    growth this sample measures); covariates come from the earlier one.
    """

    page_id: str
    timescale: Timescale
    window_start: date
    metric: str
    gross_growth: float
    log_growth: float
    prior_engagement: int
    prior_followers: int | None = None


@dataclass
class SkipReport:
    """Degenerate adjacent pairs that produced no sample."""

    zero_value: int = 0
    missing_followers: int = 0

    @property
    def total(self) -> int:
        return self.zero_value + self.missing_followers


@dataclass(frozen=True)
class SizeClass:
    """Follower bin, lower-inclusive / upper-exclusive."""

    label: str
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower >= self.upper:
            raise ValueError(f"size class {self.label}: lower must be below upper")

    def contains(self, followers: int) -> bool:
        return self.lower <= followers < self.upper


DEFAULT_FOLLOWER_CLASSES = [
    SizeClass("10K-50K", 10_000, 50_000),
    SizeClass("50K-150K", 50_000, 150_000),
    SizeClass("150K-500K", 150_000, 500_000),
    SizeClass("500K-5M", 500_000, 5_000_000),
]


def growth_samples(series: AggregatedSeries, metric: str) -> tuple[list[GrowthSample], SkipReport]:
    """Growth samples for one page series at the requested metric.

    A sample requires two calendar-adjacent windows with positive metric
    values in both; for the followers metric, the representative value
    must additionally be observed in both windows.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    values = getattr(series, metric)
    pairs = series.start[1:] == series.end[:-1]  # a gap in the chain is not a pair
    missing = np.zeros(pairs.size, dtype=bool)
    if metric == "followers":
        missing = pairs & ~(series.observed[:-1] & series.observed[1:])
    zero = pairs & ~missing & ((values[:-1] <= 0) | (values[1:] <= 0))
    skips = SkipReport(zero_value=int(zero.sum()), missing_followers=int(missing.sum()))
    earlier = np.flatnonzero(pairs & ~missing & ~zero)
    later = earlier + 1
    columns = (series.start[later] + EPOCH_ORDINAL, values[later] / values[earlier],
               series.engagement[earlier], series.followers[earlier], series.observed[earlier])
    samples = [
        # math.log, not np.log: the two differ in the last bit on some values
        GrowthSample(series.page_id, series.timescale, date.fromordinal(d), metric, g, math.log(g), e, f if o else None)
        for d, g, e, f, o in zip(*(c.tolist() for c in columns))
    ]
    return samples, skips


def pooled_growth_samples(
    series_map: dict[str, AggregatedSeries], metric: str
) -> tuple[list[GrowthSample], SkipReport]:
    """Samples across all pages, with a merged skip report."""
    pooled: list[GrowthSample] = []
    skips = SkipReport()
    for page_id in sorted(series_map):
        samples, s = growth_samples(series_map[page_id], metric)
        pooled.extend(samples)
        skips.zero_value += s.zero_value
        skips.missing_followers += s.missing_followers
    return pooled, skips


def trim(values, lo_pct: float = 5.0, hi_pct: float = 95.0) -> np.ndarray:
    """Keep values inside the [lo_pct, hi_pct] percentile band (inclusive).

    Percentiles use linear interpolation between order statistics (the
    rank p*(n-1)+1 convention). Inputs smaller than TRIM_MIN_SAMPLES pass
    through unchanged with a warning since the band is not meaningful.
    """
    arr = np.asarray(values, dtype=float)
    if 0 < arr.size < TRIM_MIN_SAMPLES:
        warnings.warn(
            f"trim: only {arr.size} values (< {TRIM_MIN_SAMPLES}); passing through",
            stacklevel=2,
        )
    return arr[trim_mask(arr, lo_pct, hi_pct)]


def trim_mask(values, lo_pct: float = 5.0, hi_pct: float = 95.0) -> np.ndarray:
    """Boolean mask version of ``trim``, for filtering parallel arrays."""
    arr = np.asarray(values, dtype=float)
    if arr.size < TRIM_MIN_SAMPLES:
        return np.ones(arr.size, dtype=bool)
    lo, hi = np.percentile(arr, [lo_pct, hi_pct])
    return (arr >= lo) & (arr <= hi)


def validate_scheme(scheme: list[SizeClass]) -> None:
    ordered = sorted(scheme, key=lambda c: c.lower)
    for a, b in zip(ordered, ordered[1:]):
        if b.lower < a.upper:
            raise ValueError(f"size classes {a.label} and {b.label} overlap")


def assign_follower_class(followers: int, scheme: list[SizeClass]) -> SizeClass | None:
    """The unique class containing the count, or None outside the scheme."""
    for cls in scheme:
        if cls.contains(followers):
            return cls
    return None


def class_bins(
    samples: list[GrowthSample], scheme: list[SizeClass] | None = None
) -> dict[str, list[GrowthSample]]:
    """Group samples into follower size classes by prior_followers.

    Samples lacking prior_followers, and those outside the scheme, are
    left out. Returned keys follow the scheme order; empty classes are
    omitted.
    """
    scheme = DEFAULT_FOLLOWER_CLASSES if scheme is None else scheme
    validate_scheme(scheme)
    bins: dict[str, list[GrowthSample]] = {c.label: [] for c in scheme}
    for s in samples:
        if s.prior_followers is None:
            continue
        cls = assign_follower_class(s.prior_followers, scheme)
        if cls is not None:
            bins[cls.label].append(s)
    return {label: members for label, members in bins.items() if members}


def engagement_quartile_bins(
    samples: list[GrowthSample],
    lo_pct: float = 5.0,
    hi_pct: float = 95.0,
) -> dict[str, list[GrowthSample]]:
    """Split samples into quartile bins of prior_engagement.

    The prior_engagement covariate is first trimmed to its [lo_pct,
    hi_pct] band (small inputs pass through, as in ``trim``); quartile
    boundaries are computed on the surviving values. Bins are
    lower-open/upper-closed above Q1: (q1,q2], (q2,q3], (q3,...].
    """
    if any(s.prior_engagement is None for s in samples):
        raise ValueError("engagement_quartile_bins requires prior_engagement on all samples")
    priors = np.array([s.prior_engagement for s in samples], dtype=float)
    mask = trim_mask(priors, lo_pct, hi_pct)
    kept = [s for s, keep in zip(samples, mask) if keep]
    kept_priors = priors[mask]
    if np.unique(kept_priors).size < 4:
        raise DegenerateBinningError(
            "degenerate binning: fewer than 4 distinct prior_engagement values"
        )
    # bin index = number of quartiles strictly below the value
    index = np.searchsorted(np.percentile(kept_priors, [25.0, 50.0, 75.0]), kept_priors, side="left").tolist()
    return {f"Q{q + 1}": [s for s, i in zip(kept, index) if i == q] for q in range(4)}


def split_class_by_median(
    class_samples: list[GrowthSample],
) -> tuple[list[GrowthSample], list[GrowthSample]]:
    """Partition one class at its median prior_followers value.

    Values below the median go to the lower half, values at or above it
    to the upper half (so for odd counts the median element lands upper).
    """
    if len(class_samples) < 2:
        raise ValueError("split_class_by_median needs at least 2 samples")
    if any(s.prior_followers is None for s in class_samples):
        raise ValueError("split_class_by_median requires prior_followers on all samples")
    priors = np.array([s.prior_followers for s in class_samples], dtype=float)
    if np.unique(priors).size < 2:
        raise DegenerateBinningError("all prior_followers values are equal")
    med = float(np.median(priors))
    lower = [s for s, v in zip(class_samples, priors) if v < med]
    upper = [s for s, v in zip(class_samples, priors) if v >= med]
    return lower, upper


GROWTH_HEADER = ["page_id", "timescale", "window_start", "metric", "gross_growth", "log_growth",
                 "prior_followers", "prior_engagement"]


def write_growth_samples_csv(samples: list[GrowthSample], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(GROWTH_HEADER)
    for s in samples:
        writer.writerow(
            [
                s.page_id,
                s.timescale.value,
                s.window_start.isoformat(),
                s.metric,
                format(s.gross_growth, ".12g"),
                format(s.log_growth, ".12g"),
                "" if s.prior_followers is None else s.prior_followers,
                s.prior_engagement,
            ]
        )
