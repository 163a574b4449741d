"""Growth-rate samples, percentile trimming, and size-class binning.

A growth sample is one window-to-window observation of one page: the gross
ratio of a metric across two calendar-adjacent windows, with the earlier
window's followers and engagement as covariates. Gaps and non-positive
values yield no sample; they are counted in a skip report instead. Samples
come from one timescale's windows table (``aggregate.AggregatedSeries``) and form
one table, ``GrowthSamples``, with an array per field and pages as codes into its
``page_ids``, like every table of ``ingest._Table``; bins are sub-tables.
"""

from __future__ import annotations

import math
import warnings
from datetime import date
from typing import Sequence

import numpy as np

from .aggregate import AggregatedSeries, Timescale
from .ingest import (ABSENT, EPOCH_ORDINAL, NumericalError, _coded, _counts, _day_date, _quoted, _Record, _Table,
                     _write_rows)

METRICS = ("followers", "engagement", "mean_engagement")

TRIM_MIN_SAMPLES = 20  # below this, trim passes input through with a warning


class DegenerateBinningError(ValueError, NumericalError):
    """Too few distinct covariate values to form the requested bins."""


class GrowthSample(_Record, frozen=True):
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


class GrowthSamples(_Table):
    """Growth samples of one metric at one timescale, one array element per sample.

    ``page`` indexes ``page_ids``; ``start`` is the later window's first day
    since 1970-01-01; ``prior_followers`` is ``ABSENT`` where the earlier
    window has no follower count. An int index builds that row as a
    ``GrowthSample``; a slice, mask or index array selects a sub-table.
    """

    timescale: Timescale | None
    metric: str
    page_ids: list[str]
    page: np.ndarray
    start: np.ndarray
    gross_growth: np.ndarray
    log_growth: np.ndarray
    prior_engagement: np.ndarray
    prior_followers: np.ndarray

    def _row(self, i: int) -> GrowthSample:
        followers = None if self.prior_followers[i] == ABSENT else int(self.prior_followers[i])
        return GrowthSample(self.page_ids[self.page[i]], self.timescale, _day_date(int(self.start[i])), self.metric,
                            float(self.gross_growth[i]), float(self.log_growth[i]), int(self.prior_engagement[i]),
                            followers)

    @classmethod
    def from_rows(cls, rows: Sequence[GrowthSample]) -> "GrowthSamples":
        """A table from row objects, all of one timescale and metric."""
        kinds = {(r.timescale, r.metric) for r in rows}
        if len(kinds) > 1:
            raise ValueError("growth samples of different timescales or metrics in one table")
        values = [(r.window_start.toordinal() - EPOCH_ORDINAL, r.gross_growth, r.log_growth,
                   r.prior_engagement, ABSENT if r.prior_followers is None else r.prior_followers) for r in rows]
        columns = zip(list(zip(*values)) or [()] * 5, (np.int64, float, float, np.int64, np.int64))
        return cls(*(kinds.pop() if kinds else (None, "")), *_coded([r.page_id for r in rows]),
                   *(np.array(c, dtype=t) for c, t in columns))


class SkipReport(_Record):
    """Degenerate adjacent pairs that produced no sample."""

    zero_value: int = 0
    missing_followers: int = 0

    @property
    def total(self) -> int:
        return self.zero_value + self.missing_followers


class SizeClass(_Record, frozen=True):
    """Follower bin, lower-inclusive / upper-exclusive."""

    label: str
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower >= self.upper:
            raise ValueError(f"size class {self.label}: lower must be below upper")


DEFAULT_FOLLOWER_CLASSES = [
    SizeClass("10K-50K", 10_000, 50_000),
    SizeClass("50K-150K", 50_000, 150_000),
    SizeClass("150K-500K", 150_000, 500_000),
    SizeClass("500K-5M", 500_000, 5_000_000),
]


def growth_samples(series: AggregatedSeries, metric: str) -> tuple[GrowthSamples, SkipReport]:
    """``pooled_growth_samples``, under the name its one-page callers know."""
    return pooled_growth_samples(series, metric)


def pooled_growth_samples(series: AggregatedSeries, metric: str) -> tuple[GrowthSamples, SkipReport]:
    """Samples of every page of the windows table in page order, and the skip report.

    A sample needs two calendar-adjacent windows of one page with positive
    metric values in both; for followers, neither value may be ``ABSENT``.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    page, start, values, followers = series.page, series.start, getattr(series, metric), series.followers
    pairs = (page[1:] == page[:-1]) & (start[1:] == series.end[:-1])  # a gap in the chain is not a pair
    missing = pairs & ((followers[:-1] == ABSENT) | (followers[1:] == ABSENT)) & (metric == "followers")
    zero = pairs & ~missing & ((values[:-1] <= 0) | (values[1:] <= 0))
    skips = SkipReport(zero_value=int(zero.sum()), missing_followers=int(missing.sum()))
    earlier = np.flatnonzero(pairs & ~missing & ~zero)
    later = earlier + 1
    gross = values[later] / values[earlier]
    # math.log, not np.log: the two differ in the last bit on some values
    log = np.fromiter(map(math.log, gross.tolist()), dtype=float, count=gross.size)
    samples = GrowthSamples(series.timescale, metric, series.page_ids, page[later], start[later], gross, log,
                            series.engagement[earlier], followers[earlier])
    return samples, skips


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
    lo, hi = _percentiles(arr, [lo_pct, hi_pct])
    return (arr >= lo) & (arr <= hi)


# np.percentile, np.median and np.unique load numpy.ma (through np.unique's
# masked-array check), which costs a command about 13 ms; these three stand in for them

def _percentiles(values: np.ndarray, pcts) -> np.ndarray:
    """``np.percentile(values, pcts)`` of a non-empty float array, bit for bit.

    numpy's "linear" method: the values are partitioned at the same indices
    as numpy partitions them, so even tied -0.0 and 0.0 land alike, and each
    percentile is numpy's lerp of its two neighbours, ``b - (b - a) * (1 - t)``
    from ``t >= 0.5`` on. A NaN among the values makes every percentile NaN.
    """
    q = np.true_divide(pcts, 100)
    if not ((q >= 0) & (q <= 1)).all():
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = values.size
    virtual = (n - 1) * q
    top = virtual >= n - 1  # past the last index: both neighbours are the last value
    lower = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    upper = np.where(top, -1, lower + 1)
    part = np.partition(values, sorted({0, -1, *lower.tolist(), *upper.tolist()}))
    if np.isnan(part[-1]):
        return np.full(q.shape, part[-1])
    t = virtual - lower
    a, b = part[lower], part[upper]
    diff = b - a
    result = a + diff * t
    np.subtract(b, diff * (1 - t), out=result, where=t >= 0.5)
    return result


def _median(ordered: np.ndarray) -> float:
    """``np.median`` of the values a non-empty NaN-free sorted array holds, bit for bit:
    the middle value or the two middle ones, summed from 0.0 as ``np.mean`` sums, over their count."""
    m = ordered.size // 2
    return 0.0 + ordered[m] if ordered.size % 2 else (0.0 + ordered[m - 1] + ordered[m]) / 2


def _distinct(ordered: np.ndarray) -> int:
    """How many distinct values a NaN-free sorted array holds: ``np.unique(ordered).size``."""
    return int(ordered.size and 1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def validate_scheme(scheme: list[SizeClass]) -> None:
    for i, c in enumerate(scheme):
        if c.label in (d.label for d in scheme[:i]):
            raise ValueError(f"size class label {c.label!r} appears more than once")
    ordered = sorted(scheme, key=lambda c: c.lower)
    for a, b in zip(ordered, ordered[1:]):
        if b.lower < a.upper:
            raise ValueError(f"size classes {a.label} and {b.label} overlap")


def class_bins(
    samples: GrowthSamples | Sequence[GrowthSample], scheme: list[SizeClass] | None = None
) -> dict[str, GrowthSamples]:
    """Group samples into follower size classes by prior_followers.

    Samples lacking prior_followers, and those outside the scheme, are
    left out. Returned keys follow the scheme order; empty classes are
    omitted. A list of rows is turned into a table first.
    """
    scheme = DEFAULT_FOLLOWER_CLASSES if scheme is None else scheme
    validate_scheme(scheme)
    if not isinstance(samples, GrowthSamples):
        samples = GrowthSamples.from_rows(samples)
    f = samples.prior_followers
    bins = {c.label: samples[(f != ABSENT) & (c.lower <= f) & (f < c.upper)] for c in scheme}
    return {label: members for label, members in bins.items() if len(members)}


def engagement_quartile_bins(
    samples: GrowthSamples,
    lo_pct: float = 5.0,
    hi_pct: float = 95.0,
) -> dict[str, GrowthSamples]:
    """Split samples into quartile bins of prior_engagement.

    The prior_engagement covariate is first trimmed to its [lo_pct,
    hi_pct] band (small inputs pass through, as in ``trim``); quartile
    boundaries are computed on the surviving values. Bins are
    lower-open/upper-closed above Q1: (q1,q2], (q2,q3], (q3,...].
    """
    priors = samples.prior_engagement.astype(float)
    mask = trim_mask(priors, lo_pct, hi_pct)
    kept, kept_priors = samples[mask], priors[mask]
    if _distinct(np.sort(kept_priors)) < 4:
        raise DegenerateBinningError(
            "degenerate binning: fewer than 4 distinct prior_engagement values"
        )
    # bin index = number of quartiles strictly below the value
    index = np.searchsorted(_percentiles(kept_priors, [25.0, 50.0, 75.0]), kept_priors, side="left")
    return {f"Q{q + 1}": kept[index == q] for q in range(4)}


def split_class_by_median(class_samples: GrowthSamples) -> tuple[GrowthSamples, GrowthSamples]:
    """Partition one class at its median prior_followers value.

    Values below the median go to the lower half, values at or above it
    to the upper half (so for odd counts the median element lands upper).
    """
    if len(class_samples) < 2:
        raise ValueError("split_class_by_median needs at least 2 samples")
    if (class_samples.prior_followers == ABSENT).any():
        raise ValueError("split_class_by_median requires prior_followers on all samples")
    priors = class_samples.prior_followers.astype(float)
    ordered = np.sort(priors)
    if _distinct(ordered) < 2:
        raise DegenerateBinningError("all prior_followers values are equal")
    lower = priors < _median(ordered)
    return class_samples[lower], class_samples[~lower]


GROWTH_HEADER = ["page_id", "timescale", "window_start", "metric", "gross_growth", "log_growth",
                 "prior_followers", "prior_engagement"]


def write_growth_samples_csv(samples: GrowthSamples, stream) -> None:
    scale = samples.timescale.value if samples.timescale else ""  # a Timescale and a METRICS name need no quotes
    # both are constants of the row template, which would read a % in them as a conversion
    template = "%s,{},%s,{},%.12g,%.12g,%s,%s\n".format(*(text.replace("%", "%%") for text in (scale, samples.metric)))
    pages = np.array([_quoted(p) for p in samples.page_ids], dtype=object)  # once per page
    _write_rows(stream, GROWTH_HEADER, len(samples), template, lambda part: (
        pages[samples.page[part]].tolist(),
        np.datetime_as_string(samples.start[part].astype("datetime64[D]"), unit="D").tolist(),
        samples.gross_growth[part].tolist(),
        samples.log_growth[part].tolist(),
        _counts(samples.prior_followers[part]),
        samples.prior_engagement[part].tolist(),
    ))
