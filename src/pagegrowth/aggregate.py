"""Calendar-window aggregation of posts into windows of engagement and followers.

Four timescales tile the UTC calendar: days (D), ISO-8601 weeks (W,
Monday through Sunday), months (M), and quarters (Q). A window's
engagement is the sum of total_interactions of the posts inside it;
windows with no posts are omitted, never zero-filled. Follower values
are taken from actually observed posts, one representative point per
window:

* D - earliest post of the day,
* W - value on the minimum observed date of the week,
* M - value on the observed date closest to the 15th (ties resolve to
  the earlier observation),
* Q - value on the latest observed date of the quarter (switchable to
  earliest via ``quarter_rule``).

Every window is a union of whole days, so one kernel, ``_windows``, rolls
(page, day) cells (``ingest.DayCells``) up to windows and is the one home of
these rules. Like the cells, a timescale's windows are one table,
``AggregatedSeries``. Window keys are day numbers since 1970-01-01: the
ISO week starts at day - (day + 3) % 7 (1970-01-01 was a Thursday),
months and quarters come from ``datetime64[M]``. Cells sorted by (page,
day) form contiguous groups per window; sums are ``np.add.reduceat`` over
them, and each follower rule is a sort key whose first observed cell wins.
"""

from __future__ import annotations

from datetime import date, datetime
from enum import Enum
from typing import Sequence

import numpy as np

from .ingest import (ABSENT, EPOCH_ORDINAL, Dataset, DayCells, PostColumns, PostRecord, _counts, _day_cells, _day_date,
                     _quoted, _Record, _Table, _write_rows)


class Timescale(Enum):
    D = "D"
    W = "W"
    M = "M"
    Q = "Q"

    @classmethod
    def parse(cls, text: str) -> "Timescale":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise ValueError(f"unknown timescale {text!r} (use D, W, M or Q)")


class Window(_Record, frozen=True):
    """Half-open calendar interval [start, end) at one timescale."""

    timescale: Timescale
    start: date
    end: date

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} not before end {self.end}")


def _window_bounds(days: np.ndarray, scale: Timescale) -> tuple[np.ndarray, np.ndarray]:
    """First day of the window holding each day, and the first day after it."""
    if scale is Timescale.D:
        return days, days + 1
    if scale is Timescale.W:
        start = days - (days + 3) % 7
        return start, start + 7
    if scale not in (Timescale.M, Timescale.Q):
        raise ValueError(f"unknown timescale {scale!r}")
    step = 1 if scale is Timescale.M else 3
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    months -= months % step  # quarters start in January, April, July and October

    def first_day(m):
        return m.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)

    return first_day(months), first_day(months + step)


def window_of(ts: datetime | date, scale: Timescale) -> Window:
    """Calendar window containing a UTC instant."""
    d = ts.date() if isinstance(ts, datetime) else ts
    start, end = _window_bounds(np.array([d.toordinal() - EPOCH_ORDINAL]), scale)
    return Window(scale, _day_date(int(start[0])), _day_date(int(end[0])))


class SeriesEntry(_Record, frozen=True):
    window: Window
    engagement: int
    mean_engagement: float
    post_count: int
    followers: int | None


class AggregatedSeries(_Table):
    """The windows of every page at one timescale, one array element per window, in (page_id, start) order.

    ``page`` indexes ``page_ids``, the cells' sorted pages; days count from
    1970-01-01 and ``followers`` is ``ABSENT`` where no post of the window
    gives one. A slice, mask or index array selects a sub-table.
    """

    page_ids: list[str]
    timescale: Timescale
    page: np.ndarray
    start: np.ndarray
    end: np.ndarray
    engagement: np.ndarray
    post_count: np.ndarray
    followers: np.ndarray

    @property
    def mean_engagement(self) -> np.ndarray:
        return self.engagement / self.post_count

    @property
    def entries(self) -> list[SeriesEntry]:
        """The windows as objects, built on each request."""
        columns = (self.start, self.end, self.engagement, self.post_count, self.followers)
        return [
            SeriesEntry(Window(self.timescale, _day_date(s), _day_date(e)), g, g / n, n, None if f == ABSENT else f)
            for s, e, g, n, f in zip(*(c.tolist() for c in columns))
        ]

    def total_engagement(self) -> int:
        return int(self.engagement.sum())


def _windows(cells: DayCells, scale: Timescale, quarter_rule: str) -> AggregatedSeries:
    """The kernel: every page's windows at ``scale`` from its cells."""
    if quarter_rule not in ("latest", "earliest"):
        raise ValueError(f"unknown quarter_rule {quarter_rule!r}")
    start, end = _window_bounds(cells.day, scale)
    opens = np.ones(len(cells), dtype=bool)  # the cell opens a new (page, window) group
    opens[1:] = (cells.page[1:] != cells.page[:-1]) | (start[1:] != start[:-1])
    first = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    latest = scale is Timescale.Q and quarter_rule == "latest"
    seen = np.flatnonzero(cells.first != ABSENT)
    if scale is Timescale.M:  # days from the 15th; ties keep the earlier day
        key = np.abs(cells.day[seen] - (start[seen] + 14))
    elif latest:  # the last observed cell first
        key = -seen
    else:  # the first observed cell
        key = np.zeros(seen.size, dtype=np.int64)
    seen = seen[np.lexsort((key, group[seen]))]
    wins = np.ones(seen.size, dtype=bool)
    wins[1:] = group[seen[1:]] != group[seen[:-1]]
    seen = seen[wins]
    followers = np.full(first.size, ABSENT, dtype=np.int64)
    followers[group[seen]] = (cells.last if latest else cells.first)[seen]
    return AggregatedSeries(cells.page_ids, scale, cells.page[first], start[first], end[first],
                            np.add.reduceat(cells.engagement, first), np.add.reduceat(cells.post_count, first),
                            followers)


def aggregate_engagement(
    posts: Sequence[PostRecord], scale: Timescale, quarter_rule: str = "latest"
) -> AggregatedSeries:
    """Roll one page's posts (in any order) into its windows."""
    table = PostColumns.from_records(posts)
    if len(table.page_ids) > 1:
        raise ValueError("aggregate_engagement expects posts from a single page")
    return _windows(_day_cells(table, np.arange(len(table))), scale, quarter_rule)


def aggregate_dataset(ds: Dataset, scale: Timescale, quarter_rule: str = "latest") -> AggregatedSeries:
    """The windows of every page, each page aggregated independently; pages without posts are absent."""
    return _windows(ds.cells, scale, quarter_rule)


SERIES_HEADER = ["page_id", "timescale", "window_start", "engagement", "mean_engagement", "post_count", "followers"]


def write_series_csv(series: AggregatedSeries, stream) -> None:
    heads = np.array([f"{_quoted(p)},{series.timescale.value}" for p in series.page_ids], dtype=object)  # once per page
    _write_rows(stream, SERIES_HEADER, len(series), "%s,%s,%s,%.10g,%s,%s\n", lambda part: (
        heads[series.page[part]].tolist(),
        np.datetime_as_string(series.start[part].astype("datetime64[D]"), unit="D").tolist(),
        series.engagement[part].tolist(),
        (series.engagement[part] / series.post_count[part]).tolist(),
        series.post_count[part].tolist(),
        _counts(series.followers[part]),
    ))
