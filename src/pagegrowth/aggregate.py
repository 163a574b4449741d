"""Calendar-window aggregation of posts into per-page engagement/follower series.

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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from enum import Enum
from typing import Sequence

from .ingest import Dataset, PostRecord


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


@dataclass(frozen=True)
class Window:
    """Half-open calendar interval [start, end) at one timescale."""

    timescale: Timescale
    start: date
    end: date

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} not before end {self.end}")


def window_of(ts: datetime | date, scale: Timescale) -> Window:
    """Calendar window containing a UTC instant."""
    d = ts.date() if isinstance(ts, datetime) else ts
    if scale is Timescale.D:
        return Window(scale, d, d + timedelta(days=1))
    if scale is Timescale.W:
        start = d - timedelta(days=d.isoweekday() - 1)
        return Window(scale, start, start + timedelta(days=7))
    if scale is Timescale.M:
        start = d.replace(day=1)
        end = date(start.year + 1, 1, 1) if start.month == 12 else start.replace(month=start.month + 1)
        return Window(scale, start, end)
    if scale is Timescale.Q:
        q_month = 3 * ((d.month - 1) // 3) + 1
        start = date(d.year, q_month, 1)
        end = date(d.year + 1, 1, 1) if q_month == 10 else date(d.year, q_month + 3, 1)
        return Window(scale, start, end)
    raise ValueError(f"unknown timescale {scale!r}")


@dataclass(frozen=True)
class SeriesEntry:
    window: Window
    engagement: int
    mean_engagement: float
    post_count: int
    followers: int | None


@dataclass
class AggregatedSeries:
    """Per-page windowed series at one timescale, windows strictly increasing."""

    page_id: str
    timescale: Timescale
    entries: list[SeriesEntry]

    def total_engagement(self) -> int:
        return sum(e.engagement for e in self.entries)


def select_followers(
    posts_in_window: Sequence[PostRecord],
    window: Window,
    quarter_rule: str = "latest",
) -> int | None:
    """Representative follower value for one window, or None if unobserved.

    Only posts carrying followers_at_posting participate; the value is
    always one actually observed in the window (no interpolation).
    """
    observed = [p for p in posts_in_window if p.followers_at_posting is not None]
    if not observed:
        return None
    scale = window.timescale
    if scale in (Timescale.D, Timescale.W):
        pick = min(observed, key=lambda p: (p.timestamp, p.post_id))
    elif scale is Timescale.M:
        mid = window.start.replace(day=15)
        pick = min(
            observed,
            key=lambda p: (abs((p.timestamp.date() - mid).days), p.timestamp, p.post_id),
        )
    elif scale is Timescale.Q:
        if quarter_rule == "latest":
            pick = max(observed, key=lambda p: (p.timestamp, p.post_id))
        elif quarter_rule == "earliest":
            pick = min(observed, key=lambda p: (p.timestamp, p.post_id))
        else:
            raise ValueError(f"unknown quarter_rule {quarter_rule!r}")
    else:
        raise ValueError(f"unknown timescale {scale!r}")
    return pick.followers_at_posting


def aggregate_engagement(
    posts: Sequence[PostRecord],
    scale: Timescale,
    quarter_rule: str = "latest",
) -> AggregatedSeries:
    """Roll one page's posts (sorted by timestamp) into a windowed series."""
    if not posts:
        return AggregatedSeries(page_id="", timescale=scale, entries=[])
    page_id = posts[0].page_id
    groups: dict[Window, list[PostRecord]] = {}
    for post in posts:
        if post.page_id != page_id:
            raise ValueError("aggregate_engagement expects posts from a single page")
        groups.setdefault(window_of(post.timestamp, scale), []).append(post)
    entries = []
    for window in sorted(groups, key=lambda w: w.start):
        bucket = groups[window]
        engagement = sum(p.total_interactions for p in bucket)
        entries.append(
            SeriesEntry(
                window=window,
                engagement=engagement,
                mean_engagement=engagement / len(bucket),
                post_count=len(bucket),
                followers=select_followers(bucket, window, quarter_rule),
            )
        )
    return AggregatedSeries(page_id=page_id, timescale=scale, entries=entries)


def aggregate_dataset(
    ds: Dataset, scale: Timescale, quarter_rule: str = "latest"
) -> dict[str, AggregatedSeries]:
    """Aggregate every page independently; pages without posts are absent."""
    return {
        page_id: aggregate_engagement(posts, scale, quarter_rule)
        for page_id, posts in sorted(ds.posts_by_page().items())
    }


SERIES_HEADER = [
    "page_id",
    "timescale",
    "window_start",
    "engagement",
    "mean_engagement",
    "post_count",
    "followers",
]


def write_series_csv(series_map: dict[str, AggregatedSeries], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SERIES_HEADER)
    for page_id in sorted(series_map):
        series = series_map[page_id]
        for e in series.entries:
            writer.writerow(
                [
                    page_id,
                    series.timescale.value,
                    e.window.start.isoformat(),
                    e.engagement,
                    format(e.mean_engagement, ".10g"),
                    e.post_count,
                    "" if e.followers is None else e.followers,
                ]
            )
