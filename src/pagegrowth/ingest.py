"""Canonical data model and parsers for post-level and page-level input files.

Input formats
-------------
Posts CSV header (exact, ordered)::

    page_id,post_id,timestamp,likes,comments,shares,total_interactions,followers_at_posting

Pages CSV header::

    page_id,name,created_at,newsguard_score,language

Posts may also arrive as JSONL, one object per line with the same field
names. Empty strings (CSV) and missing/null keys (JSONL) encode absence.

Timestamps must be RFC 3339 date-times (section 5.6) with an explicit
offset; they are normalized to UTC at second precision on ingest. Dates
(``created_at``) are ``YYYY-MM-DD``; counts are ASCII digits. Rows that fail
validation are quarantined into a rejection report rather than aborting
the parse; only structural problems (bad header, duplicate page ids,
text that is not UTF-8, a field beyond the csv module's size limit,
nothing left after filtering) are fatal.

A ``Dataset`` keeps its posts twice: as records, and once as columns
(``PostColumns``: page code, epoch seconds, total, followers with a
validity mask) that the calendar aggregation works on.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import BinaryIO, Iterable, Sequence

import numpy as np

POSTS_HEADER = [
    "page_id",
    "post_id",
    "timestamp",
    "likes",
    "comments",
    "shares",
    "total_interactions",
    "followers_at_posting",
]

PAGES_HEADER = ["page_id", "name", "created_at", "newsguard_score", "language"]

MAX_COUNT = 2**53 - 1  # larger counts would not survive the int64 and float64 columns exactly
DAY_S = 86_400
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
EPOCH_ORDINAL = EPOCH.date().toordinal()
_SECOND = timedelta(seconds=1)
# RFC 3339 section 5.6 date-time; "T" and "Z" may be lower case
_DATE_TIME = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt]([0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.[0-9]+)?"
                        r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?")
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# ASCII decimal, optional sign and exponent: every format(x, "g") output for
# x in [0, 100], but not float()'s "6_0", non-ASCII digits, "nan" or "inf"
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class FatalParseError(Exception):
    """Structural problem that invalidates the whole input."""


class NoUsableDataError(FatalParseError):
    """Every row was rejected or the input was empty."""


@dataclass(frozen=True)
class PostRecord:
    """One post. Component counts are absent (None), never zero-filled,
    when the source row only carries the total."""

    page_id: str
    post_id: str
    timestamp: datetime  # aware, UTC, second precision
    total_interactions: int
    likes: int | None = None
    comments: int | None = None
    shares: int | None = None
    followers_at_posting: int | None = None


@dataclass(frozen=True)
class PageMeta:
    page_id: str
    name: str
    created_at: date
    newsguard_score: float | None = None
    language: str | None = None


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str


@dataclass
class RejectionReport:
    """Quarantine for rows that failed validation."""

    rows: list[RejectedRow] = field(default_factory=list)

    def add(self, line: int, reason: str) -> None:
        self.rows.append(RejectedRow(line, reason))

    def __len__(self) -> int:
        return len(self.rows)


def _epoch_seconds(ts: datetime) -> int:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - EPOCH) // _SECOND


def _codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct values, and each value's index among them (Python string order)."""
    distinct = sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    return distinct, np.array([index[v] for v in values], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PostColumns:
    """Posts as parallel arrays, one row per post, sorted by (page, seconds, post_id).

    ``page`` indexes ``page_ids`` (sorted); ``seconds`` counts from
    1970-01-01T00:00:00Z; ``followers`` is 0 where ``has_followers`` is false.
    """

    page_ids: list[str]
    page: np.ndarray
    seconds: np.ndarray
    total: np.ndarray
    followers: np.ndarray
    has_followers: np.ndarray

    @classmethod
    def from_records(cls, posts: Sequence[PostRecord]) -> tuple["PostColumns", np.ndarray]:
        """The posts as columns, and their (page_id, timestamp, post_id) order as indices into ``posts``."""
        page_ids, page = _codes([p.page_id for p in posts])
        seconds = np.array([_epoch_seconds(p.timestamp) for p in posts], dtype=np.int64)
        order = np.lexsort((seconds, page))
        same = (np.diff(seconds[order]) == 0) & (np.diff(page[order]) == 0)
        if same.any():  # posts of a page in the same second: their post_ids decide
            tied = order[np.flatnonzero(np.append(same, False) | np.insert(same, 0, False))]
            post_rank = np.zeros(len(posts), dtype=np.int64)
            post_rank[tied] = _codes([posts[i].post_id for i in tied.tolist()])[1]
            order = np.lexsort((post_rank, seconds, page))
        totals = [p.total_interactions for p in posts]
        if sum(totals) > MAX_COUNT:  # so every window sum stays exact in int64 and float64
            raise FatalParseError(f"total_interactions sum to more than {MAX_COUNT}")
        followers = [p.followers_at_posting for p in posts]
        columns = cls(
            page_ids=page_ids,
            page=page[order],
            seconds=seconds[order],
            total=np.array(totals, dtype=np.int64)[order],
            followers=np.array([f or 0 for f in followers], dtype=np.int64)[order],
            has_followers=np.array([f is not None for f in followers], dtype=bool)[order],
        )
        return columns, order


@dataclass
class Dataset:
    """Validated posts sorted by (page_id, timestamp, post_id), the same posts
    as columns, and page metadata."""

    posts: list[PostRecord]
    pages: dict[str, PageMeta]
    columns: PostColumns = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.columns is None:  # built directly rather than by build_dataset
            self.columns = PostColumns.from_records(self.posts)[0]

    @property
    def end_date(self) -> date:
        """Last posting date in the dataset (used as the lifespan anchor)."""
        if not self.columns.seconds.size:
            raise NoUsableDataError("no usable data")
        return date.fromordinal(EPOCH_ORDINAL + int(self.columns.seconds.max()) // DAY_S)


def _text_lines(stream: BinaryIO | bytes | str) -> io.TextIOBase:
    # utf-8-sig: a byte order mark before the header is dropped, not fatal;
    # bytes are decoded while read, so a decoding error arises inside the parse
    if isinstance(stream, str):
        return io.StringIO(stream)
    return io.TextIOWrapper(io.BytesIO(stream) if isinstance(stream, bytes) else stream, encoding="utf-8-sig")


def _release(text: io.TextIOBase) -> None:
    # hand a caller's binary file back open: a wrapper left attached closes
    # it whenever the wrapper is collected, with a ResourceWarning
    if isinstance(text, io.TextIOWrapper):
        text.detach()


def _iso_date(raw: str, what: str) -> date:
    """A YYYY-MM-DD date; fromisoformat alone also reads 20190101 and 2019-W01-1 from Python 3.11 on."""
    try:
        if _DATE.fullmatch(raw):
            return date.fromisoformat(raw)
    except ValueError:  # the form is right but the day does not exist, such as 2019-02-30
        pass
    raise ValueError(f"unparsable {what} {raw!r}")


def parse_timestamp(raw: str) -> datetime:
    """RFC 3339 date-time with explicit offset, normalized to UTC, truncated to seconds.

    Only the section 5.6 grammar passes; ``fromisoformat`` then checks the
    field ranges on a canonical form that every Python version reads alike.
    The fraction is dropped first: offsets are whole minutes, so truncating
    before or after the shift to UTC gives the same second.
    """
    match = _DATE_TIME.fullmatch(raw.strip())
    if match is None:
        raise ValueError(f"unparsable timestamp {raw!r}")
    day, clock, offset = match.groups()
    try:
        ts = datetime.fromisoformat(f"{day}T{clock}{'+00:00' if offset in ('Z', 'z') else offset or ''}")
        utc = ts.astimezone(timezone.utc) if ts.tzinfo else None
    except (ValueError, OverflowError) as exc:  # OverflowError: the UTC instant leaves years 1-9999
        raise ValueError(f"unparsable timestamp {raw!r}") from exc
    if utc is None:
        raise ValueError(f"timestamp {raw!r} lacks a UTC offset")
    return utc


def _opt_count(raw, what: str) -> int | None:
    """Non-negative integer or absence. Accepts CSV strings and JSON numbers."""
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = raw.strip()
        if raw == "":
            return None
        if not raw.isascii() or "_" in raw:  # int() also reads 5_000 and non-ASCII digits
            raise ValueError(f"{what} is not an integer: {raw!r}")
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{what} is not an integer: {raw!r}")
    elif isinstance(raw, bool):
        raise ValueError(f"{what} is not an integer: {raw!r}")
    elif isinstance(raw, int):
        value = raw
    elif isinstance(raw, float) and raw.is_integer():
        value = int(raw)
    else:
        raise ValueError(f"{what} is not an integer: {raw!r}")
    if value < 0:
        raise ValueError(f"{what} is negative")
    if value > MAX_COUNT:
        raise ValueError(f"{what} exceeds {MAX_COUNT}")
    return value


def _opt_text(raw, what: str) -> str:
    """Stripped string, or "" when absent. JSON numbers and the like are rejected."""
    if raw is None:
        return ""
    if not isinstance(raw, str):
        raise ValueError(f"{what} is not a string: {raw!r}")
    return raw.strip()


def _build_post(fields: dict, line: int) -> PostRecord:
    page_id = _opt_text(fields.get("page_id"), "page_id")
    post_id = _opt_text(fields.get("post_id"), "post_id")
    if not page_id:
        raise ValueError("missing page_id")
    if not post_id:
        raise ValueError("missing post_id")
    raw_ts = fields.get("timestamp")
    if raw_ts is None or (isinstance(raw_ts, str) and not raw_ts.strip()):
        raise ValueError("missing timestamp")
    ts = parse_timestamp(str(raw_ts))

    likes = _opt_count(fields.get("likes"), "likes")
    comments = _opt_count(fields.get("comments"), "comments")
    shares = _opt_count(fields.get("shares"), "shares")
    total = _opt_count(fields.get("total_interactions"), "total_interactions")
    followers = _opt_count(fields.get("followers_at_posting"), "followers_at_posting")

    components = (likes, comments, shares)
    if total is None:
        if any(c is None for c in components):
            raise ValueError("missing interaction counts")
        total = likes + comments + shares  # type: ignore[operator]
    elif all(c is not None for c in components):
        if likes + comments + shares != total:  # type: ignore[operator]
            raise ValueError("component sum mismatch")

    return PostRecord(
        page_id=page_id,
        post_id=post_id,
        timestamp=ts,
        total_interactions=total,
        likes=likes,
        comments=comments,
        shares=shares,
        followers_at_posting=followers,
    )


def parse_posts(
    stream: BinaryIO | bytes | str, format: str = "csv"
) -> tuple[list[PostRecord], RejectionReport]:
    """Parse a posts file. Returns (accepted records, rejection report).

    Rows failing validation are quarantined with their line number; a
    malformed header is fatal. Exact post_id collisions are rejected
    (the later row loses).
    """
    if format not in ("csv", "jsonl"):
        raise FatalParseError(f"unknown posts format {format!r}")
    text = _text_lines(stream)
    try:
        return _read_posts(text, format)
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field beyond csv's size limit
        raise FatalParseError(f"unreadable posts file: {exc}") from exc
    finally:
        _release(text)


def _read_posts(text: io.TextIOBase, format: str) -> tuple[list[PostRecord], RejectionReport]:
    report = RejectionReport()
    posts: list[PostRecord] = []
    seen_ids: set[str] = set()

    if format == "csv":
        reader = csv.reader(text)
        try:
            header = next(reader)
        except StopIteration:
            raise FatalParseError("empty posts file: missing header")
        if header != POSTS_HEADER:
            raise FatalParseError(
                f"malformed posts header: expected {','.join(POSTS_HEADER)}, "
                f"got {','.join(header)}"
            )
        for line, row in _records(reader):
            if not row:
                continue
            if len(row) != len(POSTS_HEADER):
                report.add(line, f"expected {len(POSTS_HEADER)} fields, got {len(row)}")
                continue
            fields = dict(zip(POSTS_HEADER, row))
            _accept_post(fields, line, posts, seen_ids, report)
    else:
        for line, raw in enumerate(text, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError):  # also integers past int()'s digit limit, deep nesting
                report.add(line, "invalid JSON")
                continue
            if not isinstance(obj, dict):
                report.add(line, "not a JSON object")
                continue
            unknown = set(obj) - set(POSTS_HEADER)
            if unknown:
                report.add(line, f"unknown fields: {sorted(unknown)}")
                continue
            _accept_post(obj, line, posts, seen_ids, report)

    return posts, report


def _records(reader):
    """(line, row) per CSV record, line being the physical line the record starts on.

    A quoted field may span lines, so records and lines can drift apart;
    ``reader.line_num`` counts lines read so far.
    """
    line = reader.line_num + 1
    for row in reader:
        yield line, row
        line = reader.line_num + 1


def _accept_post(fields, line, posts, seen_ids, report) -> None:
    try:
        post = _build_post(fields, line)
    except ValueError as exc:
        report.add(line, str(exc))
        return
    if post.post_id in seen_ids:
        report.add(line, f"duplicate post_id {post.post_id!r}")
        return
    seen_ids.add(post.post_id)
    posts.append(post)


def parse_pages(
    stream: BinaryIO | bytes | str,
) -> tuple[dict[str, PageMeta], RejectionReport]:
    """Parse a pages CSV into page_id -> PageMeta. Duplicate ids are fatal."""
    text = _text_lines(stream)
    try:
        return _read_pages(text)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FatalParseError(f"unreadable pages file: {exc}") from exc
    finally:
        _release(text)


def _read_pages(text: io.TextIOBase) -> tuple[dict[str, PageMeta], RejectionReport]:
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise FatalParseError("empty pages file: missing header")
    if header != PAGES_HEADER:
        raise FatalParseError(
            f"malformed pages header: expected {','.join(PAGES_HEADER)}, "
            f"got {','.join(header)}"
        )
    pages: dict[str, PageMeta] = {}
    duplicates: list[str] = []
    report = RejectionReport()
    for line, row in _records(reader):
        if not row:
            continue
        if len(row) != len(PAGES_HEADER):
            report.add(line, f"expected {len(PAGES_HEADER)} fields, got {len(row)}")
            continue
        page_id, name, raw_created, raw_score, language = (v.strip() for v in row)
        if not page_id:
            report.add(line, "missing page_id")
            continue
        if page_id in pages:
            duplicates.append(page_id)
            continue
        try:
            created = _iso_date(raw_created, "created_at")
        except ValueError as exc:
            report.add(line, str(exc))
            continue
        score: float | None = None
        if raw_score:
            if not _DECIMAL.fullmatch(raw_score):
                report.add(line, f"newsguard_score is not a number: {raw_score!r}")
                continue
            score = float(raw_score)
            if not 0.0 <= score <= 100.0:
                report.add(line, f"newsguard_score {score} outside [0,100]")
                continue
        pages[page_id] = PageMeta(
            page_id=page_id,
            name=name,
            created_at=created,
            newsguard_score=score,
            language=language or None,
        )
    if duplicates:
        raise FatalParseError(f"duplicate page_id(s): {sorted(set(duplicates))}")
    return pages, report


def build_dataset(
    posts: Iterable[PostRecord], pages: dict[str, PageMeta]
) -> tuple[Dataset, RejectionReport]:
    """Join posts against page metadata, rejecting orphans; sort and build the columns.

    Raises NoUsableDataError when nothing survives filtering.
    """
    report = RejectionReport()
    kept: list[PostRecord] = []
    for i, post in enumerate(posts, start=1):
        if post.page_id not in pages:
            report.add(i, f"unknown page_id {post.page_id!r}")
            continue
        kept.append(post)
    if not kept:
        raise NoUsableDataError("no usable data")
    columns, order = PostColumns.from_records(kept)
    return Dataset(posts=[kept[i] for i in order.tolist()], pages=dict(pages), columns=columns), report


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_posts_csv(posts: Iterable[PostRecord], stream) -> None:
    """Serialize posts in the canonical CSV format (round-trips through parse_posts)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(POSTS_HEADER)
    for p in posts:
        writer.writerow(
            [
                p.page_id,
                p.post_id,
                format_timestamp(p.timestamp),
                "" if p.likes is None else p.likes,
                "" if p.comments is None else p.comments,
                "" if p.shares is None else p.shares,
                p.total_interactions,
                "" if p.followers_at_posting is None else p.followers_at_posting,
            ]
        )


def _format_score(score: float) -> str:
    return repr(score).removesuffix(".0")  # the shortest text that reads back as the same float


def write_pages_csv(pages: dict[str, PageMeta], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PAGES_HEADER)
    for page_id in sorted(pages):
        m = pages[page_id]
        writer.writerow(
            [
                m.page_id,
                m.name,
                m.created_at.isoformat(),
                "" if m.newsguard_score is None else _format_score(m.newsguard_score),
                m.language or "",
            ]
        )
