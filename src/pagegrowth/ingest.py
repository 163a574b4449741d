"""Canonical data model, parsers for post-level and page-level input files,
and the one reader and writer of every CSV file the package touches.

Input formats
-------------
Four CSV inputs, each with an exact, ordered header:

* posts: ``page_id,post_id,timestamp,likes,comments,shares,total_interactions,followers_at_posting``
* pages: ``page_id,name,created_at,newsguard_score,language``
* size classes (``--classes``): ``label,lower,upper``
* coefficients (``--coefficients``, ``--model``): ``parameter,timescale,beta0,beta1,beta2``

Posts may also arrive as JSONL, one object per line with the same field
names. Empty strings (CSV) and missing/null keys (JSONL) encode absence.

Every CSV input is read by one tokenizer over the file's bytes
(``_csv_blocks``), with the csv module's default rules: a record ends at
LF, CR LF or a lone CR outside quotes; a field opening with ``"`` is
quoted, ``""`` in it standing for one quote; and a quote elsewhere is read
as that module reads it, not strictly (``"ab"c"d`` is ``abc"d``, ``a"b``
stays as it is, and input ending inside quotes ends the field). A byte
order mark before the header is dropped. Text that is not UTF-8, a field
of more than 131,072 characters, an empty file or another header than the
expected one (compared unstripped) is fatal (``FatalParseError``, naming
the kind of file). NUL is an ordinary character. Blank records are
skipped, fields are stripped, and a row is numbered by the physical line
it starts on, since a quoted field may span lines.

Each field's text passes its rule in ``rules``: timestamps, dates
(``created_at``), counts and size-class bounds (up to ``MAX_COUNT``),
scores, betas and each JSONL line. Posts and pages rows that fail
validation are quarantined into a rejection report; only the structural
problems above, duplicate page ids and nothing left after filtering are
fatal. A bad size-class or coefficients row is an error naming its line,
since a partial scheme or table is of no use.

Posts are parsed straight into one table, ``PostColumns``: an array per
field, no object per post. The tokenizer finds the records and fields of
a block of the file with numpy and hands on each field as its offsets in
the block's bytes (``_Fields``), no str per field. Each field of a chunk
of rows is checked as a whole column on those bytes against its common
form (ASCII-digit counts, ``YYYY-MM-DDTHH:MM:SS`` with ``Z`` or
``±hh:mm``), and only the values outside it go through the scalar
validators (``_opt_text``, ``_opt_count``, ``parse_timestamp``); ids are
sliced from the block's text, decoded once. ``build_dataset`` reduces the
joined table to one cell per (page, UTC day) (``DayCells``), all a
``Dataset`` holds besides the page metadata. Both tables, like the later
ones, take length, equality and row selection from ``_Table``; an int
index builds a post as a ``PostRecord``, only on request. Every record and
table class takes construction, equality, hashing and repr from ``_Record``.

Output format
-------------
Every CSV table the package writes goes through ``_write_rows``, a block
of rows at a time: LF line ends, an empty field for an absent count,
quotes round text that holds a comma, a quote, CR or LF (``_quoted``), and
timestamps through ``datetime64`` with zero-padded years, so every value
the parsers accept reads back unchanged. A table names a ``%`` format for
one row, and each block is written with one ``%`` of that format repeated
over the block's values, with no call per row or per value. Text is only
ever a value, never part of the format. The output is what ``format()``
and ``str()`` give: CPython formats a float for ``%.12g`` and for
``format(x, ".12g")`` with the same routine and precision, ``%s`` is
``str()``, and ``%d`` of an int writes its ``str()`` digits.
"""

from __future__ import annotations

import gc
import inspect
import io
import re
from contextlib import contextmanager
from datetime import date, datetime, timedelta, timezone
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import rules

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
ABSENT = -1  # an optional count the row does not give
DAY_S = 86_400
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
EPOCH_ORDINAL = EPOCH.date().toordinal()
_SECOND = timedelta(seconds=1)

_CHUNK_ROWS = 1 << 12  # rows converted to columns at a time
_COUNT_DIGITS = 15  # the longest count the column check reads; longer ones go through _opt_count
_COUNT_FIELDS = POSTS_HEADER[3:]
# UTC instants datetime can hold: years 1 through 9999
_FIRST_SECOND = (datetime(1, 1, 1, tzinfo=timezone.utc) - EPOCH) // _SECOND
_END_SECOND = (datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc) - EPOCH) // _SECOND + 1


class FatalParseError(Exception):
    """Structural problem that invalidates the whole input."""


class NoUsableDataError(FatalParseError):
    """Every row was rejected or the input was empty."""


class _Factory:
    """A field default made anew for each instance by calling ``make``."""

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


class _Record:
    """A class's fields are its annotations, in order, and a field's default is the class attribute of its name
    (a ``_Factory`` one is made anew per instance). The base constructs by position or keyword, then calls
    ``__post_init__``; equal records share type and field values; ``repr`` lists the fields. A subclass declared
    ``frozen=True`` refuses assignment and hashes its field values. Its methods are compiled once, with this
    module, not per class; ``_fields`` names the fields and ``_replace`` copies a record with some changed."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dict(getattr(cls, "__signature__", inspect.Signature()).parameters)  # the base's, then its own
        for name, kind in cls.__dict__.get("__annotations__", {}).items():
            fields[name] = inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=kind,
                                             default=cls.__dict__.get(name, inspect.Parameter.empty))
        cls.__signature__ = inspect.Signature(list(fields.values()), return_annotation=None)  # for help()
        cls._fields = tuple(fields)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._refuse
            if cls.__eq__ is _Record.__eq__:
                cls.__hash__ = _Record._hash_values

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._arguments(args, kwargs)
        self.__dict__.update(zip(cls._fields, args))
        self.__post_init__()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call that does not give each by position."""
        given = cls.__signature__.bind(*args, **kwargs).arguments  # a TypeError where a call would raise one
        return [given[name] if name in given else field.default.make() if type(field.default) is _Factory
                else field.default for name, field in cls.__signature__.parameters.items()]

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def _hash_values(self) -> int:
        return hash(self._values())

    def _refuse(self, name: str, *value) -> None:  # a frozen record's __setattr__ and __delattr__
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class PostRecord(_Record, frozen=True):
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


class PageMeta(_Record, frozen=True):
    page_id: str
    name: str
    created_at: date
    newsguard_score: float | None = None
    language: str | None = None


class RejectedRow(_Record, frozen=True):
    line: int
    reason: str


class RejectionReport(_Record):
    """Quarantine for rows that failed validation."""

    rows: list[RejectedRow] = _Factory(list)

    def add(self, line: int, reason: str) -> None:
        self.rows.append(RejectedRow(line, reason))

    def __len__(self) -> int:
        return len(self.rows)


def _epoch_seconds(ts: datetime) -> int:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - EPOCH) // _SECOND


def _day_date(day: int) -> date:
    """The date of a day number, counted from 1970-01-01."""
    return date.fromordinal(EPOCH_ORDINAL + day)


def _page_codes(names: Sequence[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The names that ``codes`` use, sorted (Python string order), and each code's index among them."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names))).tolist()
    used.sort(key=names.__getitem__)
    remap = np.zeros(len(names), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return [names[i] for i in used], remap[codes]


def _coded(ids: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``ids`` sorted, and each id's index among them."""
    index = {page_id: i for i, page_id in enumerate(dict.fromkeys(ids))}
    return _page_codes(list(index), np.array([index[page_id] for page_id in ids], dtype=np.int64))


def _sum_exceeds(values: np.ndarray, limit: int) -> bool:
    """Whether non-negative int64 values sum past ``limit``, exactly (halves summed apart cannot overflow)."""
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum()) > limit


class _Table(_Record):
    """Equal-length numpy columns (the fields holding an ``np.ndarray``, a row per element along the first axis)
    beside header fields (every other field). Equal tables share type, header and column values. A slice, mask or
    index array selects a sub-table with the same header; an int index (so iteration too) builds the row object
    ``_row`` gives, or raises TypeError where the table has none. Tables are unhashable."""

    def _columns(self) -> list[str]:
        return [name for name in self._fields if isinstance(getattr(self, name), np.ndarray)]

    def __len__(self) -> int:
        return len(getattr(self, self._columns()[0]))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = zip(self._values(), other._values())
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._row(int(key))
        return self._replace(**{name: getattr(self, name)[key] for name in self._columns()})

    def _row(self, i: int):
        raise TypeError(f"{type(self).__name__} rows are not objects: select a sub-table with a slice, mask or array")


class PostColumns(_Table, frozen=True):
    """Posts as parallel arrays, one element per post.

    ``page`` indexes ``page_ids``, the sorted ids of the pages that have
    posts here; ``seconds`` counts from 1970-01-01T00:00:00Z; an optional
    count is ``ABSENT`` where the row does not give it. An int index builds
    that row as a ``PostRecord``.
    """

    page_ids: list[str]
    page: np.ndarray
    post_id: np.ndarray  # str objects
    seconds: np.ndarray
    total: np.ndarray
    likes: np.ndarray
    comments: np.ndarray
    shares: np.ndarray
    followers: np.ndarray

    def _row(self, i: int) -> PostRecord:
        optional = (self.likes, self.comments, self.shares, self.followers)
        likes, comments, shares, followers = (None if c[i] == ABSENT else int(c[i]) for c in optional)
        return PostRecord(self.page_ids[self.page[i]], self.post_id[i],
                          EPOCH + timedelta(seconds=int(self.seconds[i])), int(self.total[i]),
                          likes, comments, shares, followers)

    @classmethod
    def from_records(cls, posts: Sequence[PostRecord]) -> "PostColumns":
        """The posts as a table, in their given order."""
        page_ids, page = _coded([p.page_id for p in posts])

        def counts(values):
            return np.array([ABSENT if v is None else v for v in values], dtype=np.int64)

        return cls(
            page_ids=page_ids,
            page=page,
            post_id=np.array([p.post_id for p in posts], dtype=object),
            seconds=np.array([_epoch_seconds(p.timestamp) for p in posts], dtype=np.int64),
            total=counts(p.total_interactions for p in posts),
            likes=counts(p.likes for p in posts),
            comments=counts(p.comments for p in posts),
            shares=counts(p.shares for p in posts),
            followers=counts(p.followers_at_posting for p in posts),
        )

    def _sort_order(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` sorted by (page_id, seconds, post_id), the order ``_day_cells`` reads them in.

        Raises FatalParseError when their totals sum past MAX_COUNT, so that
        every window sum stays exact in int64 and float64.
        """
        if _sum_exceeds(self.total[rows], MAX_COUNT):
            raise FatalParseError(f"total_interactions sum to more than {MAX_COUNT}")
        page, seconds = self.page[rows], self.seconds[rows]
        order = np.lexsort((seconds, page))
        same = (np.diff(seconds[order]) == 0) & (np.diff(page[order]) == 0)
        if same.any():  # posts of a page in the same second: their post_ids decide
            tied = order[np.flatnonzero(np.append(same, False) | np.insert(same, 0, False))]
            post_rank = np.zeros(rows.size, dtype=np.int64)
            post_rank[tied] = np.unique(self.post_id[rows[tied]], return_inverse=True)[1]
            order = np.lexsort((post_rank, seconds, page))
        return rows[order]


class DayCells(_Table, frozen=True):
    """Posts as one cell per (page, UTC day) with posts, sorted by (page_id, day): ``page`` indexes
    ``page_ids`` and ``day`` counts from 1970-01-01. A cell holds its posts' total_interactions summed, their
    number, and the followers of its first and last observed post in (seconds, post_id) order (0 unless ``observed``).
    """

    page_ids: list[str]
    page: np.ndarray
    day: np.ndarray
    engagement: np.ndarray
    post_count: np.ndarray
    first: np.ndarray
    last: np.ndarray
    observed: np.ndarray


def _day_cells(posts: PostColumns, rows: np.ndarray) -> DayCells:
    """The cells of ``posts``'s ``rows``, built in ``_sort_order``, one gathered column at a time."""
    order = posts._sort_order(rows)
    page, day = posts.page[order], posts.seconds[order] // DAY_S
    opens = np.ones(order.size, dtype=bool)  # the row opens a new (page, day) cell
    opens[1:] = (page[1:] != page[:-1]) | (day[1:] != day[:-1])
    starts = np.flatnonzero(opens)
    page_ids, page = _page_codes(posts.page_ids, page[starts])
    day = day[starts]
    engagement = np.add.reduceat(posts.total[order], starts)
    count = np.diff(np.append(starts, order.size))
    followers = posts.followers[order]
    del order  # a post-length column fewer while the follower columns are built
    seen = np.flatnonzero(followers != ABSENT)
    cell = np.cumsum(opens)[seen]
    cell -= 1
    head, tail = np.ones((2, cell.size), dtype=bool)  # the cell's first observed row, and its last
    head[1:] = tail[:-1] = cell[1:] != cell[:-1]
    first, last = np.zeros((2, starts.size), dtype=np.int64)
    first[cell[head]] = followers[seen[head]]
    last[cell[tail]] = followers[seen[tail]]
    observed = np.zeros(starts.size, dtype=bool)
    observed[cell] = True
    return DayCells(page_ids, page, day, engagement, count, first, last, observed)


class Dataset(_Record):
    """Validated posts as (page, day) cells, and page metadata."""

    cells: DayCells
    pages: dict[str, PageMeta]

    @property
    def end_date(self) -> date:
        """Last posting date in the dataset (used as the lifespan anchor)."""
        return _day_date(int(self.cells.day.max()))


def _text_lines(stream: BinaryIO | bytes | str) -> io.TextIOBase:
    # utf-8-sig: a byte order mark before the first line is dropped, not fatal;
    # bytes are decoded while read, so a decoding error arises inside the parse
    # newline="": lines end at LF, CR LF or a lone CR, as records do in the CSV reader
    if isinstance(stream, str):
        return io.StringIO(stream, newline="")
    return io.TextIOWrapper(io.BytesIO(stream) if isinstance(stream, bytes) else stream,
                            encoding="utf-8-sig", newline="")


@contextmanager
def _decoded(stream: BinaryIO | bytes | str, what: str) -> Iterator[io.TextIOBase]:
    """The input as text (``_text_lines``), for the body of a ``with``: text that is
    not UTF-8 is fatal, and a caller's binary file is handed back open."""
    text = _text_lines(stream)
    try:
        yield text
    except UnicodeDecodeError as exc:
        raise FatalParseError(f"unreadable {what} file: {exc}") from exc
    finally:
        # a wrapper left attached closes the caller's file whenever it is collected, with a ResourceWarning
        if isinstance(text, io.TextIOWrapper):
            text.detach()


# ---------------------------------------------------------------------------
# CSV input: one tokenizer over the file's bytes
# ---------------------------------------------------------------------------

_COMMA, _QUOTE, _CR, _LF = b',"\r\n'
_BOM = b"\xef\xbb\xbf"
_BLOCK_BYTES = 1 << 17  # bytes read and tokenized at a time, besides a record carried over
_FIELD_LIMIT = 131_072  # characters in one field, the csv module's default limit


class _Fields(_Record, frozen=True):
    """Fields as slices of one text: character offsets into ``text`` for the values,
    byte offsets into its UTF-8 ``data`` for the column checks."""

    text: str
    data: np.ndarray  # uint8
    starts: np.ndarray
    ends: np.ndarray
    char_starts: np.ndarray
    char_ends: np.ndarray

    @classmethod
    def of(cls, values: Sequence[str]) -> "_Fields":
        """The values, in order, as fields of their concatenation."""
        encoded = [v.encode("utf-8") for v in values]
        char_ends, ends = (np.cumsum([len(v) for v in x], dtype=np.int64) for x in (values, encoded))
        return cls("".join(values), np.frombuffer(b"".join(encoded), dtype=np.uint8),
                   np.concatenate(([0], ends))[:-1], ends, np.concatenate(([0], char_ends))[:-1], char_ends)

    def strings(self, index) -> list[str]:
        text = self.text
        return [text[a:b] for a, b in zip(self.char_starts[index].tolist(), self.char_ends[index].tolist())]

    def column(self, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data, first byte, byte length) of the fields at ``index``."""
        starts = self.starts[index]
        return self.data, starts, self.ends[index] - starts


def _delimits(codes: np.ndarray) -> np.ndarray:
    return (codes == _COMMA) | (codes == _CR) | (codes == _LF)


def _quote_roles(a: np.ndarray, quotes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where quoted text opens and closes, and which quotes stand for a quote in a field.

    Quoting is regular when every quote that opens by parity starts a field
    and every one that closes by parity ends a field or escapes the next
    quote (``""``); then quoted text is where an odd number of quotes
    precede. Otherwise the quotes are scanned in order as the csv module
    reads them, not strictly: a quote inside an unquoted field is text, and
    text after a closing quote continues the field unquoted.
    """
    n = a.size
    closing = np.arange(quotes.size) % 2 == 1
    adjacent = quotes[1:] == quotes[:-1] + 1
    escapes = closing & np.append(adjacent, False)
    starts_field = (quotes == 0) | _delimits(a[quotes - 1])
    ends_field = (quotes == n - 1) | _delimits(a[np.minimum(quotes + 1, n - 1)])
    if np.where(closing, ends_field | escapes, starts_field | np.insert(adjacent, 0, False)).all():
        return quotes, escapes
    toggles, text = [], np.zeros(quotes.size, dtype=bool)
    positions, starts_field = quotes.tolist(), starts_field.tolist()
    inside, i = False, 0
    while i < len(positions):
        if inside and i + 1 < len(positions) and positions[i + 1] == positions[i] + 1:
            text[i] = True  # "" in quoted text: one quote
            i += 1
        elif inside or starts_field[i]:
            inside = not inside
            toggles.append(positions[i])
        else:
            text[i] = True  # a quote inside an unquoted field
        i += 1
    return np.array(toggles, dtype=np.int64), text


def _tokenize(buf: bytes, line: int, final: bool, what: str):
    """The complete records at the start of ``buf``, the first starting on physical ``line``.

    Returns (fields, lines, widths, stop, line) with each record's start line
    and field count (0 for a blank record), the end of the records in
    ``buf`` and the line after them; or None when no record is complete. A
    record is complete at a line break outside quotes (CR LF, LF or a lone
    CR), and at the end of the input when ``final``, even inside quotes.
    Quotes that delimit quoted text or escape a quote are dropped from the
    fields. Text that is not UTF-8, or a field of more than _FIELD_LIMIT
    characters, is fatal.
    """
    a = np.frombuffer(buf, dtype=np.uint8)
    n = a.size
    special = np.flatnonzero(_delimits(a))
    code = a[special]
    crlf_lf = np.zeros(special.size, dtype=bool)  # the LF of a CR LF ends neither a line nor a record
    crlf_lf[1:] = (code[1:] == _LF) & (code[:-1] == _CR) & (special[1:] == special[:-1] + 1)
    breaks = special[(code != _COMMA) & ~crlf_lf]
    quotes = np.flatnonzero(a == _QUOTE)
    text_quotes = np.zeros(0, dtype=bool)
    bound = ~crlf_lf
    if quotes.size:
        toggles, text_quotes = _quote_roles(a, quotes)
        bound &= np.searchsorted(toggles, special) % 2 == 0
    bounds, term = special[bound], code[bound] != _COMMA

    ends = bounds[term]
    last = ends.size - 1
    if last >= 0 and not final and ends[last] == n - 1 and a[-1] == _CR:
        last -= 1  # a CR at the end may be the first half of a CR LF
    complete = final or last >= 0
    if complete and not final:
        stop = int(ends[last]) + 1
        stop += bool(a[stop - 1] == _CR and a[stop] == _LF)
        kept = np.searchsorted(bounds, ends[last], side="right")
        bounds, term = bounds[:kept], term[:kept]
    else:
        # the whole input; without ``final`` only to bound the fields read so far
        stop = n
        tail = int(ends[-1]) + 1 if ends.size else 0
        tail += bool(0 < tail < n and a[tail - 1] == _CR and a[tail] == _LF)
        if tail < n:
            bounds, term = np.append(bounds, n), np.append(term, True)
    field_ends = bounds
    starts = np.concatenate(([0], bounds + 1))[:-1]
    last_field = np.flatnonzero(term)
    first_field = np.concatenate(([0], last_field + 1))[:-1]
    widths = last_field - first_field + 1
    record_ends = bounds[last_field[:-1]]
    starts[first_field[1:]] += (a[record_ends] == _CR) & (a[record_ends + 1] == _LF)  # a record after CR LF
    record_starts = starts[first_field]
    blank = (widths == 1) & (field_ends[first_field] == record_starts)  # a line break at once: no field at all
    if blank.any():
        keep = np.ones(starts.size, dtype=bool)
        keep[first_field[blank]] = False
        starts, field_ends, widths[blank] = starts[keep], field_ends[keep], 0

    drop = quotes[~text_quotes]
    drop = drop[: np.searchsorted(drop, stop)]
    data = a[:stop]
    if drop.size:
        keep = np.ones(stop, dtype=bool)
        keep[drop] = False
        data = data[keep]
        starts = starts - np.searchsorted(drop, starts)
        field_ends = field_ends - np.searchsorted(drop, field_ends)
    ascii_only = not data.size or data.max() < 0x80
    if ascii_only:
        char_starts, char_ends = starts, field_ends
    else:
        chars = np.concatenate(([0], np.cumsum((data & 0xC0) != 0x80)))  # characters begun before each byte
        char_starts, char_ends = chars[starts], chars[field_ends]
    if (char_ends - char_starts > _FIELD_LIMIT).any():
        raise FatalParseError(f"unreadable {what} file: field larger than field limit ({_FIELD_LIMIT})")
    if not complete:
        return None
    try:
        if ascii_only:
            text = str(data, "ascii")
        else:  # the bytes as read: dropping quotes could join stray bytes into a character
            text = str(memoryview(buf)[:stop], "utf-8")
            if drop.size:
                text = str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise FatalParseError(f"unreadable {what} file: {exc}") from exc
    fields = _Fields(text, data, starts, field_ends, char_starts, char_ends)
    lines = line + np.searchsorted(breaks, record_starts)
    return fields, lines, widths, stop, line + int(np.searchsorted(breaks, stop))


def _csv_blocks(source: BinaryIO | bytes | str, header: list[str], what: str):
    """(fields, lines, widths) per block of a CSV input's records after its header, as ``_tokenize`` gives them.

    The input is read _BLOCK_BYTES at a time; a record cut off by the end of
    a block is read again with the next. A byte order mark before the
    header is dropped (not from a str, which is decoded already). A missing
    header or another one than ``header``, compared unstripped, is fatal.
    """
    bom = _BOM
    if isinstance(source, str):
        bom = None
        try:
            source = source.encode()
        except UnicodeEncodeError as exc:
            raise FatalParseError(f"unreadable {what} file: {exc}") from exc
    read = io.BytesIO(source).read if isinstance(source, bytes) else source.read
    pending = read(len(_BOM))
    if pending == bom:
        pending = b""
    line, seen_header = 1, False
    while True:
        chunk = read(max(_BLOCK_BYTES, len(pending)))
        buf = pending + chunk
        block = _tokenize(buf, line, not chunk, what)
        if block is None:
            pending = buf
            continue
        fields, lines, widths, stop, line = block
        pending = buf[stop:]
        if not seen_header and widths.size:
            got = fields.strings(np.arange(widths[0]))
            if got != header:
                raise FatalParseError(f"malformed {what} header: expected {','.join(header)}, got {','.join(got)}")
            seen_header = True
            skip = widths[0]
            fields = fields._replace(starts=fields.starts[skip:], ends=fields.ends[skip:],
                             char_starts=fields.char_starts[skip:], char_ends=fields.char_ends[skip:])
            lines, widths = lines[1:], widths[1:]
        if widths.size:
            yield fields, lines, widths
        if not chunk:
            if not seen_header:
                raise FatalParseError(f"empty {what} file: missing header")
            return


def _csv_rows(source: BinaryIO | bytes | str, header: list[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """(line, stripped fields) per non-blank record after the header of a CSV input (``_csv_blocks``)."""
    for fields, lines, widths in _csv_blocks(source, header, what):
        values = list(map(str.strip, fields.strings(slice(None))))
        k = 0
        for line, width in zip(lines.tolist(), widths.tolist()):
            if width:
                yield line, values[k:k + width]
            k += width


def parse_timestamp(raw: str) -> datetime:
    """RFC 3339 date-time with explicit offset, normalized to UTC, truncated to seconds."""
    return rules.timestamp(raw)


def _opt_count(raw, what: str) -> int | None:
    """Non-negative integer or absence. Accepts CSV strings and JSON numbers."""
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = raw.strip()
        if raw == "":
            return None
        value = rules.integer(raw, what)
    elif type(raw) is int or (type(raw) is float and raw.is_integer()):  # not a bool
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


def _timestamp_seconds(raw) -> int:
    """Epoch seconds of one timestamp field, or ValueError with the row's rejection reason."""
    if raw is None or (isinstance(raw, str) and not raw.strip()):
        raise ValueError("missing timestamp")
    return _epoch_seconds(parse_timestamp(str(raw)))


# ---------------------------------------------------------------------------
# column checks: each takes one field of a chunk as (data, first byte, byte
# length) per value and returns its values and a mask of those it could not
# read; a byte outside ASCII never passes
# ---------------------------------------------------------------------------

_POWERS = 10 ** np.arange(_COUNT_DIGITS, dtype=np.int64)


def _count_column(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts of 1 to 15 ASCII digits, ABSENT for an empty field."""
    unread = lengths > _COUNT_DIGITS
    lengths = np.where(unread, 0, lengths)
    ends = np.cumsum(lengths)  # of each value among the digits of all
    offsets = ends - lengths
    total = int(ends[-1]) if ends.size else 0
    at = np.repeat(starts - offsets, lengths)
    at += np.arange(total)
    digit = data[at] - np.uint8(48)  # other bytes wrap round past 9
    unread[np.searchsorted(ends, np.flatnonzero(digit > 9), side="right")] = True
    terms = np.repeat(ends - 1, lengths)
    terms -= np.arange(total)  # each digit's place, from the right
    terms = _POWERS[terms] * digit
    counts = np.full(lengths.size, ABSENT, dtype=np.int64)
    given = np.flatnonzero(lengths)
    if given.size:
        counts[given] = np.add.reduceat(terms, offsets[given])
    return counts, unread


_TS_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_TS_OFFSET_DIGITS = [20, 21, 23, 24]
_TS_PUNCTUATION = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _timestamp_column(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of ``YYYY-MM-DDTHH:MM:SS`` followed by ``Z`` or ``±hh:mm``."""
    if not data.size:  # every value empty
        return np.zeros(starts.size, dtype=np.int64), np.ones(starts.size, dtype=bool)
    codes = data.take(starts[:, None] + np.arange(25), mode="clip")  # bytes past a value decide nothing
    digit = codes.astype(np.int64) - 48

    def number(*positions):
        value = np.zeros(starts.size, dtype=np.int64)
        for p in positions:
            value = value * 10 + digit[:, p]
        return value

    is_digit = (codes >= 48) & (codes <= 57)
    sign = codes[:, 19]
    offset_hour, offset_minute = number(20, 21), number(23, 24)
    zulu = (lengths == 20) & (sign == ord("Z"))
    offset = ((lengths == 25) & ((sign == ord("+")) | (sign == ord("-"))) & (codes[:, 22] == ord(":"))
              & is_digit[:, _TS_OFFSET_DIGITS].all(axis=1) & (offset_hour <= 23) & (offset_minute <= 59))
    read = (zulu | offset) & is_digit[:, _TS_DIGITS].all(axis=1)
    for p, char in _TS_PUNCTUATION.items():
        read &= codes[:, p] == ord(char)
    year, month, day = number(0, 1, 2, 3), number(5, 6), number(8, 9)
    hour, minute, second = number(11, 12), number(14, 15), number(17, 18)
    read &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23) & (minute <= 59) & (second <= 59)
    # day numbers through datetime64: the month's first day, and the next month's
    months = np.where(read, (year - 1970) * 12 + month - 1, 0)
    first = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    read &= day <= (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) - first
    shift = np.where(offset, (offset_hour * 60 + offset_minute) * np.where(sign == ord("-"), -60, 60), 0)
    seconds = (first + day - 1) * DAY_S + hour * 3600 + minute * 60 + second - shift
    read &= (seconds >= _FIRST_SECOND) & (seconds < _END_SECOND)  # the UTC instant stays in years 1-9999
    return seconds, ~read


class _ParsedPosts:
    """Accumulates validated chunks of posts in file order, and the rejected rows."""

    def __init__(self):
        self.page_index: dict[str, int] = {}  # page id -> code, in first-seen order
        # each int column grows in place (realloc) as chunks arrive, so that no
        # per-chunk pieces are left to copy into a whole beside them
        self.columns = {name: np.zeros(0, dtype=np.int64)
                        for name in ("lines", "page", "seconds", "total", "likes", "comments", "shares", "followers")}
        self.post_ids: list[str] = []
        self.rejected: list[tuple[int, str]] = []

    def add(self, lines: Sequence[int], fields: _Fields, columns: Sequence[np.ndarray],
            other: Sequence[dict[int, object]] = ()) -> None:
        """Check one chunk of rows and keep its good ones.

        ``columns[j]`` indexes each row's POSTS_HEADER[j] field in
        ``fields``. ``other[j]`` maps each row whose JSON value there is not
        a str (its field is empty) to that value. Such values, and those
        outside the common forms, go through the scalar validators. A bad
        row is rejected with the reason of its first failing field, in the
        order the fields are checked here: id types, missing ids, timestamp,
        each count, then the component sum.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = lines.size
        other = other or [{}] * len(POSTS_HEADER)
        errors: dict[int, str] = {}  # row -> reason

        def scalar(j, values, rows, check):
            """Send the values of field ``j`` at ``rows`` through a scalar validator."""
            for i in rows:
                raw = other[j][i] if i in other[j] else fields.strings(columns[j][i:i + 1])[0]
                try:
                    values[i] = check(raw)
                except ValueError as exc:
                    errors.setdefault(i, str(exc))

        ids = []
        for j, what in enumerate(("page_id", "post_id")):
            values = list(map(str.strip, fields.strings(columns[j])))
            scalar(j, values, list(other[j]), lambda v, what=what: _opt_text(v, what))
            ids.append(values)
        for what, values in zip(("page_id", "post_id"), ids):
            if not all(values):
                for i in np.flatnonzero(~np.fromiter(map(bool, values), dtype=bool, count=n)).tolist():
                    errors.setdefault(i, f"missing {what}")

        seconds, unread = _timestamp_column(*fields.column(columns[2]))
        unread[list(other[2])] = True
        scalar(2, seconds, np.flatnonzero(unread).tolist(), _timestamp_seconds)

        # the five count fields are read as one column, then checked field by field
        values, unread = _count_column(*fields.column(np.concatenate(columns[3:])))
        counts = np.split(values, len(_COUNT_FIELDS))
        for j, (what, values, unread) in enumerate(zip(_COUNT_FIELDS, counts, np.split(unread, len(_COUNT_FIELDS))), 3):
            unread[list(other[j])] = True

            def count(v, what=what):
                value = _opt_count(v, what)
                return ABSENT if value is None else value

            scalar(j, values, np.flatnonzero(unread).tolist(), count)

        likes, comments, shares, total, followers = counts
        parts = likes + comments + shares
        all_parts = (likes != ABSENT) & (comments != ABSENT) & (shares != ABSENT)
        no_total = total == ABSENT
        for reason, rows in (("missing interaction counts", no_total & ~all_parts),
                             ("component sum mismatch", ~no_total & all_parts & (parts != total))):
            for i in np.flatnonzero(rows).tolist():
                errors.setdefault(i, reason)
        total = np.where(no_total, parts, total)

        kept = np.ones(n, dtype=bool)
        kept[list(errors)] = False
        self.rejected += [(int(lines[i]), errors[i]) for i in sorted(errors)]
        for page_id in dict.fromkeys(ids[0]):
            self.page_index.setdefault(page_id, len(self.page_index))
        page = np.fromiter(map(self.page_index.__getitem__, ids[0]), dtype=np.int64, count=n)
        start = len(self.post_ids)
        self.post_ids += [v for v, k in zip(ids[1], kept.tolist()) if k] if errors else ids[1]
        end = len(self.post_ids)
        for column, values in zip(self.columns.values(), (lines, page, seconds, total, likes, comments, shares,
                                                          followers)):
            if end > column.size:
                column.resize(max(column.size + column.size // 4, end), refcheck=False)
            column[start:end] = values[kept]

    def finish(self) -> tuple[PostColumns, RejectionReport]:
        """The accepted posts in file order; a repeated post_id keeps only its first accepted row."""
        for column in self.columns.values():
            column.resize(len(self.post_ids), refcheck=False)
        lines = self.columns.pop("lines")
        post_id = np.array(self.post_ids, dtype=object)
        self.post_ids = []
        # rows whose post_id hashes like another's are compared as strings, in file order
        hashes = np.fromiter(map(hash, post_id), dtype=np.int64, count=post_id.size)
        order = np.argsort(hashes, kind="stable")
        hashes = hashes[order]
        collide = np.zeros(order.size, dtype=bool)
        same = hashes[1:] == hashes[:-1]
        collide[1:] |= same
        collide[:-1] |= same
        seen, repeats = set(), []
        for i in np.sort(order[collide]).tolist():
            if post_id[i] in seen:
                repeats.append(i)
            seen.add(post_id[i])
        if repeats:
            self.rejected += [(int(lines[i]), f"duplicate post_id {post_id[i]!r}") for i in repeats]
            keep = np.ones(post_id.size, dtype=bool)
            keep[repeats] = False
            post_id = post_id[keep]
            for column in self.columns.values():  # in place, one column at a time
                column[: post_id.size] = column[keep]
                column.resize(post_id.size, refcheck=False)
        columns = self.columns
        page_ids, columns["page"] = _page_codes(list(self.page_index), columns["page"])
        self.rejected.sort(key=lambda row: row[0])  # each row starts on its own line
        report = RejectionReport([RejectedRow(line, reason) for line, reason in self.rejected])
        return PostColumns(page_ids, post_id=post_id, **columns), report


def parse_posts(
    stream: BinaryIO | bytes | str, format: str = "csv"
) -> tuple[PostColumns, RejectionReport]:
    """Parse a posts file. Returns (accepted posts in file order, rejection report).

    Rows failing validation are quarantined with their line number; a
    malformed header is fatal. Exact post_id collisions are rejected
    (the later row loses).
    """
    if format not in ("csv", "jsonl"):
        raise FatalParseError(f"unknown posts format {format!r}")
    table = _ParsedPosts()
    if format == "csv":
        width = len(POSTS_HEADER)
        for fields, lines, widths in _csv_blocks(stream, POSTS_HEADER, "posts"):
            wrong = np.flatnonzero((widths != width) & (widths != 0))
            table.rejected += [(line, f"expected {width} fields, got {got}")
                               for line, got in zip(lines[wrong].tolist(), widths[wrong].tolist())]
            rows = np.flatnonzero(widths == width)
            first = (np.cumsum(widths) - widths)[rows]  # each row's first field
            for lo in range(0, rows.size, _CHUNK_ROWS):
                part = slice(lo, lo + _CHUNK_ROWS)
                table.add(lines[rows[part]], fields, [first[part] + j for j in range(width)])
    else:
        with _decoded(stream, "posts") as text:
            _read_json_posts(text, table)
    return table.finish()


def _read_json_posts(text: io.TextIOBase, table: _ParsedPosts) -> None:
    # json makes a tracked dict per record and none of them is part of a cycle,
    # so the cyclic collector would only rescan them: it stays off for the read
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for lines, objects in _chunks(_json_objects(text, table.rejected)):
            n = len(objects)
            values = [obj.get(name) for name in POSTS_HEADER for obj in objects]
            other = [{} for _ in POSTS_HEADER]
            for i, value in enumerate(values):
                if type(value) is not str:
                    other[i // n][i % n] = value
                    values[i] = ""
            table.add(lines, _Fields.of(values), [np.arange(j * n, (j + 1) * n) for j in range(len(POSTS_HEADER))],
                      other)
    finally:
        if was_enabled:
            gc.enable()


def _json_objects(text: io.TextIOBase, rejected: list[tuple[int, str]]):
    """(line, object) per line ``rules.json_object`` accepts; other non-blank lines are rejected."""
    for line, raw in enumerate(text, start=1):
        if raw.strip():
            try:
                obj = rules.json_object(raw, POSTS_HEADER)
            except ValueError as exc:
                rejected.append((line, str(exc)))
            else:
                yield line, obj


def _chunks(items):
    """(lines, values) lists of up to _CHUNK_ROWS (line, value) pairs at a time."""
    lines, values = [], []
    for line, value in items:
        lines.append(line)
        values.append(value)
        if len(values) == _CHUNK_ROWS:
            yield lines, values
            lines, values = [], []
    if values:
        yield lines, values


def parse_pages(stream: BinaryIO | bytes | str) -> tuple[dict[str, PageMeta], RejectionReport]:
    """Parse a pages CSV into page_id -> PageMeta. Duplicate ids are fatal."""
    pages: dict[str, PageMeta] = {}
    duplicates: list[str] = []
    report = RejectionReport()
    for line, row in _csv_rows(stream, PAGES_HEADER, "pages"):
        try:
            if len(row) != len(PAGES_HEADER):
                raise ValueError(f"expected {len(PAGES_HEADER)} fields, got {len(row)}")
            page_id, name, raw_created, raw_score, language = row
            if not page_id:
                raise ValueError("missing page_id")
            if page_id in pages:
                duplicates.append(page_id)
                continue
            created = rules.date(raw_created, "created_at")
            score = rules.number(raw_score, "newsguard_score") if raw_score else None
            if score is not None and not 0.0 <= score <= 100.0:
                raise ValueError(f"newsguard_score {score} outside [0,100]")
            pages[page_id] = PageMeta(page_id, name, created, score, language or None)
        except ValueError as exc:
            report.add(line, str(exc))
    if duplicates:
        raise FatalParseError(f"duplicate page_id(s): {sorted(set(duplicates))}")
    return pages, report


def build_dataset(
    posts: PostColumns | Iterable[PostRecord], pages: dict[str, PageMeta]
) -> tuple[Dataset, RejectionReport]:
    """Join posts against page metadata, rejecting orphans, and reduce them to (page, day) cells.

    Orphans are numbered by their position among the posts. Records are
    first turned into a table; a table is left as it is. Raises
    NoUsableDataError when nothing survives filtering.
    """
    table = posts if isinstance(posts, PostColumns) else PostColumns.from_records(list(posts))
    known = np.array([page_id in pages for page_id in table.page_ids], dtype=bool)[table.page]
    orphans = np.flatnonzero(~known)
    report = RejectionReport([RejectedRow(i + 1, f"unknown page_id {table.page_ids[p]!r}")
                              for i, p in zip(orphans.tolist(), table.page[orphans].tolist())])
    if orphans.size == len(table):
        raise NoUsableDataError("no usable data")
    return Dataset(_day_cells(table, np.flatnonzero(known)), dict(pages)), report


# ---------------------------------------------------------------------------
# output: every CSV table the package writes goes through _write_rows
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """A text field as it stands in a row: quoted, its quotes doubled, when it holds a comma, a quote, CR or LF."""
    return text if _NEEDS_QUOTES.search(text) is None else '"' + text.replace('"', '""') + '"'


def _texts(values: Sequence[str]) -> list[str]:
    """A column of text fields through ``_quoted``; one search when none needs quotes."""
    return list(values) if _NEEDS_QUOTES.search("".join(values)) is None else list(map(_quoted, values))


def _counts(values: np.ndarray, present: np.ndarray) -> list:
    """A column of counts for a ``%s`` field: the ints as they are, ``""`` where not ``present``."""
    column = values.tolist()
    for i in np.flatnonzero(~present).tolist():
        column[i] = ""
    return column


def _write_rows(stream, header: Sequence[str], n: int, template: str, columns) -> None:
    """Write a CSV table: the header, then its ``n`` rows, each as the ``%`` format ``template`` gives it.

    ``columns(part)`` gives the rows in the slice ``part``, one sequence per
    field, so no more than _CHUNK_ROWS rows are held at a time. A chunk of
    ``k`` rows is written with one ``(template * k) % values``, its columns
    interleaved row by row; text is only ever a value, never part of the
    template. A chunk with another number of columns than ``template`` has
    conversions, or a column of another length, raises ValueError.
    """
    width = template.replace("%%", "").count("%")
    stream.write(",".join(map(_quoted, header)) + "\n")
    for lo in range(0, n, _CHUNK_ROWS):
        k = min(n - lo, _CHUNK_ROWS)
        chunk = columns(slice(lo, lo + k))
        if len(chunk) != width:
            raise ValueError(f"{len(chunk)} columns for a row template of {width} fields")
        flat = [None] * (k * width)
        for j, column in enumerate(chunk):
            flat[j::width] = column  # ValueError unless the column holds k values
        stream.write((template * k) % tuple(flat))


def _write_table(stream, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """A small table given as rows of text and numbers; a number is written as ``str`` gives it."""
    _write_rows(stream, header, len(rows), ",".join(["%s"] * len(header)) + "\n", lambda part: [
        [_quoted(v) if isinstance(v, str) else v for v in column] for column in zip(*rows[part], strict=True)])


def write_posts_csv(posts: PostColumns, stream) -> None:
    """Serialize a table of posts in the canonical CSV format; ``parse_posts`` reads back an equal table."""
    page_ids = np.array([_quoted(p) for p in posts.page_ids], dtype=object)
    _write_rows(stream, POSTS_HEADER, len(posts), "%s,%s,%s,%s,%s,%s,%d,%s\n", lambda part: (
        page_ids[posts.page[part]].tolist(),
        _texts(posts.post_id[part]),
        np.datetime_as_string(posts.seconds[part].astype("datetime64[s]"), unit="s", timezone="UTC").tolist(),
        *(_counts(c[part], c[part] != ABSENT) for c in (posts.likes, posts.comments, posts.shares)),
        posts.total[part].tolist(),
        _counts(posts.followers[part], posts.followers[part] != ABSENT),
    ))


def _format_score(score: float) -> str:
    return repr(score).removesuffix(".0")  # the shortest text that reads back as the same float


def write_pages_csv(pages: dict[str, PageMeta], stream) -> None:
    rows = [
        [m.page_id, m.name, m.created_at.isoformat(),
         "" if m.newsguard_score is None else _format_score(m.newsguard_score), m.language or ""]
        for _, m in sorted(pages.items())
    ]
    _write_table(stream, PAGES_HEADER, rows)
