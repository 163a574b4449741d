"""The column parser against a one-row-at-a-time oracle, and what it must not build.

``parse_posts`` checks each field of a chunk of rows as a whole column and
sends only the values outside the common forms through the scalar
validators. The oracle here is the row-by-row parse it replaced: one
``PostRecord`` per row, built field by field, the first failing field
naming the rejection, a set of seen ``post_id`` s for duplicates. Both must
give the same rows in file order and the same ``(line, reason)`` list, on
files that mix canonical rows with every form the scalar path handles.
"""

import csv
import io
import json
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pagegrowth import cli, ingest, pipeline, synth
from pagegrowth.aggregate import Timescale
from pagegrowth.ingest import (
    POSTS_HEADER,
    FatalParseError,
    PostRecord,
    _opt_count,
    _opt_text,
    parse_posts,
    parse_timestamp,
)

CORPUS = Path(__file__).with_name("golden_corpus")


# ---------------------------------------------------------------------------
# the oracle: one record per row
# ---------------------------------------------------------------------------

def oracle_post(fields: dict) -> PostRecord:
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
    likes, comments, shares, total, followers = (
        _opt_count(fields.get(name), name) for name in POSTS_HEADER[3:]
    )
    components = (likes, comments, shares)
    if total is None:
        if any(c is None for c in components):
            raise ValueError("missing interaction counts")
        total = likes + comments + shares
    elif all(c is not None for c in components) and likes + comments + shares != total:
        raise ValueError("component sum mismatch")
    return PostRecord(page_id, post_id, ts, total, likes, comments, shares, followers)


def oracle_parse(data, fmt: str) -> tuple[list[PostRecord], list[tuple[int, str]]]:
    posts, rejected, seen = [], [], set()

    def accept(fields, line):
        try:
            post = oracle_post(fields)
        except ValueError as exc:
            rejected.append((line, str(exc)))
            return
        if post.post_id in seen:
            rejected.append((line, f"duplicate post_id {post.post_id!r}"))
            return
        seen.add(post.post_id)
        posts.append(post)

    text = ingest._text_lines(data)
    if fmt == "csv":
        reader = csv.reader(text)
        assert next(reader) == POSTS_HEADER
        line = reader.line_num + 1
        for row in reader:
            if row and len(row) != len(POSTS_HEADER):
                rejected.append((line, f"expected {len(POSTS_HEADER)} fields, got {len(row)}"))
            elif row:
                accept(dict(zip(POSTS_HEADER, row)), line)
            line = reader.line_num + 1
    else:
        for line, raw in enumerate(text, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError:
                rejected.append((line, "invalid JSON"))
                continue
            if not isinstance(obj, dict):
                rejected.append((line, "not a JSON object"))
            elif set(obj) - set(POSTS_HEADER):
                rejected.append((line, f"unknown fields: {sorted(set(obj) - set(POSTS_HEADER))}"))
            else:
                accept(obj, line)
    return posts, rejected


# ---------------------------------------------------------------------------
# rows: canonical ones, and every form the scalar path handles
# ---------------------------------------------------------------------------

PAGE_ID = st.one_of(st.sampled_from(["p1", "p2"]), st.sampled_from([" p1", "p2\t", "", "  ", "pé"]))
POST_ID = st.one_of(st.text("ab", min_size=1, max_size=3),
                    st.sampled_from(["", " a", "b ", "a\nb", "x,y", 'say "a"', "é"]))
CANONICAL_TS = st.builds(
    lambda y, mo, d, h, mi, s, off: f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}{off}",
    st.one_of(st.integers(2008, 2022), st.sampled_from([0, 1, 1969, 1970, 9999])),
    st.integers(1, 12), st.integers(1, 31), st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    st.sampled_from(["Z", "+00:00", "-00:00", "+05:30", "-08:00", "+23:59", "-23:59", "+14:00"]),
)
ODD_TIMESTAMPS = [
    "2019-01-01t10:00:00z", "2019-01-01T10:00:00.5Z", "2019-01-01T10:00:00.123456789+05:30",
    "2019-01-01T00:00:00-00:00", "2019-13-01T00:00:00Z", "2019-00-10T00:00:00Z", "2019-01-00T00:00:00Z",
    "2019-04-31T00:00:00Z", "2019-01-01T00:00:00+24:00", "2019-01-01T00:00:00+05:60", "2019-01-01T00:00:00",
    "2019-01-01 00:00:00Z", " 2019-01-01T00:00:00Z", "2019-01-01T00:00:00Z ", "", "   ", "yesterday",
    "2019-01-01T00:00Z", "２019-01-01T00:00:00Z", "2019-01-01T00:00:00+0530", "2019-01-01T00:00:00\x00Z",
]
# the ends of the range, leap days and leap seconds, with offsets either way
EDGE_DAYS = ["0001-01-01", "9999-12-31", "0000-01-01", "0000-12-31", "2020-02-29", "2019-02-29", "2020-02-30"]
EDGE_CLOCKS = ["00:00:00", "00:30:00", "23:30:00", "23:59:59", "23:59:60", "24:00:00"]
EDGE_OFFSETS = ["Z", "+00:00", "-00:00", "+01:00", "-01:00", "+23:59", "-23:59"]
EDGE_TS = st.builds(lambda day, clock, off: f"{day}T{clock}{off}",
                    st.sampled_from(EDGE_DAYS), st.sampled_from(EDGE_CLOCKS), st.sampled_from(EDGE_OFFSETS))
TIMESTAMP = st.one_of(CANONICAL_TS, EDGE_TS, st.sampled_from(ODD_TIMESTAMPS))
ODD_COUNTS = [
    "+5", "007", "5_000", "١٢", "５", "1234567890123456", "999999999999999", "9007199254740991",
    "9007199254740992", "-3", "-0", " 5 ", "5.0", "1e3", "0x10", " ", "5\x00",
]
COUNT = st.one_of(st.integers(0, 10**6).map(str), st.just(""), st.sampled_from(ODD_COUNTS))
COUNTS = st.one_of(
    st.tuples(COUNT, COUNT, COUNT, COUNT),
    st.tuples(st.just(""), st.just(""), st.just(""), COUNT),  # only a total
    st.builds(lambda a, b, c: (str(a), str(b), str(c), ""), *[st.integers(0, 999)] * 3),  # only components
    st.builds(lambda a, b, c, extra: (str(a), str(b), str(c), str(a + b + c + extra)),
              *[st.integers(0, 999)] * 3, st.sampled_from([0, 0, 1])),
)
ROW = st.builds(lambda p, i, t, c, f: [p, i, t, *c, f], PAGE_ID, POST_ID, TIMESTAMP, COUNTS, COUNT)
LINE = st.one_of(ROW, ROW, ROW, st.sampled_from(["", " ", "p1,short,2019-01-01T00:00:00Z", "a,b,c,d,e,f,g,h,i"]))


@st.composite
def csv_files(draw):
    out = io.StringIO()
    terminator = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(POSTS_HEADER)
    for line in draw(st.lists(LINE, max_size=30)):
        if isinstance(line, list):
            writer.writerow(line)
        else:
            out.write(line + terminator)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(terminator)  # no line break after the last row
    return text if draw(st.booleans()) else text.encode()


JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-2, 10**6), st.sampled_from([5.0, 5.5, 1e20]),
                       st.lists(st.integers(), max_size=1))


@st.composite
def jsonl_files(draw):
    lines = []
    for row in draw(st.lists(ROW, max_size=25)):
        obj = {name: draw(st.one_of(st.just(value), JSON_VALUE)) for name, value in zip(POSTS_HEADER, row)}
        obj = {k: v for k, v in obj.items() if v != "" or draw(st.booleans())}  # absent keys, or empty strings
        if draw(st.integers(0, 9)) == 0:
            obj["extra"] = 1
        lines.append(json.dumps(obj))
    lines += draw(st.lists(st.sampled_from(["", "  ", "[1]", "{bad", '"text"']), max_size=3))
    lines = draw(st.permutations(lines))
    return "\n".join(lines).encode()


def every_form() -> list[list[str]]:
    """One otherwise good row per timestamp form and per count form in each count field."""
    stamps = ODD_TIMESTAMPS + [f"{d}T{c}{o}" for d in EDGE_DAYS for c in EDGE_CLOCKS for o in EDGE_OFFSETS]
    rows = [["p1", f"t{i}", ts, "1", "2", "3", "6", "10"] for i, ts in enumerate(stamps)]
    for k in range(3, 8):
        for i, count in enumerate(ODD_COUNTS):
            row = ["p2", f"c{k}-{i}", "2019-01-01T00:00:00Z", "1", "2", "3", "", "10"]
            row[k] = count
            rows.append(row)
    padded = [" p1 ", " pad ", "2019-01-01T00:00:00Z", "", "", "", "5", ""]
    repeated = ["p1", "t0", "2019-01-01T00:00:00Z", "", "", "", "5", ""]
    return [*rows, padded, repeated]


def _csv(rows) -> bytes:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([POSTS_HEADER, *rows])
    return out.getvalue().encode()


EVERY_FORM_CSV = _csv(every_form())
EVERY_FORM_JSONL = "\n".join(json.dumps(dict(zip(POSTS_HEADER, row))) for row in every_form()).encode()


@given(st.one_of(st.tuples(st.just("csv"), csv_files()), st.tuples(st.just("jsonl"), jsonl_files())),
       st.sampled_from([1, 2, 3, ingest._CHUNK_ROWS]))
@example(("csv", EVERY_FORM_CSV), ingest._CHUNK_ROWS)
@example(("csv", EVERY_FORM_CSV), 7)
@example(("jsonl", EVERY_FORM_JSONL), 7)
# a quoted multi-line field in a one-row block: the next record's line number counts both lines
@example(("csv", _csv([["p1", "x" * 70 + "\ny", "2019-01-01T00:00:00Z", "", "", "", "5", ""], *every_form()])), 1)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_columns_match_the_row_oracle(case, chunk_rows):
    fmt, data = case
    expected_posts, expected_rejected = oracle_parse(data, fmt)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):  # small chunks: blocks end between any two records
        posts, report = parse_posts(data, format=fmt)
    assert [(r.line, r.reason) for r in report.rows] == expected_rejected
    assert list(posts) == expected_posts
    assert len(set(posts.page_ids)) == len(posts.page_ids) == len(set(posts.page.tolist()))


def test_duplicate_of_a_rejected_row_is_kept():
    data = ("\n".join([",".join(POSTS_HEADER), "p1,a,bad,,,,5,", "p1,a,2019-01-01T00:00:00Z,,,,6,",
                       "p1,a,2019-01-01T00:00:00Z,,,,7,"]) + "\n").encode()
    posts, report = parse_posts(data)
    assert [p.total_interactions for p in posts] == [6]
    assert [(r.line, r.reason) for r in report.rows] == [(2, "unparsable timestamp 'bad'"),
                                                          (4, "duplicate post_id 'a'")]


# ---------------------------------------------------------------------------
# what the data commands must not build
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_pages", [True, False, None], ids=["True", "False", "synth"])
def test_data_commands_build_no_post_records(monkeypatch, tmp_path, with_pages):
    """Loading and aggregating the corpus (with or without its pages), or running
    synth (None), builds no ``PostRecord``."""
    def no_rows(*args, **kwargs):
        raise AssertionError("a PostRecord was built")

    monkeypatch.setattr(ingest, "PostRecord", no_rows)
    if with_pages is None:
        assert "PostRecord" not in vars(synth)
        argv = ["synth", "--pages-count", "6", "--end", "2018-04-01", "--seed", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        posts = synth.generate(synth.GeneratorConfig(n_pages=6, end=date(2018, 4, 1)), seed=4).posts
        assert len(posts) > 1000 and posts == parse_posts((tmp_path / "posts.csv").read_bytes())[0]
        return
    pages = CORPUS / "pages.csv" if with_pages else None
    dataset, rejected = pipeline.load_dataset(CORPUS / "posts.csv", pages)
    series = {table.timescale: table for table in pipeline.aggregate(dataset)}
    assert dataset.cells.post_count.sum() > 7000 and rejected
    assert len(series[Timescale.W]) > 500


def test_one_long_id_does_not_widen_the_columns():
    # a fixed-width <U100000 id array for 2,000 rows would take about 800 MB
    rows = [f"p1,{'x' * 100_000 if i == 7 else f'post-{i}'},2019-01-01T00:00:00Z,1,2,3,6,100" for i in range(2000)]
    data = ("\n".join([",".join(POSTS_HEADER), *rows]) + "\n").encode()
    tracemalloc.start()
    try:
        posts, report = parse_posts(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(posts) == 2000 and len(report) == 0 and len(posts[7].post_id) == 100_000
    assert peak < 100 * 2**20


def _traced(call):
    """What ``call()`` returns, and the memory it leaves held and its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        return call(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_load_dataset_holds_one_table_at_peak(tmp_path):
    # the cells are built from the parsed table's sort order a column at a time, never
    # beside a sorted copy of the table, and the table is let go once they are built
    data = synth.generate(synth.GeneratorConfig(n_pages=40, end=date(2019, 1, 1)), seed=5)
    with open(tmp_path / "posts.csv", "w") as fh:
        ingest.write_posts_csv(data.posts, fh)
    with open(tmp_path / "pages.csv", "w") as fh:
        ingest.write_pages_csv(data.pages, fh)

    def parse():
        with open(tmp_path / "posts.csv", "rb") as fh:  # streamed, as load_dataset reads it
            return parse_posts(fh)

    (posts, _), table, parse_peak = _traced(parse)
    (dataset, rejected), held, peak = _traced(
        lambda: pipeline.load_dataset(tmp_path / "posts.csv", tmp_path / "pages.csv"))
    assert len(posts) == len(data.posts) > 40_000 and len(dataset.cells) > 14_000 and rejected == []
    assert dataset == ingest.build_dataset(data.posts, data.pages)[0]
    assert peak <= 1.05 * parse_peak
    assert held <= table / 4


def test_build_dataset_leaves_the_callers_table_alone():
    posts = synth.generate(synth.GeneratorConfig(n_pages=3, end=date(2018, 3, 1)), seed=2)
    table = ingest.PostColumns(posts.posts.page_ids, *(getattr(posts.posts, name)[::-1]
                                                      for name in posts.posts._fields[1:]))
    before = [getattr(table, name).copy() for name in table._fields[1:]]
    dataset, _ = ingest.build_dataset(table, posts.pages)
    assert dataset == ingest.build_dataset(posts.posts, posts.pages)[0]
    assert all(np.array_equal(getattr(table, name), b) for name, b in zip(table._fields[1:], before))


def test_fatal_errors_stay_fatal_in_any_chunk():
    rows = [f"p1,a{i},2019-01-01T00:00:00Z,,,,5," for i in range(10)]
    with mock.patch.object(ingest, "_CHUNK_ROWS", 2):
        with pytest.raises(FatalParseError, match="field larger than field limit"):
            parse_posts(("\n".join([",".join(POSTS_HEADER), *rows, "p1," + "b" * 200_000 + ",x,,,,5,"])).encode())
        with pytest.raises(FatalParseError, match="unreadable posts file"):
            parse_posts(("\n".join([",".join(POSTS_HEADER), *rows]) + "\n").encode() + b"\xff\n")
