"""Arbitrary posts files: the parser quarantines or fails cleanly, the CLI exits 0, 2 or 3.

``parse_posts`` may only return or raise ``FatalParseError``; any other
exception is a defect. ``cli.main`` on the same files may only exit with
a documented code, never with a traceback.
"""

import contextlib
import csv
import io
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from pagegrowth.cli import main
from pagegrowth.ingest import POSTS_HEADER, FatalParseError, parse_posts

ZONES = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(-timedelta(hours=8))]
TIMESTAMP = st.one_of(
    st.datetimes(min_value=datetime(2018, 1, 1), max_value=datetime(2018, 12, 31), timezones=st.sampled_from(ZONES))
    .map(datetime.isoformat),
    st.datetimes(timezones=st.sampled_from(ZONES)).map(datetime.isoformat),
    st.sampled_from([
        "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "20190101T000000+0000",
        "2019-W01-2T00:00:00+00:00", "2019-01-03T00:00Z", "2019-01-01T00:00:00+00", "2019-01-01T00:00:00",
        "2019-02-29T00:00:00Z", "2018-06-01t12:00:00.123456789z",
    ]),
    st.text(max_size=30),
)
COUNT = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["", "5_000", "١٢٣", "1e3", "+7", " 8 ", "9" * 20, "9007199254740991", "-0"]),
    st.text(max_size=6),
)
ROW = st.tuples(st.sampled_from(["p1", "p2", " p3", ""]), st.text(max_size=4), TIMESTAMP, COUNT, COUNT, COUNT,
                COUNT, COUNT).map(list)
# a well-formed row, so that some files get past ingest into the statistics
GOOD_ROW = st.tuples(
    st.sampled_from(["p1", "p2", "p3"]), st.integers(0, 10**6).map(str),
    st.datetimes(min_value=datetime(2018, 1, 1), max_value=datetime(2018, 12, 31), timezones=st.sampled_from(ZONES))
    .map(datetime.isoformat),
    st.just(""), st.just(""), st.just(""), st.integers(0, 500).map(str),
    st.one_of(st.just(""), st.integers(10_000, 2_000_000).map(str)),
).map(list)
JUNK = st.one_of(st.text(max_size=40), st.sampled_from(['"unterminated', "a,b", '{"total_interactions": ' + "1" * 5000 + "}"]))


@st.composite
def csv_files(draw, lines=st.lists(st.one_of(GOOD_ROW, ROW, ROW, JUNK), max_size=25)) -> bytes:
    header = draw(st.one_of(st.just(POSTS_HEADER), st.just(POSTS_HEADER), st.lists(st.text(max_size=8), max_size=9)))
    lines = draw(lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for line in lines:
        if isinstance(line, list):
            writer.writerow(line)
        else:
            out.write(line + "\n")
    return out.getvalue().encode()


JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8), TIMESTAMP, COUNT,
                       st.lists(st.integers(), max_size=2))
JSON_OBJECT = st.dictionaries(st.sampled_from([*POSTS_HEADER, "extra"]), JSON_VALUE).map(json.dumps)


@st.composite
def jsonl_files(draw) -> bytes:
    lines = draw(st.lists(st.one_of(JSON_OBJECT, JSON_OBJECT, JUNK), max_size=25))
    return "\n".join(lines).encode()


POSTS_FILES = st.one_of(
    st.tuples(st.just("csv"), csv_files()),
    st.tuples(st.just("jsonl"), jsonl_files()),
    st.tuples(st.sampled_from(["csv", "jsonl"]), st.binary(max_size=200)),
)


@given(POSTS_FILES)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_posts_returns_or_fails_cleanly(case):
    fmt, data = case
    try:
        posts, report = parse_posts(data, format=fmt)
    except FatalParseError:
        return
    assert all(isinstance(row.reason, str) for row in report.rows)
    assert len({p.post_id for p in posts}) == len(posts)


PAGES = b"page_id,name,created_at,newsguard_score,language\np1,One,2015-01-01,30,en\np2,Two,2016-01-01,70,\np3,Three,2010-01-01,90,en\n"


MOSTLY_GOOD = st.lists(st.one_of(GOOD_ROW, GOOD_ROW, GOOD_ROW, ROW, JUNK), min_size=20, max_size=150)


@given(st.one_of(POSTS_FILES, st.tuples(st.just("csv"), csv_files(MOSTLY_GOOD))),
       st.sampled_from(["aggregate", "analyze", "model", "cohort"]), st.booleans())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_with_a_documented_code(case, command, with_pages):
    fmt, data = case
    with tempfile.TemporaryDirectory() as tmp:
        posts, pages = Path(tmp) / f"posts.{fmt}", Path(tmp) / "pages.csv"
        posts.write_bytes(data)
        pages.write_bytes(PAGES)
        argv = [command, "--input", str(posts), "--out", str(Path(tmp) / "out")] + ["--pages", str(pages)] * with_pages
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3)
