"""Parsing, validation quarantine, and round-trip serialization."""

import gc
import io
import warnings
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagegrowth import ingest
from pagegrowth.ingest import (
    ABSENT,
    MAX_COUNT,
    FatalParseError,
    NoUsableDataError,
    PageMeta,
    PostColumns,
    PostRecord,
    build_dataset,
    parse_pages,
    parse_posts,
    parse_timestamp,
    write_pages_csv,
    write_posts_csv,
)

POSTS_HEADER = "page_id,post_id,timestamp,likes,comments,shares,total_interactions,followers_at_posting"
PAGES_HEADER = "page_id,name,created_at,newsguard_score,language"


def _posts_csv(*rows):
    return (POSTS_HEADER + "\n" + "\n".join(rows) + "\n").encode()


def _pages_csv(*rows):
    return (PAGES_HEADER + "\n" + "\n".join(rows) + "\n").encode()


class TestParsePosts:
    def test_component_sum_accepted(self):
        posts, report = parse_posts(
            _posts_csv("p1,a,2020-01-01T00:00:00Z,10,20,30,60,")
        )
        assert len(posts) == 1 and len(report) == 0
        assert posts[0].total_interactions == 60
        assert posts[0].likes == 10

    def test_total_only_components_absent(self):
        posts, report = parse_posts(_posts_csv("p1,a,2020-01-01T00:00:00Z,,,,60,"))
        assert len(posts) == 1
        p = posts[0]
        assert (p.likes, p.comments, p.shares) == (None, None, None)
        assert p.total_interactions == 60

    def test_component_sum_mismatch_rejected(self):
        posts, report = parse_posts(
            _posts_csv("p1,a,2020-01-01T00:00:00Z,10,20,30,61,")
        )
        assert len(posts) == 0
        assert len(report) == 1
        assert "component sum mismatch" in report.rows[0].reason
        assert report.rows[0].line == 2

    def test_total_derived_from_components(self):
        posts, _ = parse_posts(_posts_csv("p1,a,2020-01-01T00:00:00Z,1,2,3,,"))
        assert posts[0].total_interactions == 6

    def test_malformed_header_fatal(self):
        with pytest.raises(FatalParseError):
            parse_posts(b"page,time\np1,2020\n")

    def test_bad_timestamp_rejected_with_line(self):
        posts, report = parse_posts(
            _posts_csv(
                "p1,a,2020-01-01T00:00:00Z,,,,5,",
                "p1,b,not-a-time,,,,5,",
                "p1,c,2020-01-01T00:00:00,,,,5,",  # naive: no offset
            )
        )
        assert len(posts) == 1
        assert [r.line for r in report.rows] == [3, 4]

    def test_line_is_where_a_multiline_record_starts(self):
        posts, report = parse_posts(
            _posts_csv('p1,"a\nb",2020-01-01T00:00:00Z,,,,5,', "p1,c,not-a-time,,,,5,")
        )
        assert [p.post_id for p in posts] == ["a\nb"]
        assert [r.line for r in report.rows] == [4]
        pages, report = parse_pages(_pages_csv('p1,"Two\nlines",2019-01-01,80,en', "p2,Two,2019-13-01,80,en"))
        assert list(pages) == ["p1"] and [r.line for r in report.rows] == [4]

    def test_offset_normalized_to_utc(self):
        posts, _ = parse_posts(_posts_csv("p1,a,2020-06-01T12:00:00+02:00,,,,5,"))
        assert posts[0].timestamp == datetime(2020, 6, 1, 10, 0, 0, tzinfo=timezone.utc)

    def test_negative_count_rejected(self):
        posts, report = parse_posts(_posts_csv("p1,a,2020-01-01T00:00:00Z,,,,-3,"))
        assert len(posts) == 0 and len(report) == 1

    def test_followers_parsed_or_absent(self):
        posts, _ = parse_posts(
            _posts_csv(
                "p1,a,2020-01-01T00:00:00Z,,,,5,1234",
                "p1,b,2020-01-02T00:00:00Z,,,,5,",
            )
        )
        assert posts[0].followers_at_posting == 1234
        assert posts[1].followers_at_posting is None

    def test_duplicate_post_id_rejected(self):
        posts, report = parse_posts(
            _posts_csv(
                "p1,a,2020-01-01T00:00:00Z,,,,5,",
                "p1,a,2020-01-02T00:00:00Z,,,,6,",
            )
        )
        assert len(posts) == 1
        assert "duplicate post_id" in report.rows[0].reason

    def test_accepted_plus_rejected_equals_input(self):
        rows = [
            "p1,a,2020-01-01T00:00:00Z,,,,5,",
            "p1,b,bad,,,,5,",
            "p1,c,2020-01-03T00:00:00Z,1,1,1,3,",
            "p1,d,2020-01-04T00:00:00Z,1,1,1,4,",
        ]
        posts, report = parse_posts(_posts_csv(*rows))
        assert len(posts) + len(report) == len(rows)

    def test_jsonl(self):
        lines = b"""{"page_id": "p1", "post_id": "a", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
{"page_id": "p1", "post_id": "b", "timestamp": "bad", "total_interactions": 7}
"""
        posts, report = parse_posts(lines, format="jsonl")
        assert len(posts) == 1 and len(report) == 1
        assert posts[0].total_interactions == 7

    def test_jsonl_non_string_id_quarantined(self):
        lines = b"""{"page_id": 7, "post_id": "a", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
{"page_id": "p1", "post_id": ["b"], "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
{"page_id": "p1", "post_id": "c", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
"""
        posts, report = parse_posts(lines, format="jsonl")
        assert [p.post_id for p in posts] == ["c"]
        assert [(r.line, r.reason) for r in report.rows] == [
            (1, "page_id is not a string: 7"),
            (2, "post_id is not a string: ['b']"),
        ]

    def test_jsonl_lone_surrogate_quarantined(self):
        # json reads "\ud800" as a lone surrogate, which no UTF-8 output can hold
        lines = rb"""{"page_id": "p\ud800", "post_id": "a", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
{"page_id": "p1", "post_id": "b\udfff", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
{"page_id": "p1", "post_id": "c\ud83d\ude00", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}
"""
        posts, report = parse_posts(lines, format="jsonl")
        assert [p.post_id for p in posts] == ["c\U0001f600"]  # an escaped pair is one character
        assert [(r.line, r.reason) for r in report.rows] == [
            (1, "page_id is not valid Unicode (lone surrogate)"),
            (2, "post_id is not valid Unicode (lone surrogate)"),
        ]
        # text input can hold one unescaped
        _, report = parse_posts('{"page_id": "p\udc80", "post_id": "d"}\n', format="jsonl")
        assert [(r.line, r.reason) for r in report.rows] == [(1, "page_id is not valid Unicode (lone surrogate)")]

    def test_utf8_bom_before_header(self):
        data = b"\xef\xbb\xbf" + _posts_csv("p1,a,2020-01-01T00:00:00Z,1,2,3,6,")
        for source in (data, io.BytesIO(data)):
            posts, report = parse_posts(source)
            assert len(posts) == 1 and len(report) == 0
            assert posts[0].page_id == "p1"

    def test_counts_beyond_float_precision_quarantined(self):
        posts, report = parse_posts(
            _posts_csv(f"p1,a,2020-01-01T00:00:00Z,,,,{MAX_COUNT},", f"p1,b,2020-01-01T00:00:00Z,,,,1,{MAX_COUNT + 1}")
        )
        assert [p.total_interactions for p in posts] == [MAX_COUNT]
        assert [(r.line, r.reason) for r in report.rows] == [(3, f"followers_at_posting exceeds {MAX_COUNT}")]

    def test_open_files_stay_open_without_resource_warnings(self, tmp_path):
        (tmp_path / "posts.csv").write_bytes(_posts_csv("p1,a,2020-01-01T00:00:00Z,1,2,3,6,"))
        (tmp_path / "pages.csv").write_bytes(_pages_csv("p1,P1,2010-01-01,70,en"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(tmp_path / "posts.csv", "rb") as posts_fh, open(tmp_path / "pages.csv", "rb") as pages_fh:
                posts, _ = parse_posts(posts_fh)
                pages, _ = parse_pages(pages_fh)
                gc.collect()
                assert not posts_fh.closed and not pages_fh.closed
            gc.collect()
        assert len(posts) == 1 and list(pages) == ["p1"]
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_deterministic(self):
        data = _posts_csv(
            "p1,a,2020-01-01T00:00:00Z,1,2,3,6,",
            "p1,b,bad,,,,1,",
        )
        first = parse_posts(data)
        second = parse_posts(data)
        assert list(first[0]) == list(second[0])
        assert first[1].rows == second[1].rows

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_off_for_the_read_and_restored(self, enabled, monkeypatch):
        # only the JSONL read turns the collector off: json makes a dict per record
        seen = []

        def objects(*args):
            seen.append(gc.isenabled())
            yield from json_objects(*args)

        json_objects = ingest._json_objects
        monkeypatch.setattr(ingest, "_json_objects", objects)
        good = b'{"page_id": "p1", "post_id": "a", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 6}\n'
        fatal = [b"\xff\n", good + b"\x80\n"]
        (gc.enable if enabled else gc.disable)()
        try:
            posts, _ = parse_posts(good, format="jsonl")
            assert len(posts) == 1 and gc.isenabled() == enabled
            for data in fatal:
                with pytest.raises(FatalParseError, match="unreadable posts file"):
                    parse_posts(data, format="jsonl")
                assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [False, False, False]  # each file reached the loop


class TestParseTimestamp:
    def test_second_precision(self):
        ts = parse_timestamp("2020-01-01T00:00:00.750Z")
        assert ts.microsecond == 0

    def test_rejects_naive(self):
        with pytest.raises(ValueError, match=r"^timestamp '2020-01-01T00:00:00' lacks a UTC offset$"):
            parse_timestamp("2020-01-01T00:00:00")

    @pytest.mark.parametrize(
        "raw",
        [
            "20190101T000000+0000",  # ISO 8601 basic format
            "2019-W01-2T00:00:00+00:00",  # week date
            "2019-01-03T00:00Z",  # no seconds
            "2019-01-01T00:00:00+00",  # offset without minutes
            "2019-01-01 00:00:00Z",  # space separator
            "2019-01-01T00:00:00+24:00",
            "2019-01-01T00:00:60Z",  # leap second: datetime has no 60th second
            "2019-02-29T00:00:00Z",
            "\uff12019-01-01T00:00:00Z",  # a full-width digit
            "0001-01-01T00:00:00+01:00",  # before year 1 in UTC
            "9999-12-31T23:59:59-01:00",  # after year 9999 in UTC
        ],
    )
    def test_only_rfc3339_date_times(self, raw):
        with pytest.raises(ValueError, match=r"^unparsable timestamp "):
            parse_timestamp(raw)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("2019-01-01t10:00:00z", datetime(2019, 1, 1, 10, tzinfo=timezone.utc)),
            ("2019-01-01T10:00:00.123456789+05:30", datetime(2019, 1, 1, 4, 30, tzinfo=timezone.utc)),
            ("2019-01-01T00:00:00.9-00:00", datetime(2019, 1, 1, tzinfo=timezone.utc)),
            ("1969-12-31T23:59:59.5-08:00", datetime(1970, 1, 1, 7, 59, 59, tzinfo=timezone.utc)),
        ],
    )
    def test_accepted_forms(self, raw, expected):
        assert parse_timestamp(raw) == expected


class TestStrictFields:
    @pytest.mark.parametrize("raw", ["5_000", "\u0661\u0662\u0663", "\uff15", "+5", "-0"])
    def test_count_must_be_ascii_digits(self, raw):
        posts, report = parse_posts(_posts_csv("p1,a,2020-01-01T00:00:00Z,,,,7,", f"p1,b,2020-01-01T00:00:00Z,,,,{raw},"))
        assert [p.post_id for p in posts] == ["a"]
        assert [r.reason for r in report.rows] == [f"total_interactions is not an integer: {raw!r}"]

    @pytest.mark.parametrize("raw", ["20190101", "2019-W01-1", "2019-001"])
    def test_created_at_must_be_a_calendar_date(self, raw):
        pages, report = parse_pages(_pages_csv("p1,One,2019-01-01,80,en", f"p2,Two,{raw},80,en"))
        assert list(pages) == ["p1"]
        assert [r.reason for r in report.rows] == [f"unparsable created_at {raw!r}"]

    @pytest.mark.parametrize("raw", ["6_0", "\u0666\u0660", "nan", "inf", "-Infinity", "1e", "0x10", "."])
    def test_score_must_be_an_ascii_decimal(self, raw):
        pages, report = parse_pages(_pages_csv("p1,One,2019-01-01,80,en", f"p2,Two,2019-01-01,{raw},en"))
        assert list(pages) == ["p1"]
        assert [r.reason for r in report.rows] == [f"newsguard_score is not a number: {raw!r}"]

    @pytest.mark.parametrize("raw", ["72.5", "100", "1e-05", "-0", "0.", ".5", "2.5E+01", "+7"])
    def test_score_decimal_forms(self, raw):
        pages, report = parse_pages(_pages_csv(f"p1,One,2019-01-01,{raw},en"))
        assert len(report) == 0 and pages["p1"].newsguard_score == float(raw)

    def test_undecodable_file_is_fatal(self):
        with pytest.raises(FatalParseError, match="unreadable posts file"):
            parse_posts(_posts_csv("p1,a,2020-01-01T00:00:00Z,,,,5,") + b"\xff\n")
        with pytest.raises(FatalParseError, match="unreadable pages file"):
            parse_pages(b"\x80" + _pages_csv())

    def test_oversized_field_is_fatal(self):
        with pytest.raises(FatalParseError, match="field larger than field limit"):
            parse_posts(_posts_csv("p1," + "a" * 200_000 + ",2020-01-01T00:00:00Z,,,,5,"))

    def test_json_number_past_the_digit_limit_is_quarantined(self):
        lines = b'{"page_id": "p1", "post_id": "a", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7}\n'
        lines += b'{"total_interactions": ' + b"1" * 5000 + b"}\n"
        posts, report = parse_posts(lines, format="jsonl")
        assert len(posts) == 1 and [(r.line, r.reason) for r in report.rows] == [(2, "invalid JSON")]

    @pytest.mark.parametrize("depth, reason", [
        (2, "likes is not an integer: []"),
        # json reads 1,100 levels on Python 3.12 and 3.13 but not on 3.10 and 3.11, and how deep it
        # reads on those depends on the caller's stack: past 100 levels a line is invalid everywhere
        (101, "invalid JSON"), (1_100, "invalid JSON"), (5_000, "invalid JSON"),
    ])
    def test_json_nesting_past_100_levels_is_invalid(self, depth, reason):
        row = b'{"page_id": "p1", "post_id": "%s", "timestamp": "2020-01-01T00:00:00Z", "total_interactions": 7'
        lines = row % b"a" + b"}\n" + row % b"b" + b', "likes": ' + b"[" * (depth - 1) + b"]" * (depth - 1) + b"}\n"
        posts, report = parse_posts(lines, format="jsonl")
        assert len(posts) == 1 and [(r.line, r.reason) for r in report.rows] == [(2, reason)]


class TestParsePages:
    def test_utf8_bom_before_header(self):
        data = b"\xef\xbb\xbf" + _pages_csv("p1,One,2015-01-01,80,en")
        for source in (data, io.BytesIO(data)):
            pages, report = parse_pages(source)
            assert list(pages) == ["p1"] and len(report) == 0

    def test_score_parsed(self):
        pages, report = parse_pages(_pages_csv("p1,Daily Bugle,2010-05-01,92.5,en"))
        assert pages["p1"].newsguard_score == 92.5
        assert len(report) == 0

    def test_score_absent(self):
        pages, _ = parse_pages(_pages_csv("p1,Daily Bugle,2010-05-01,,"))
        assert pages["p1"].newsguard_score is None
        assert pages["p1"].language is None

    def test_duplicate_page_fatal(self):
        with pytest.raises(FatalParseError, match="p1"):
            parse_pages(
                _pages_csv("p1,A,2010-01-01,50,", "p1,B,2011-01-01,60,")
            )

    def test_score_out_of_range_rejected(self):
        pages, report = parse_pages(_pages_csv("p1,A,2010-01-01,150,"))
        assert pages == {} and len(report) == 1


class TestBuildDataset:
    def _posts(self, *page_ids):
        return [
            PostRecord(
                page_id=pid,
                post_id=f"{pid}-{i}",
                timestamp=datetime(2020, 1, 1 + i, tzinfo=timezone.utc),
                total_interactions=5,
            )
            for i, pid in enumerate(page_ids)
        ]

    def _pages(self, *page_ids):
        return {
            pid: PageMeta(pid, pid, date(2010, 1, 1)) for pid in page_ids
        }

    def test_known_pages_kept(self):
        ds, report = build_dataset(self._posts("p1", "p1", "p1"), self._pages("p1"))
        assert len(ds.cells) == 3 and ds.cells.post_count.tolist() == [1, 1, 1] and len(report) == 0

    def test_unknown_page_rejected_then_fatal_when_empty(self):
        with pytest.raises(NoUsableDataError):
            build_dataset(self._posts("ghost"), self._pages("p1"))

    def test_sorted_output(self):
        posts = list(reversed(self._posts("p2", "p1", "p1")))
        ds, _ = build_dataset(posts, self._pages("p1", "p2"))
        keys = [(ds.cells.page_ids[p], d) for p, d in zip(ds.cells.page.tolist(), ds.cells.day.tolist())]
        assert keys == sorted(keys) == [("p1", 18263), ("p1", 18264), ("p2", 18262)]  # 2020-01-02, -03 and -01

    def test_interaction_sum_beyond_float_precision_fatal(self):
        posts = self._posts("p1", "p1")
        posts[0] = PostRecord("p1", "big", posts[0].timestamp, MAX_COUNT)
        with pytest.raises(FatalParseError, match="sum to more than"):
            build_dataset(posts, self._pages("p1"))

    def test_columns_follow_the_sorted_posts(self):
        # 2020-01-02 of p1: observed at 00:00 (by post_id, before p1-1) and 12:00, then unobserved at 18:00
        day = datetime(2020, 1, 2, tzinfo=timezone.utc)
        posts = self._posts("p2", "p1", "p1") + [
            PostRecord("p1", "p1-1c", day.replace(hour=18), 2),
            PostRecord("p1", "p1-1b", day.replace(hour=12), 3, followers_at_posting=11),
            PostRecord("p1", "p1-0b", day, 7, followers_at_posting=9),
        ]
        ds, _ = build_dataset(list(reversed(posts)), self._pages("p1", "p2"))
        cells = ds.cells
        assert cells.page_ids == ["p1", "p2"] and cells.page.tolist() == [0, 0, 1]
        assert cells.day.tolist() == [18263, 18264, 18262]
        assert cells.engagement.tolist() == [17, 5, 5] and cells.post_count.tolist() == [4, 1, 1]
        assert cells.first.tolist() == [9, ABSENT, ABSENT] and cells.last.tolist() == [11, ABSENT, ABSENT]
        assert ds.end_date == date(2020, 1, 3)

    def test_datasets_compare_by_their_rows_and_pages(self):
        posts = self._posts("p2", "p1", "p1")
        ds, _ = build_dataset(posts, self._pages("p1", "p2"))
        assert ds == build_dataset(list(reversed(posts)), self._pages("p1", "p2"))[0]
        assert ds != build_dataset(posts, self._pages("p1", "p2", "p3"))[0]
        # a post later in its day: the cells, and so the datasets, are the same
        later = PostRecord("p2", "p2-0", posts[0].timestamp.replace(hour=23), 5)
        assert ds == build_dataset([later, *posts[1:]], self._pages("p1", "p2"))[0]
        for changed in (PostRecord("p2", "p2-0", posts[0].timestamp, 6),
                        PostRecord("p2", "p2-0", posts[0].timestamp, 5, followers_at_posting=0),
                        PostRecord("p1", "p2-0", posts[0].timestamp, 5)):
            assert ds != build_dataset([changed, *posts[1:]], self._pages("p1", "p2"))[0]
        assert ds != build_dataset(posts[:2], self._pages("p1", "p2"))[0]

    def test_tables_with_the_same_pages_differ_by_row_page(self):
        first, second, third = self._posts("p1", "p1", "p2")
        moved = PostRecord("p2", second.post_id, second.timestamp, second.total_interactions)
        table = PostColumns.from_records([first, second, third])
        assert table == PostColumns.from_records([first, second, third])
        assert table != PostColumns.from_records([first, moved, third])


timestamps = st.datetimes(
    min_value=datetime(1, 1, 1),
    max_value=datetime(9999, 12, 31, 23, 59, 59),
).map(lambda d: d.replace(microsecond=0, tzinfo=timezone.utc))

# any id the parser keeps: non-empty and its own strip(), here with the
# characters that need quotes
ends = st.sampled_from(list('ab,"'))
ids = st.one_of(ends, st.tuples(ends, st.text(st.sampled_from(list('ab ,"\r\n')), max_size=6), ends).map("".join))
counts = st.integers(min_value=0, max_value=10**9)


@st.composite
def post_records(draw):
    parts = draw(st.one_of(st.just((None, None, None)), st.tuples(counts, counts, counts)))
    total = draw(counts) if parts[0] is None else sum(parts)
    return PostRecord(draw(ids), draw(ids), draw(timestamps), total, *parts,
                      followers_at_posting=draw(st.one_of(st.none(), counts)))


class TestRoundTrip:
    @given(st.lists(post_records(), max_size=30, unique_by=lambda p: p.post_id))
    @settings(max_examples=200, deadline=None)
    def test_posts_round_trip_identity(self, posts):
        buf = io.StringIO()
        write_posts_csv(PostColumns.from_records(posts), buf)
        parsed, report = parse_posts(buf.getvalue().encode())
        assert len(report) == 0
        assert list(parsed) == posts

    @given(st.dictionaries(ids, st.one_of(st.just(""), ids), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_page_texts_round_trip(self, names):
        pages = {i: PageMeta(i, name, date(2015, 1, 1), None, None) for i, name in names.items()}
        buf = io.StringIO()
        write_pages_csv(pages, buf)
        parsed, report = parse_pages(buf.getvalue().encode())
        assert len(report) == 0
        assert parsed == pages

    def test_pages_round_trip(self):
        pages = {
            "p1": PageMeta("p1", "With, comma", date(2012, 3, 4), 61.5, "de"),
            "p2": PageMeta("p2", "Bare", date(2015, 7, 8), None, None),
        }
        buf = io.StringIO()
        write_pages_csv(pages, buf)
        parsed, report = parse_pages(buf.getvalue().encode())
        assert len(report) == 0
        assert parsed == pages

    @given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=100.0), st.just(-0.0)), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_scores_round_trip(self, scores):
        pages = {f"p{i}": PageMeta(f"p{i}", "Name", date(2015, 1, 1), s, "en") for i, s in enumerate(scores)}
        buf = io.StringIO()
        write_pages_csv(pages, buf)
        parsed, report = parse_pages(buf.getvalue())
        assert len(report) == 0
        assert {i: p.newsguard_score for i, p in parsed.items()} == {
            i: p.newsguard_score for i, p in pages.items()
        }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("absent_share", [0.0, 0.3])
    def test_count_column_text_is_numpy_text(self, seed, absent_share):
        # a count column is written as numpy formats the counts, empty where absent
        rng = np.random.default_rng(seed)
        values = rng.integers(0, MAX_COUNT + 1, 5_000, dtype=np.int64)
        values[:2] = 0, MAX_COUNT
        values[rng.random(values.size) < absent_share] = ABSENT
        present = values != ABSENT
        assert present.all() == (absent_share == 0.0)
        out = io.StringIO()
        ingest._write_rows(out, ["count"], values.size, "%s\n",
                           lambda part: [ingest._counts(values[part])])
        expected = np.where(present, values.astype(str), "").tolist()
        assert out.getvalue() == "count\n" + "".join(f"{text}\n" for text in expected)
