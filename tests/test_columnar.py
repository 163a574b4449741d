"""The columnar kernel against a brute-force, one-post-at-a-time oracle.

``aggregate_dataset``, ``aggregate_engagement`` and ``pooled_growth_samples``
work on arrays; the oracle here groups ``PostRecord`` objects into
calendar windows with ``datetime`` arithmetic and applies every rule by
``min``/``max`` over explicit keys. Both must agree exactly, floats
included, on random pages around awkward dates: before 1970 and after
2038, ISO week 53 and year ends, Feb 29.
"""

import copy
import csv
import dataclasses
import inspect
import io
import math
import random
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagegrowth import aggregate, cohort, growth, ingest, model, pipeline, stats, synth
from pagegrowth.aggregate import SeriesEntry, Timescale, Window, aggregate_dataset, aggregate_engagement
from pagegrowth.growth import METRICS, GrowthSample, GrowthSamples, SkipReport, growth_samples, pooled_growth_samples
from pagegrowth.ingest import Dataset, PageMeta, PostColumns, PostRecord, build_dataset
from pagegrowth.model import SIM_TIMESCALES
from pagegrowth.synth import GeneratorConfig, generate

ANCHORS = [
    date(1900, 3, 1),
    date(1960, 2, 29),
    date(1969, 11, 15),
    date(1969, 12, 29),
    date(1970, 1, 1),
    date(2015, 12, 31),  # 2015 has an ISO week 53
    date(2020, 12, 31),  # and so has 2020
    date(2019, 6, 15),
    date(2020, 2, 15),
    date(2024, 2, 29),
    date(2038, 1, 19),
    date(2096, 2, 29),
]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def oracle_window(d: date, scale: Timescale) -> tuple[date, date]:
    if scale is Timescale.D:
        return d, d + timedelta(days=1)
    if scale is Timescale.W:
        start = d - timedelta(days=d.weekday())
        return start, start + timedelta(days=7)
    months = 1 if scale is Timescale.M else 3
    month = (d.month - 1) // months * months + 1
    end_year, end_month = divmod(month - 1 + months, 12)
    return date(d.year, month, 1), date(d.year + end_year, end_month + 1, 1)


def oracle_followers(bucket, start: date, scale: Timescale, quarter_rule: str):
    observed = [p for p in bucket if p.followers_at_posting is not None]
    if not observed:
        return None
    if scale is Timescale.M:
        mid = start.replace(day=15)
        pick = min(observed, key=lambda p: (abs((p.timestamp.date() - mid).days), p.timestamp, p.post_id))
    elif scale is Timescale.Q and quarter_rule == "latest":
        pick = max(observed, key=lambda p: (p.timestamp, p.post_id))
    else:
        pick = min(observed, key=lambda p: (p.timestamp, p.post_id))
    return pick.followers_at_posting


def oracle_entries(posts, scale: Timescale, quarter_rule: str) -> list[SeriesEntry]:
    buckets: dict[tuple[date, date], list[PostRecord]] = {}
    for p in posts:
        buckets.setdefault(oracle_window(p.timestamp.date(), scale), []).append(p)
    entries = []
    for (start, end), bucket in sorted(buckets.items()):
        total = sum(p.total_interactions for p in bucket)
        entries.append(
            SeriesEntry(
                Window(scale, start, end),
                total,
                total / len(bucket),
                len(bucket),
                oracle_followers(bucket, start, scale, quarter_rule),
            )
        )
    return entries


def oracle_samples(page_id, scale, entries, metric):
    samples, skips = [], SkipReport()
    for earlier, later in zip(entries, entries[1:]):
        if later.window.start != earlier.window.end:
            continue
        v0, v1 = getattr(earlier, metric), getattr(later, metric)
        if v0 is None or v1 is None:
            skips.missing_followers += 1
        elif v0 <= 0 or v1 <= 0:
            skips.zero_value += 1
        else:
            gross = v1 / v0
            samples.append(
                GrowthSample(page_id, scale, later.window.start, metric, gross, math.log(gross),
                             earlier.engagement, earlier.followers)
            )
    return samples, skips


# ---------------------------------------------------------------------------
# random pages
# ---------------------------------------------------------------------------

PAGE = st.sampled_from(["a", "b", "c"])
SECOND = st.one_of(st.sampled_from([0, 1, 43_200, 86_399]), st.integers(0, 86_399))  # of the day
TOTAL = st.one_of(st.just(0), st.integers(0, 1_000))
FOLLOWERS = st.one_of(st.none(), st.just(0), st.integers(1, 10**6))
# days from the page's anchor: near it, or months away
post_fields = st.tuples(PAGE, st.one_of(st.integers(-3, 3), st.integers(-120, 120)), SECOND, TOTAL, FOLLOWERS)
# a few days either side of the 15th, where the monthly rule decides
mid_month = st.tuples(PAGE, st.integers(-4, 4), SECOND, TOTAL, FOLLOWERS)


@st.composite
def corpora(draw, anchors=ANCHORS, fields=post_fields):
    anchors = {page: draw(st.sampled_from(anchors)) for page in "abc"}
    rows = draw(st.lists(fields, min_size=1, max_size=40))
    # distinct ids whose string order differs from the input order
    ids = draw(st.lists(st.text("xyz0", min_size=1, max_size=4), min_size=len(rows), max_size=len(rows), unique=True))
    posts = []
    for (page, offset, second, total, followers), post_id in zip(rows, ids):
        day = anchors[page] + timedelta(days=offset)
        ts = datetime(day.year, day.month, day.day, tzinfo=timezone.utc) + timedelta(seconds=second)
        posts.append(PostRecord(page, post_id, ts, total, followers_at_posting=followers))
    return posts


@given(corpora(), st.sampled_from(list(Timescale)), st.sampled_from(["latest", "earliest"]))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_oracle(posts, scale, quarter_rule):
    check_against_oracle(posts, scale, quarter_rule)


@given(corpora([date(1969, 11, 15), date(2020, 2, 15), date(2041, 12, 15)], mid_month))
@settings(max_examples=100, deadline=None)
def test_monthly_rule_matches_oracle(posts):
    check_against_oracle(posts, Timescale.M, "latest")


def check_against_oracle(posts, scale, quarter_rule):
    pages = {p.page_id: PageMeta(p.page_id, p.page_id, date(1900, 1, 1)) for p in posts}
    dataset, _ = build_dataset(posts, pages)
    table = aggregate_dataset(dataset, scale, quarter_rule)
    assert table.page_ids == sorted(pages) and sorted(table.page.tolist()) == table.page.tolist()
    per_page = {metric: [] for metric in METRICS}
    for code, page_id in enumerate(table.page_ids):
        series = table[table.page == code]
        page_posts = [p for p in posts if p.page_id == page_id]
        expected = oracle_entries(page_posts, scale, quarter_rule)
        assert series.entries == expected
        assert series.mean_engagement.tolist() == [e.mean_engagement for e in expected]
        random.Random(len(page_posts)).shuffle(page_posts)
        assert aggregate_engagement(page_posts, scale, quarter_rule).entries == expected
        for metric in METRICS:
            oracle = oracle_samples(page_id, scale, expected, metric)
            samples, skips = growth_samples(series, metric)
            assert (list(samples), skips) == oracle
            per_page[metric].append(oracle)
    for metric, oracles in per_page.items():
        check_pooled(table, metric, oracles)


def check_pooled(table, metric, oracles):
    """The pooled samples equal the per-page oracle outputs concatenated in page order."""
    pooled, skips = pooled_growth_samples(table, metric)
    assert list(pooled) == [s for samples, _ in oracles for s in samples]
    assert skips == SkipReport(sum(k.zero_value for _, k in oracles), sum(k.missing_followers for _, k in oracles))
    assert pooled[:].log_growth.tolist() == [s.log_growth for s in pooled]


# ---------------------------------------------------------------------------
# the cases the property must not leave to chance
# ---------------------------------------------------------------------------

def _post(post_id, ts, followers, total=1):
    return PostRecord("p", post_id, ts, total, followers_at_posting=followers)


def _utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def test_equidistant_from_the_15th_keeps_the_earlier_observation():
    posts = [_post("a", _utc(2021, 6, 17), 970), _post("b", _utc(2021, 6, 13), 930)]
    (entry,) = aggregate_engagement(posts, Timescale.M).entries
    assert entry.followers == 930


def test_same_second_posts_go_by_post_id():
    ts = _utc(1969, 12, 31, 23, 59, 59)
    posts = [_post("b", ts, 2), _post("a", ts, 1), _post("c", ts, 3)]
    assert aggregate_engagement(posts, Timescale.D).entries[0].followers == 1
    assert aggregate_engagement(posts, Timescale.Q, "latest").entries[0].followers == 3


def test_a_day_observed_twice_then_not_gives_each_rule_its_observation():
    # June 14: observed at 08:00 and 20:00, then a post without followers at 23:00
    day = [_post("a", _utc(2021, 6, 14, 8), 140), _post("b", _utc(2021, 6, 14, 20), 141),
           _post("c", _utc(2021, 6, 14, 23), None, total=5)]
    for scale in (Timescale.D, Timescale.W, Timescale.M):
        assert [e.followers for e in aggregate_engagement(day, scale).entries] == [140]
    assert aggregate_engagement(day, Timescale.Q, "earliest").entries[0].followers == 140
    assert aggregate_engagement(day, Timescale.Q, "latest").entries[0].followers == 141
    # June 16 is as near the 15th, June 17 farther: the month keeps June 14's first observation
    month = day + [_post("d", _utc(2021, 6, 16, 1), 160), _post("e", _utc(2021, 6, 17), 170)]
    (entry,) = aggregate_engagement(month, Timescale.M).entries
    assert (entry.followers, entry.engagement, entry.post_count) == (140, 9, 5)
    for scale in Timescale:
        for quarter_rule in ("latest", "earliest"):
            check_against_oracle(month, scale, quarter_rule)


def test_gaps_break_adjacency_and_skips_are_counted():
    days = [_utc(2020, 12, 28), _utc(2021, 1, 4), _utc(2021, 1, 18), _utc(2021, 1, 25)]
    posts = [_post(str(i), ts, f, total=t) for i, (ts, f, t) in enumerate(zip(days, [10, None, 30, 40], [5, 0, 7, 9]))]
    series = aggregate_engagement(posts, Timescale.W)  # week 53 of 2020, then weeks 1, 3 and 4
    engagement, skips = growth_samples(series, "engagement")
    assert [s.window_start for s in engagement] == [date(2021, 1, 25)]
    assert skips == SkipReport(zero_value=1)
    followers, skips = growth_samples(series, "followers")
    assert [s.gross_growth for s in followers] == [40 / 30]
    assert skips == SkipReport(missing_followers=1)


def test_pages_meeting_end_to_start_are_not_paired():
    # page a posts in the weeks of Jan 4 and 11, page b in those of Jan 18 and 25:
    # a's last window ends on the day b's first window starts. Page ab sorts between
    # them and posts once; with it dropped, a's and b's windows are adjacent rows
    weeks = [_utc(2021, 1, 4), _utc(2021, 1, 11), _utc(2021, 1, 18), _utc(2021, 1, 25)]
    posts = [PostRecord(page, f"{page}{i}", ts, 10 * (i + 1), followers_at_posting=1000 * (i + 1))
             for i, (page, ts) in enumerate(zip("aabb", weeks))]
    posts.append(PostRecord("ab", "ab0", _utc(2021, 3, 1), 5, followers_at_posting=7))
    pages = {p: PageMeta(p, p, date(2020, 1, 1)) for p in ("a", "ab", "b")}
    table = aggregate_dataset(build_dataset(posts, pages)[0], Timescale.W)
    assert table.page_ids == ["a", "ab", "b"]
    outer = table[table.page != 1]
    assert outer.page.tolist() == [0, 0, 2, 2] and outer.end[1] == outer.start[2]
    for series in (table, outer):
        for metric in METRICS:
            pooled, skips = pooled_growth_samples(series, metric)
            assert [(s.page_id, s.window_start) for s in pooled] == [("a", date(2021, 1, 11)),
                                                                      ("b", date(2021, 1, 25))]
            assert skips.total == 0
            oracles = [oracle_samples(table.page_ids[code], Timescale.W, table[table.page == code].entries, metric)
                       for code in sorted(set(series.page.tolist()))]
            check_pooled(series, metric, oracles)


def test_no_series_gives_an_empty_table():
    weekly = aggregate_engagement([_post("a", _utc(2021, 1, 4), 10)], Timescale.W)
    for empty in (aggregate_engagement([], Timescale.W), weekly[:0]):
        samples, skips = pooled_growth_samples(empty, "engagement")
        assert len(samples) == 0 and list(samples) == [] and skips.total == 0


def test_commands_build_no_sample_objects(monkeypatch):
    """analyze, model and cohort work on the samples table alone: no row is built."""
    corpus = generate(GeneratorConfig(n_pages=16, start=date(2018, 1, 1), end=date(2019, 1, 1)), seed=3)
    dataset, _ = build_dataset(corpus.posts, corpus.pages)

    def no_rows(*args, **kwargs):
        raise AssertionError("a GrowthSample was built")

    monkeypatch.setattr(growth, "GrowthSample", no_rows)
    warnings = []
    analyses = list(pipeline.analyze(dataset, warnings.append))
    for result in analyses:
        growth.write_growth_samples_csv(result.samples, io.StringIO())
    assert sum(len(result.samples) for result in analyses) > 1000
    assert all(result.matrices and result.fit_rows for result in analyses)
    fitted = list(pipeline.model(dataset, warnings.append))  # the library's default timescales are W, M, Q
    assert [result.scale for result in fitted] == list(SIM_TIMESCALES)
    assert sum(len(result.regressions) for result in fitted) > 0
    assert len(list(pipeline.cohort(dataset, warnings.append).tests)) == len(Timescale)



# ---------------------------------------------------------------------------
# the table protocol, which every columnar table takes from ingest._Table
# ---------------------------------------------------------------------------

def _protocol_case(kind):
    """A table of ``kind``, its column names, a change to each header field, and its rows as
    objects (a field tuple per run for ``runs``), or None where the table has no row object."""
    records = [PostRecord("b", "b-1", _utc(2021, 1, 4, 9), 5, 2, 1, 2, followers_at_posting=7),
               PostRecord("a", "a-1", _utc(2021, 1, 4, 12), 3),
               PostRecord("a", "a-2", _utc(2021, 1, 5, 8), 4, followers_at_posting=9),
               PostRecord("b", "b-2", _utc(2021, 1, 6, 10), 9)]
    posts = PostColumns.from_records(records)
    pages = {"page_ids": ["a", "c"]}
    if kind == "posts":
        columns = ["page", "post_id", "seconds", "total", "likes", "comments", "shares", "followers"]
        return posts, columns, pages, records
    cells = build_dataset(posts, {p: PageMeta(p, p, date(2020, 1, 1)) for p in "ab"})[0].cells
    if kind == "cells":
        return cells, ["page", "day", "engagement", "post_count", "first", "last"], pages, None
    if kind == "windows":
        return (aggregate_dataset(Dataset(cells, {}), Timescale.D),
                ["page", "start", "end", "engagement", "post_count", "followers"],
                {**pages, "timescale": Timescale.W}, None)
    if kind == "samples":
        rows = [GrowthSample(p, Timescale.W, date(2021, 1, d), "engagement", g, math.log(g), e, f)
                for p, d, g, e, f in [("b", 11, 2.0, 10, 5), ("a", 18, 0.5, 20, None), ("b", 25, 1.5, 30, 7)]]
        return (GrowthSamples.from_rows(rows),
                ["page", "start", "gross_growth", "log_growth", "prior_engagement", "prior_followers"],
                {**pages, "timescale": Timescale.M, "metric": "followers"}, rows)
    runs = model.simulate(model.published_coefficients(), Timescale.W, 25_000, 10_000, steps=2, runs=3, seed=1)
    rows = [(runs.followers[i].tolist(), runs.engagement[i].tolist(), Timescale.W, 1, i,
             model.ClampCounter(*runs.floored[i].tolist())) for i in range(3)]
    return runs, ["run", "followers", "engagement", "floored"], {"timescale": Timescale.M, "seed": 2}, rows


TABLE_KINDS = ["posts", "cells", "windows", "samples", "runs"]


def _row_values(table, columns):
    return list(zip(*(getattr(table, name).tolist() for name in columns)))


def _changed(value):
    if isinstance(value, (bool, np.bool_)):
        return not value
    return value + "x" if isinstance(value, str) else value + 1


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_table_protocol(kind):
    table, columns, header_changes, row_objects = _protocol_case(kind)
    rows = _row_values(table, columns)
    assert len(table) == len(rows) >= 3
    assert [name for name in table._fields if isinstance(getattr(table, name), np.ndarray)] == columns
    texts = [name for name in columns if getattr(table, name).dtype == object]
    assert texts == (["post_id"] if kind == "posts" else [])

    # a slice, mask or index array selects the picked rows, in the picked order, under the same header
    for key, picked in ((slice(1, None, 2), range(1, len(rows), 2)), (slice(0, 0), []),
                        (np.arange(len(rows)) % 2 == 0, range(0, len(rows), 2)), (np.array([2, 0, 2]), [2, 0, 2])):
        sub = table[key]
        assert type(sub) is type(table)
        assert all(getattr(sub, name) == getattr(table, name) for name in table._fields if name not in columns)
        assert len(sub) == len(picked) and _row_values(sub, columns) == [rows[i] for i in picked]

    # equal: the same type, header fields and column values
    assert table == copy.deepcopy(table) and not table != copy.deepcopy(table)
    for name in columns:
        other = copy.deepcopy(table)
        getattr(other, name).flat[0] = _changed(getattr(other, name).flat[0])
        assert table != other, name
    for name, value in header_changes.items():
        assert table != table._replace(**{name: value}), name
    assert all(table != other for other in [*(_protocol_case(k)[0] for k in TABLE_KINDS if k != kind), rows, None])

    # an int index builds the row object, where the table has one
    if row_objects is None:
        for index in (0, np.int64(0)):
            with pytest.raises(TypeError):
                table[index]
        with pytest.raises(TypeError):
            list(table)
        return
    def fields_of(row):  # a Trajectory compares by identity, so a run is compared field by field
        if kind != "runs":
            return row
        return row.followers.tolist(), row.engagement.tolist(), row.timescale, row.seed, row.run_index, row.clamps
    assert [fields_of(row) for row in table] == row_objects
    assert [fields_of(table[i]) for i in (0, np.int64(1), -1)] == [row_objects[i] for i in (0, 1, -1)]
    assert [fields_of(row) for row in table[::-2]] == row_objects[::-2]


def _absence_corpus(kind):
    """Posts and pages: the golden corpus, or a synth corpus whose first two pages give no follower count
    and whose other pages lack it on about a third of their posts."""
    if kind == "golden":
        corpus = Path(__file__).with_name("golden_corpus")
        return (ingest.parse_posts((corpus / "posts.csv").read_bytes())[0],
                ingest.parse_pages((corpus / "pages.csv").read_bytes())[0])
    result = generate(GeneratorConfig(n_pages=6, start=date(2018, 1, 1), end=date(2018, 7, 1)), seed=5)
    followers = result.posts.followers.copy()
    followers[(result.posts.page < 2) | (np.random.default_rng(5).random(followers.size) < 0.3)] = ingest.ABSENT
    return result.posts._replace(followers=followers), result.pages


def _blank_fields(write, table, column):
    out = io.StringIO()
    write(table, out)
    return [row[column] == "" for row in csv.reader(io.StringIO(out.getvalue()))][1:]


@pytest.mark.parametrize("kind", ["golden", "synth"])
def test_a_missing_count_is_absent_in_every_table(kind):
    """A count is ABSENT exactly where the row object gives None and the written field is empty."""
    posts, pages = _absence_corpus(kind)
    records, absent_somewhere = list(posts), []
    for column, field, index in (("likes", "likes", 3), ("comments", "comments", 4), ("shares", "shares", 5),
                                 ("followers", "followers_at_posting", 7)):
        absent = (getattr(posts, column) == ingest.ABSENT).tolist()
        assert absent == [getattr(r, field) is None for r in records]
        assert absent == _blank_fields(ingest.write_posts_csv, posts, index)
    absent_somewhere.append(ingest.ABSENT in posts.followers)

    # a cell's first and last count are ABSENT exactly where none of its posts gives one
    cells = build_dataset(posts, pages)[0].cells
    counted = {(r.page_id, r.timestamp.date().toordinal() - ingest.EPOCH_ORDINAL) for r in records
               if r.followers_at_posting is not None}
    absent = [(cells.page_ids[p], d) not in counted for p, d in zip(cells.page.tolist(), cells.day.tolist())]
    assert absent == (cells.first == ingest.ABSENT).tolist() == (cells.last == ingest.ABSENT).tolist()
    absent_somewhere.append(any(absent))

    for scale in Timescale:
        series = aggregate_dataset(Dataset(cells, pages), scale)
        absent = (series.followers == ingest.ABSENT).tolist()
        assert absent == [e.followers is None for e in series.entries]
        assert absent == _blank_fields(aggregate.write_series_csv, series, 6)
        absent_somewhere.append(any(absent))
        for metric in METRICS:
            samples = pooled_growth_samples(series, metric)[0]
            absent = (samples.prior_followers == ingest.ABSENT).tolist()
            assert absent == [s.prior_followers is None for s in samples]
            assert absent == _blank_fields(growth.write_growth_samples_csv, samples, 6)
            if metric == "followers":
                assert not any(absent)  # a followers sample needs both counts
            else:
                absent_somewhere.append(any(absent))
    if kind == "synth":  # two of its pages give no count, so each table above holds some ABSENT
        assert all(absent_somewhere)


def _subclasses(cls):
    return [cls, *(s for sub in cls.__subclasses__() for s in _subclasses(sub))]


def test_no_table_holds_a_validity_mask():
    tables = _subclasses(ingest._Table)
    assert {PostColumns, ingest.DayCells, aggregate.AggregatedSeries, GrowthSamples} <= set(tables)
    assert [t.__name__ for t in tables if "observed" in t._fields] == []


# ---------------------------------------------------------------------------
# ingest._Record, which every record and table takes construction, equality,
# hashing and repr from, against a dataclasses twin of each class
# ---------------------------------------------------------------------------

def _col(*values):
    return np.array(values)


_NAN = math.nan  # one object: a record holding it still equals itself, as a field tuple does
_WINDOW = Window(Timescale.W, date(2021, 1, 4), date(2021, 1, 11))
_RESULT = stats.TestResult(12.0, _NAN, "greater", 5, 6, "exact")
_CELLS = ingest.DayCells(["a"], _col(0), _col(18631), _col(5), _col(1), _col(7), _col(7))
_SAMPLES = GrowthSamples(Timescale.W, "engagement", ["a"], _col(0), _col(18637), _col(2.0), _col(math.log(2.0)),
                         _col(10), _col(5))
_MU = model.ParamRegression("mu", Timescale.W, 0.1, -0.01, 0.002, (0.5, 0.1, 0.2), 0.3, (0.1, 0.2, 0.3))
_POSTS = PostColumns(["a"], _col(0), np.array(["a-1"], dtype=object), _col(1609750800), _col(5), _col(2), _col(-1),
                     _col(-1), _col(7))
_MATCH = cohort.MatchResult([("q", "r")], [0.5], 0.5, "assignment")

# each class: the flags its @dataclass decorator had, and one argument per field
RECORD_CASES = {
    PostRecord: ({"frozen": True}, ("a", "a-1", _utc(2021, 1, 4, 9), 5, 2, None, 1, 7)),
    PageMeta: ({"frozen": True}, ("a", "Page A", date(2020, 1, 1), 61.5, "en")),
    ingest.RejectedRow: ({"frozen": True}, (3, "bad count")),
    ingest.RejectionReport: ({}, ([ingest.RejectedRow(3, "bad count")],)),
    PostColumns: ({"frozen": True, "eq": False}, tuple(vars(_POSTS).values())),
    ingest.DayCells: ({"frozen": True, "eq": False}, tuple(vars(_CELLS).values())),
    Dataset: ({}, (_CELLS, {"a": PageMeta("a", "Page A", date(2020, 1, 1))})),
    ingest._Fields: ({"frozen": True}, ("ab", np.frombuffer(b"ab", dtype=np.uint8), _col(0), _col(1), _col(0), _col(1))),
    Window: ({"frozen": True}, (Timescale.W, date(2021, 1, 4), date(2021, 1, 11))),
    SeriesEntry: ({"frozen": True}, (_WINDOW, 10, 5.0, 2, None)),
    aggregate.AggregatedSeries: ({"eq": False}, (["a"], Timescale.W, _col(0), _col(18631), _col(18638), _col(10),
                                                 _col(2), _col(ingest.ABSENT))),
    GrowthSample: ({"frozen": True}, ("a", Timescale.W, date(2021, 1, 11), "engagement", 2.0, 0.69, 10, 5)),
    GrowthSamples: ({"eq": False}, tuple(vars(_SAMPLES).values())),
    SkipReport: ({}, (1, 2)),
    growth.SizeClass: ({"frozen": True}, ("10K-50K", 10_000, 50_000)),
    model.ParamRegression: ({"frozen": True}, tuple(vars(_MU).values())),
    model.ModelCoefficients: ({}, ({("mu", "W"): _MU},)),
    model.ClampCounter: ({}, (1, 2, 3)),
    model.SimState: ({"frozen": True}, (25_000.0, 10_000.0, 0, Timescale.W)),
    model.Trajectory: ({"eq": False}, (_col(1.0, 2.0), _col(3.0, 4.0), Timescale.W, 1, 0, model.ClampCounter())),
    model.Trajectories: ({"eq": False}, (Timescale.W, 1, _col(0), np.ones((1, 2)), np.ones((1, 2)),
                                         np.zeros((1, 3), dtype=np.int64))),
    model.StepSummary: ({}, (1, 1.0, 0.1, 2.0, 0.2, 0.5, 0.05, 0.6, 0.06)),
    stats.LaplaceParams: ({"frozen": True}, (0.0, 1.0)),
    stats.BurrParams: ({"frozen": True}, (2.0, 3.0)),
    stats.TestResult: ({"frozen": True}, (12.0, _NAN, "greater", 5, 6, "exact")),
    stats.MatrixCell: ({"frozen": True}, ("10K-50K", "50K-150K", "greater", _RESULT, None)),
    cohort.ReliabilityLabel: ({"frozen": True}, ("a", 75.0, "reliable")),
    cohort.MatchResult: ({"frozen": True}, ([("q", "r")], [0.5], 0.5, "assignment")),
    pipeline.MatrixBlock: ({}, ("engagement", "followers", [stats.MatrixCell("a", "b", "greater", _RESULT)])),
    pipeline.ScaleAnalysis: ({}, (Timescale.W, _SAMPLES, [], [["laplace"]], _RESULT)),
    pipeline._BinnedFits: ({"frozen": True}, (("mu", "b"), ("prior_followers",), 4, 10, 20, len)),
    pipeline.ScaleModel: ({}, (Timescale.W, [_MU], [["mu"]])),
    pipeline.Cohort: ({}, ([cohort.ReliabilityLabel("a", 75.0, "reliable")], _MATCH, {"a": (1.0, 2.0)}, iter(()))),
    GeneratorConfig: ({}, (3, date(2018, 1, 1), date(2018, 3, 1), 1.5, None, (1e4, 1e5), (1e3, 1e4), 0.5)),
    synth.SynthResult: ({}, (_POSTS, {}, {"a": 1})),
}

# arguments that each class's __post_init__ refuses
POST_INIT_REFUSALS = [
    (model.SimState, (0.0, 10_000.0, 0, Timescale.W)),
    (stats.BurrParams, (0.0, 3.0)),
    (stats.LaplaceParams, (0.0, 0.0)),
    (Window, (Timescale.W, date(2021, 1, 11), date(2021, 1, 4))),
    (growth.SizeClass, ("empty", 10, 10)),
    (cohort.ReliabilityLabel, ("a", 75.0, "questionable")),
    (model.ParamRegression, ("c", Timescale.W, 0.1, 0.2, 0.3, (0.5,))),
    (GeneratorConfig, (0,)),
]


def _records(base=ingest._Record):
    for sub in base.__subclasses__():
        if sub.__module__.startswith("pagegrowth."):
            yield from ([sub] if sub._fields else []) + list(_records(sub))


def _twin(cls):
    """A dataclass with ``cls``'s declared fields, defaults and decorator flags, over its bases other than _Record."""
    flags = RECORD_CASES[cls][0]
    specs = []
    for name, kind in vars(cls)["__annotations__"].items():
        default = vars(cls).get(name, dataclasses.MISSING)
        made = isinstance(default, ingest._Factory)
        specs.append((name, kind, dataclasses.field(default_factory=default.make) if made else
                      dataclasses.field(default=default)))
    bases = tuple(base for base in cls.__bases__ if base is not ingest._Record)
    namespace = {"__post_init__": vars(cls)["__post_init__"]} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__name__, specs, bases=bases, namespace=namespace, **flags)


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:
        return "raises", type(exc)


def test_every_record_has_an_oracle_case():
    assert sorted(_records(), key=repr) == sorted(RECORD_CASES, key=repr)
    assert len(RECORD_CASES) == 35


@pytest.mark.parametrize("cls", RECORD_CASES, ids=lambda cls: cls.__qualname__)
def test_record_base_against_dataclasses(cls):
    flags, args = RECORD_CASES[cls]
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    required = [f.name for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    assert list(cls._fields) == names and len(args) == len(names)
    ours, theirs = (list(inspect.signature(c).parameters.values()) for c in (cls, twin.__init__))
    assert [str(p) for p in ours] == [str(p) for p in theirs[1:]]

    def values(record):
        return [getattr(record, name) for name in names]

    def keywords(lo, hi, *more):  # fields lo to hi, and those at ``more``, by name
        return {**dict(zip(names[lo:hi], args[lo:hi])), **{names[i]: args[i] for i in more}}

    # positional, keyword and default construction, a positional prefix with keywords after it (the defaults
    # filling any gap), give the same fields, repr and (for frozen) hash
    k = len(required)
    builds = [lambda c: c(*args), lambda c: c(**keywords(0, len(names))), lambda c: c(*args[:k]),
              *(lambda c, j=j: c(*args[:j], **keywords(j, len(names))) for j in range(1, len(names))),
              lambda c: c(*args[:k // 2], **keywords(k // 2, k, len(names) - 1))]
    for build in builds:
        record, twin_record = build(cls), build(twin)
        assert all(a is b or a == b for a, b in zip(values(record), values(twin_record)))
        assert repr(record).startswith(cls.__qualname__ + "(")
        assert repr(record).partition("(")[2] == repr(twin_record).partition("(")[2]
    # too many, unexpected, repeated and missing arguments, by position and by keyword
    bad_calls = [lambda c: c(*args, None), lambda c: c(*args, no_such_field=1), lambda c: c(*args, **keywords(0, 1)),
                 lambda c: c(*args[:k], no_such_field=1), lambda c: c(**keywords(0, len(names)), no_such_field=1),
                 lambda c: c(*args[:1], **keywords(0, len(names)))]
    if required:
        bad_calls += [lambda c: c(*args[:k - 1]), lambda c: c(**keywords(1, len(names))),
                      lambda c: c(*args[:k - 1], **keywords(k, len(names)))]
    for bad in bad_calls:
        for c in (cls, twin):
            with pytest.raises(TypeError):
                bad(c)

    # equality within a type, and hashing
    a, b, t, u = cls(*args), cls(*args), twin(*args), twin(*args)
    assert _outcome(lambda: a == b) == _outcome(lambda: t == u)
    assert _outcome(lambda: a != b) == _outcome(lambda: t != u)
    assert not a == t and a != t and a != None  # noqa: E711
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if cls.__hash__ is not None:
        assert _outcome(lambda: hash(a) == hash(b)) == _outcome(lambda: hash(t) == hash(u))
        if flags.get("frozen"):
            assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(t))

    # a frozen record refuses assignment and deletion; the others take both
    for record in (a, t):
        if flags.get("frozen"):
            with pytest.raises(AttributeError):
                setattr(record, names[0], args[0])
            with pytest.raises(AttributeError):
                delattr(record, names[0])
        else:
            setattr(record, names[0], args[-1])
            assert getattr(record, names[0]) is args[-1]

    # a container default is made anew for every instance, and one given is kept
    for name in [f.name for f in dataclasses.fields(twin) if f.default_factory is not dataclasses.MISSING]:
        for c in (cls, twin):
            first, second = c(*args[:len(required)]), c(**keywords(0, len(required)))
            assert getattr(first, name) is not getattr(second, name) and not getattr(first, name)
            assert getattr(c(**keywords(0, len(required), names.index(name))), name) is args[names.index(name)]


@pytest.mark.parametrize("cls, args", POST_INIT_REFUSALS, ids=lambda case: getattr(case, "__qualname__", ""))
def test_record_post_init_refusals_match_dataclasses(cls, args):
    with pytest.raises(ValueError) as ours:
        cls(*args)
    with pytest.raises(ValueError) as theirs:
        _twin(cls)(*args)
    assert str(ours.value) == str(theirs.value)


def test_record_replace_builds_a_checked_copy():
    label = cohort.ReliabilityLabel("a", 75.0, "reliable")
    assert label._replace(score=80.0) == cohort.ReliabilityLabel("a", 80.0, "reliable")
    assert label == cohort.ReliabilityLabel("a", 75.0, "reliable")
    with pytest.raises(ValueError):
        label._replace(score=10.0)  # __post_init__ runs on the copy
    with pytest.raises(TypeError):
        label._replace(grade="A")


def test_simulate_builds_no_run_objects(monkeypatch):
    """simulate, its summary and its trajectory file work on the runs table alone: no run is built."""
    def no_runs(*args, **kwargs):
        raise AssertionError("a Trajectory was built")

    monkeypatch.setattr(model, "Trajectory", no_runs)
    tables = pipeline.simulate(steps=3, runs=5, seed=2)
    for table in tables.values():
        model.write_trajectories_csv(table, io.StringIO())
        assert len(model.summarize_trajectories(table)) == 4
    assert sorted(len(table) for table in tables.values()) == [5] * 9
