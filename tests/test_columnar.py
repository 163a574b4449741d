"""The columnar kernel against a brute-force, one-post-at-a-time oracle.

``aggregate_dataset``, ``aggregate_engagement`` and ``pooled_growth_samples``
work on arrays; the oracle here groups ``PostRecord`` objects into
calendar windows with ``datetime`` arithmetic and applies every rule by
``min``/``max`` over explicit keys. Both must agree exactly, floats
included, on random pages around awkward dates: before 1970 and after
2038, ISO week 53 and year ends, Feb 29.
"""

import copy
import io
import math
import random
from dataclasses import fields, replace
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagegrowth import growth, model, pipeline
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
        return cells, ["page", "day", "engagement", "post_count", "first", "last", "observed"], pages, None
    if kind == "windows":
        return (aggregate_dataset(Dataset(cells, {}), Timescale.D),
                ["page", "start", "end", "engagement", "post_count", "followers", "observed"],
                {**pages, "timescale": Timescale.W}, None)
    if kind == "samples":
        rows = [GrowthSample(p, Timescale.W, date(2021, 1, d), "engagement", g, math.log(g), e, f)
                for p, d, g, e, f in [("b", 11, 2.0, 10, 5), ("a", 18, 0.5, 20, None), ("b", 25, 1.5, 30, 7)]]
        return (GrowthSamples.from_rows(rows),
                ["page", "start", "gross_growth", "log_growth", "prior_engagement", "prior_followers", "observed"],
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
    assert [f.name for f in fields(table) if isinstance(getattr(table, f.name), np.ndarray)] == columns
    texts = [name for name in columns if getattr(table, name).dtype == object]
    assert texts == (["post_id"] if kind == "posts" else [])

    # a slice, mask or index array selects the picked rows, in the picked order, under the same header
    for key, picked in ((slice(1, None, 2), range(1, len(rows), 2)), (slice(0, 0), []),
                        (np.arange(len(rows)) % 2 == 0, range(0, len(rows), 2)), (np.array([2, 0, 2]), [2, 0, 2])):
        sub = table[key]
        assert type(sub) is type(table)
        assert all(getattr(sub, f.name) == getattr(table, f.name) for f in fields(table) if f.name not in columns)
        assert len(sub) == len(picked) and _row_values(sub, columns) == [rows[i] for i in picked]

    # equal: the same type, header fields and column values
    assert table == copy.deepcopy(table) and not table != copy.deepcopy(table)
    for name in columns:
        other = copy.deepcopy(table)
        getattr(other, name).flat[0] = _changed(getattr(other, name).flat[0])
        assert table != other, name
    for name, value in header_changes.items():
        assert table != replace(table, **{name: value}), name
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
