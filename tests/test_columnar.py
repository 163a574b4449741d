"""The columnar kernel against a brute-force, one-post-at-a-time oracle.

``aggregate_dataset``, ``aggregate_engagement`` and ``pooled_growth_samples``
work on arrays; the oracle here groups ``PostRecord`` objects into
calendar windows with ``datetime`` arithmetic and applies every rule by
``min``/``max`` over explicit keys. Both must agree exactly, floats
included, on random pages around awkward dates: before 1970 and after
2038, ISO week 53 and year ends, Feb 29.
"""

import io
import math
import random
from datetime import date, datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from pagegrowth import growth, pipeline
from pagegrowth.aggregate import SeriesEntry, Timescale, Window, aggregate_dataset, aggregate_engagement
from pagegrowth.growth import METRICS, GrowthSample, SkipReport, growth_samples, pooled_growth_samples
from pagegrowth.ingest import PageMeta, PostRecord, build_dataset
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
    series_map = aggregate_dataset(dataset, scale, quarter_rule)
    assert sorted(series_map) == list(series_map) == sorted(pages)
    per_page = {metric: [] for metric in METRICS}
    for page_id, series in series_map.items():
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
        check_pooled(series_map, metric, oracles)


def check_pooled(series_map, metric, oracles):
    """The pooled table equals the per-page oracle outputs concatenated in page order."""
    pooled, skips = pooled_growth_samples(series_map, metric)
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
    # a's last window ends on the day b's first window starts
    weeks = [_utc(2021, 1, 4), _utc(2021, 1, 11), _utc(2021, 1, 18), _utc(2021, 1, 25)]
    posts = [PostRecord(page, f"{page}{i}", ts, 10 * (i + 1), followers_at_posting=1000 * (i + 1))
             for i, (page, ts) in enumerate(zip("aabb", weeks))]
    pages = {p: PageMeta(p, p, date(2020, 1, 1)) for p in "ab"}
    series_map = aggregate_dataset(build_dataset(posts, pages)[0], Timescale.W)
    assert series_map["a"].end[-1] == series_map["b"].start[0]
    for metric in METRICS:
        pooled, skips = pooled_growth_samples(series_map, metric)
        assert [(s.page_id, s.window_start) for s in pooled] == [("a", date(2021, 1, 11)), ("b", date(2021, 1, 25))]
        assert skips.total == 0
        oracles = [oracle_samples(p, Timescale.W, series_map[p].entries, metric) for p in "ab"]
        check_pooled(series_map, metric, oracles)


def test_no_series_gives_an_empty_table():
    samples, skips = pooled_growth_samples({}, "engagement")
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
