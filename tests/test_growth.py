"""Growth samples, trimming, and size-class binning."""

import csv
import io
import math
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagegrowth import ingest
from pagegrowth.aggregate import SERIES_HEADER, AggregatedSeries, Timescale, aggregate_engagement, write_series_csv
from pagegrowth.growth import (
    DEFAULT_FOLLOWER_CLASSES,
    GROWTH_HEADER,
    METRICS,
    DegenerateBinningError,
    GrowthSample,
    GrowthSamples,
    SizeClass,
    _distinct,
    _median,
    _percentiles,
    class_bins,
    engagement_quartile_bins,
    growth_samples,
    split_class_by_median,
    trim,
    write_growth_samples_csv,
)
from pagegrowth.ingest import EPOCH_ORDINAL, POSTS_HEADER, PostColumns, PostRecord, write_posts_csv
from pagegrowth.model import (
    SUMMARY_HEADER,
    TRAJECTORY_HEADER,
    StepSummary,
    Trajectories,
    write_summary_csv,
    write_trajectories_csv,
)


def _series(weekly_engagement, followers=None, start=date(2021, 1, 4)):
    """Build a weekly series from engagement values; None skips the week."""
    posts = []
    for i, value in enumerate(weekly_engagement):
        if value is None:
            continue
        day = start.fromordinal(start.toordinal() + 7 * i)
        fol = followers[i] if followers else None
        posts.append(
            PostRecord(
                page_id="p",
                post_id=f"p-{i}",
                timestamp=datetime(day.year, day.month, day.day, 12, tzinfo=timezone.utc),
                total_interactions=value,
                followers_at_posting=fol,
            )
        )
    return aggregate_engagement(posts, Timescale.W)


class TestGrowthSamples:
    def test_gross_and_log(self):
        series = _series([100, 150])
        samples, skips = growth_samples(series, "engagement")
        assert len(samples) == 1
        s = samples[0]
        assert s.gross_growth == pytest.approx(1.5)
        assert s.log_growth == pytest.approx(0.4054651081, abs=1e-9)
        assert s.prior_engagement == 100
        assert skips.total == 0

    def test_zero_guard(self):
        series = _series([100, 0])
        samples, skips = growth_samples(series, "engagement")
        assert len(samples) == 0
        assert skips.zero_value == 1

    def test_gap_breaks_chain(self):
        series = _series([100, None, 150])
        samples, skips = growth_samples(series, "engagement")
        assert len(samples) == 0
        assert skips.total == 0  # a gap is not a degenerate pair

    def test_followers_metric_requires_observations(self):
        series = _series([10, 10, 10], followers=[1000, None, 1100])
        samples, skips = growth_samples(series, "followers")
        assert len(samples) == 0
        assert skips.missing_followers == 2

    def test_prior_covariates_from_earlier_window(self):
        series = _series([100, 200, 400], followers=[10_000, 20_000, 40_000])
        samples, _ = growth_samples(series, "followers")
        assert [s.prior_followers for s in samples] == [10_000, 20_000]
        assert [s.prior_engagement for s in samples] == [100, 200]

    def test_window_start_is_later_window(self):
        series = _series([100, 150])
        samples, _ = growth_samples(series, "engagement")
        assert samples[0].window_start == date(2021, 1, 11)

    def test_telescoping(self):
        values = [100, 130, 90, 240, 310]
        series = _series(values)
        samples, _ = growth_samples(series, "engagement")
        assert math.exp(sum(s.log_growth for s in samples)) == pytest.approx(
            values[-1] / values[0], rel=1e-12
        )


class TestTrim:
    def test_integers_1_to_100(self):
        out = trim(np.arange(1, 101))
        assert out.min() == 6 and out.max() == 95
        assert out.size == 90

    def test_constant_list_unchanged(self):
        out = trim(np.full(50, 7.0))
        assert np.array_equal(out, np.full(50, 7.0))

    def test_small_input_passes_with_warning(self):
        values = np.arange(10)
        with pytest.warns(UserWarning):
            out = trim(values)
        assert np.array_equal(out, values)

    def test_empty(self):
        assert trim([]).size == 0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=21, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_subset_and_bounds(self, values):
        arr = np.array(values)
        out = trim(arr)
        lo, hi = np.percentile(arr, [5, 95])
        assert np.all((out >= lo) & (out <= hi))
        member = np.isin(out, arr)
        assert member.all()


def _table(prior_followers):
    return GrowthSamples.from_rows([_sample(1, prior_followers=f, i=i) for i, f in enumerate(prior_followers)])


class TestSizeClasses:
    def test_paper_boundaries(self):
        # below the scheme, absent and above it are left out
        bins = class_bins(_table([9_999, 49_999, 50_000, 7_000_000, None]), DEFAULT_FOLLOWER_CLASSES)
        assert {label: b.prior_followers.tolist() for label, b in bins.items()} == {
            "10K-50K": [49_999],
            "50K-150K": [50_000],
        }

    def test_a_class_below_zero_takes_no_absent_count(self):
        bins = class_bins(_table([None, 0, 5, None]), [SizeClass("low", -10, 10)])
        assert bins["low"].prior_followers.tolist() == [0, 5]

    def test_partition(self):
        values = [10_000, 49_999, 50_000, 149_999, 150_000, 499_999, 500_000, 4_999_999]
        bins = class_bins(_table(values))
        assert list(bins) == [c.label for c in DEFAULT_FOLLOWER_CLASSES]
        assert [b.prior_followers.tolist() for b in bins.values()] == [values[i:i + 2] for i in range(0, 8, 2)]

    def test_rows_and_table_bin_alike(self):
        table = _table([20_000, None, 60_000, 30_000, 2_000_000])
        by_rows = class_bins(list(table))
        by_table = class_bins(table)
        assert list(by_rows) == list(by_table) == ["10K-50K", "50K-150K", "500K-5M"]
        assert all(list(by_rows[label]) == list(by_table[label]) for label in by_table)
        assert class_bins([]) == {}

    def test_rows_of_one_table_only(self):
        rows = [_sample(1, 20_000), GrowthSample("p", Timescale.M, date(2021, 2, 1), "engagement", 1.0, 0.0, 1, 20_000)]
        with pytest.raises(ValueError, match="different timescales"):
            class_bins(rows)

    def test_duplicate_label_rejected(self):
        scheme = [SizeClass("A", 10_000, 50_000), SizeClass("A", 500_000, 5_000_000)]
        with pytest.raises(ValueError, match="'A' appears more than once"):
            class_bins(_table([20_000]), scheme)

    def test_invalid_class(self):
        with pytest.raises(ValueError):
            SizeClass("bad", 10, 10)


def _sample(prior_engagement, prior_followers=None, i=0):
    return GrowthSample(
        page_id="p",
        timescale=Timescale.W,
        window_start=date(2021, 1, 11),
        metric="engagement",
        gross_growth=1.0 + i * 0.01,
        log_growth=math.log(1.0 + i * 0.01),
        prior_engagement=prior_engagement,
        prior_followers=prior_followers,
    )


class TestQuartileBins:
    def test_priors_1_to_100(self):
        samples = GrowthSamples.from_rows([_sample(v, i=v) for v in range(1, 101)])
        bins = engagement_quartile_bins(samples)
        sizes = [len(bins[q]) for q in ("Q1", "Q2", "Q3", "Q4")]
        # trimming keeps priors 6..95; type-7 quartiles of 6..95 are
        # 28.25 / 50.5 / 72.75, splitting 90 values into 23/22/22/23
        assert sizes == [23, 22, 22, 23]
        assert sum(sizes) == 90
        assert max(sizes) - min(sizes) <= 3

    def test_all_equal_fatal(self):
        samples = GrowthSamples.from_rows([_sample(5, i=i) for i in range(30)])
        with pytest.raises(DegenerateBinningError):
            engagement_quartile_bins(samples)

    def test_eight_samples_no_trim(self):
        samples = GrowthSamples.from_rows([_sample(v, i=v) for v in range(1, 9)])
        bins = engagement_quartile_bins(samples)
        assert [len(bins[q]) for q in ("Q1", "Q2", "Q3", "Q4")] == [2, 2, 2, 2]
        assert [s.prior_engagement for s in bins["Q1"]] == [1, 2]
        assert [s.prior_engagement for s in bins["Q4"]] == [7, 8]


class TestMedianSplit:
    def test_even(self):
        lower, upper = split_class_by_median(_table([1, 2, 3, 4]))
        assert [s.prior_followers for s in lower] == [1, 2]
        assert [s.prior_followers for s in upper] == [3, 4]

    def test_odd_median_goes_upper(self):
        lower, upper = split_class_by_median(_table([1, 2, 3]))
        assert [s.prior_followers for s in lower] == [1]
        assert [s.prior_followers for s in upper] == [2, 3]

    def test_all_equal_fatal(self):
        with pytest.raises(DegenerateBinningError):
            split_class_by_median(_table([5, 5, 5]))

    def test_absent_count_refused(self):
        with pytest.raises(ValueError, match="requires prior_followers on all samples"):
            split_class_by_median(_table([1, None, 3]))

    def test_balanced_sizes(self):
        rng = np.random.default_rng(0)
        priors = rng.permutation(np.arange(100, 201))
        lower, upper = split_class_by_median(_table([int(f) for f in priors]))
        assert abs(len(lower) - len(upper)) <= 1


@given(
    st.lists(
        st.integers(min_value=1, max_value=10**6), min_size=2, max_size=30
    )
)
@settings(max_examples=100, deadline=None)
def test_telescoping_property(values):
    series = _series(values)
    samples, _ = growth_samples(series, "engagement")
    if samples:
        chain = math.exp(sum(s.log_growth for s in samples))
        assert chain == pytest.approx(values[-1] / values[0], rel=1e-9)


# the column writers against csv.writer, one row at a time; each row ends in
# CRLF and then LF replaces it, so that CR is quoted as _quoted quotes it.
# Text holds % conversions, so a row template that took text in would not write it back.
TEXT = st.lists(st.sampled_from([*'ab,"\r\n {}é%', "%s", "%%", "%(x)d"]), max_size=6).map("".join)
COUNT = st.integers(0, 2**53 - 1)
OPTIONAL_COUNT = st.one_of(st.none(), COUNT)
ORDINAL = st.integers(date(1, 1, 1).toordinal(), date(9999, 12, 31).toordinal())
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
EPOCH = datetime(1970, 1, 1)


def _row_line(values) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(values)
    return buf.getvalue().removesuffix("\r\n") + "\n"


def _blank(value):
    return "" if value is None else value


def _absent(values):
    return np.array([-1 if v is None else v for v in values], dtype=np.int64)


@st.composite
def _posts_case(draw):
    seconds = st.integers((datetime(1, 1, 1) - EPOCH) // timedelta(seconds=1),
                          (datetime(9999, 12, 31, 23, 59, 59) - EPOCH) // timedelta(seconds=1))
    rows = draw(st.lists(st.tuples(TEXT, TEXT, seconds, OPTIONAL_COUNT, OPTIONAL_COUNT, OPTIONAL_COUNT, COUNT,
                                   OPTIONAL_COUNT), max_size=30))
    page_ids = sorted({r[0] for r in rows})
    page, post_id, seconds, likes, comments, shares, total, followers = list(zip(*rows)) or [()] * 8
    table = PostColumns(page_ids, np.array([page_ids.index(p) for p in page], dtype=np.int64),
                        np.array(post_id, dtype=object), _absent(seconds), _absent(total),
                        *map(_absent, (likes, comments, shares, followers)))
    expected = [[p, post, (EPOCH + timedelta(seconds=t)).isoformat() + "Z", *map(_blank, parts), total, _blank(f)]
                for p, post, t, *parts, total, f in rows]
    return write_posts_csv, table, POSTS_HEADER, expected


@st.composite
def _series_case(draw):
    scale = draw(st.sampled_from(list(Timescale)))
    entries = st.lists(st.tuples(ORDINAL, COUNT, st.integers(1, 10**6), OPTIONAL_COUNT), max_size=8)
    pages = draw(st.dictionaries(TEXT, entries, max_size=5))
    page_ids = sorted(pages)  # a page may have no window
    rows = [(code, *row) for code, page_id in enumerate(page_ids) for row in pages[page_id]]
    page, day, engagement, count, followers = (list(c) for c in zip(*rows)) if rows else ([],) * 5
    start = np.array(day, dtype=np.int64) - EPOCH_ORDINAL
    series = AggregatedSeries(page_ids, scale, np.array(page, dtype=np.int64), start, start + 1,
                              np.array(engagement, dtype=np.int64), np.array(count, dtype=np.int64),
                              _absent(followers))
    expected = [[p, scale.value, date.fromordinal(d).isoformat(), g, format(g / n, ".10g"), n, _blank(f)]
                for p in sorted(pages) for d, g, n, f in pages[p]]
    return write_series_csv, series, SERIES_HEADER, expected


@st.composite
def _growth_case(draw):
    # a metric is a constant of the row template; one holding % must come out as it is
    scale, metric = draw(st.sampled_from(list(Timescale))), draw(st.sampled_from([*METRICS, "50%", "%s%%"]))
    rows = draw(st.lists(st.tuples(TEXT, ORDINAL, POSITIVE, OPTIONAL_COUNT, COUNT), max_size=30))
    samples = GrowthSamples.from_rows([
        GrowthSample(p, scale, date.fromordinal(day), metric, g, math.log(g), e, f) for p, day, g, f, e in rows
    ])
    expected = [[p, scale.value, date.fromordinal(day).isoformat(), metric, format(g, ".12g"),
                 format(math.log(g), ".12g"), _blank(f), e] for p, day, g, f, e in rows]
    return write_growth_samples_csv, samples, GROWTH_HEADER, expected


@st.composite
def _trajectories_case(draw):
    steps = draw(st.integers(1, 6))  # every run of a simulation holds the same number of states
    run_states = st.lists(st.tuples(POSITIVE, POSITIVE), min_size=steps, max_size=steps)
    runs = draw(st.lists(st.tuples(st.integers(0, 10**6), run_states), max_size=5))
    followers, engagement = (np.array([[s[k] for s in states] for _, states in runs], dtype=float).reshape(-1, steps)
                             for k in (0, 1))
    trajectories = Trajectories(Timescale.W, 0, np.array([run for run, _ in runs], dtype=np.int64), followers,
                                engagement, np.zeros((len(runs), 3), dtype=np.int64))
    expected = [[run, step, format(f, ".12g"), format(e, ".12g")]
                for run, states in runs for step, (f, e) in enumerate(states)]
    return write_trajectories_csv, trajectories, TRAJECTORY_HEADER, expected


@st.composite
def _summary_case(draw):
    values = st.floats(allow_subnormal=True) | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 5e-324])
    rows = draw(st.lists(st.tuples(st.integers(0, 10**6), *[values] * (len(SUMMARY_HEADER) - 1)), max_size=30))
    expected = [[step, *(format(v, ".12g") for v in floats)] for step, *floats in rows]
    return write_summary_csv, [StepSummary(*row) for row in rows], SUMMARY_HEADER, expected


@st.composite
def _table_case(draw):
    value = TEXT | COUNT | st.integers(-(10**30), 10**30) | st.floats()
    width = draw(st.integers(2, 5))  # csv.writer quotes a lone empty field; every table has two columns or more
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width), max_size=30))
    expected = [[v if isinstance(v, str) else str(v) for v in row] for row in rows]
    return (lambda table, out: ingest._write_table(out, header, table)), rows, header, expected


WRITER_CASES = {"posts": _posts_case(), "series": _series_case(), "growth": _growth_case(),
                "trajectories": _trajectories_case(), "summary": _summary_case(), "table": _table_case()}


@pytest.mark.parametrize("writer", list(WRITER_CASES))
@given(data=st.data(), chunk=st.sampled_from([1, 3, 4096]))
@settings(max_examples=100, deadline=None)
def test_samples_csv_is_what_a_row_writer_gives(writer, data, chunk):
    write, table, header, rows = data.draw(WRITER_CASES[writer])
    out = io.StringIO()
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
        write(table, out)
    assert out.getvalue() == "".join(map(_row_line, [header, *rows]))


@pytest.mark.parametrize("columns", [
    lambda part: [["a"] * (part.stop - part.start)],  # one column for a template of two fields
    lambda part: [["a"] * (part.stop - part.start)] * 4,  # four columns for two
    lambda part: [["a"] * (part.stop - part.start), ["b"]],  # a column one value short
])
def test_write_rows_refuses_columns_that_do_not_fit_the_template(columns):
    with pytest.raises(ValueError):
        ingest._write_rows(io.StringIO(), ["x", "y"], 2, "%s,%s\n", columns)


PERCENTILES = st.sampled_from([[5.0, 95.0], [25.0, 50.0, 75.0], [0.0, 100.0]]) | st.integers(2, 12).map(
    lambda n: np.linspace(0, 100, n + 1)[1:-1]) | st.lists(st.floats(0, 100), min_size=1, max_size=4)
# ties, equal values and both zeros; inf, NaN and extremes for the percentiles
TIED = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, -3.0]) | st.floats(-1e6, 1e6)
SMALL = [[1.0], [2.0, 1.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [7.0] * 9]


@given(values=st.lists(TIED | st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]), min_size=1,
                       max_size=40), pcts=PERCENTILES)
@settings(max_examples=500, deadline=None)
@example(values=SMALL[0], pcts=[5.0, 95.0])
@example(values=SMALL[1], pcts=np.linspace(0, 100, 11)[1:-1])
@example(values=SMALL[2], pcts=[0.0, 50.0, 100.0])
@example(values=SMALL[3], pcts=[5.0, 95.0])
@example(values=SMALL[4], pcts=np.linspace(0, 100, 5)[1:-1])
@example(values=SMALL[5], pcts=[5.0, 95.0])
def test_percentiles_are_numpys_bit_for_bit(values, pcts):
    arr = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _percentiles(arr, pcts).tobytes() == np.percentile(arr, pcts).tobytes()


@given(values=st.lists(TIED, min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
@example(values=SMALL[0])
@example(values=SMALL[1])
@example(values=SMALL[2])
@example(values=SMALL[3])
@example(values=SMALL[4])
@example(values=SMALL[5])
def test_median_and_distinct_count_are_numpys(values):
    arr = np.array(values)
    ordered = np.sort(arr)
    assert np.float64(_median(ordered)).tobytes() == np.median(arr).tobytes()
    assert _distinct(ordered) == np.unique(arr).size


def test_percentiles_out_of_range_refused():
    with pytest.raises(ValueError):
        _percentiles(np.arange(3.0), [5.0, 101.0])
