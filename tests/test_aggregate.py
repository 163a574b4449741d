"""Calendar windows, engagement aggregation, and follower representative points."""

from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagegrowth.aggregate import (
    Timescale,
    aggregate_dataset,
    aggregate_engagement,
    window_of,
)
from pagegrowth.ingest import PageMeta, PostRecord, build_dataset


def _post(page, ts, total, followers=None, post_id=None):
    return PostRecord(
        page_id=page,
        post_id=post_id or f"{page}-{ts.isoformat()}",
        timestamp=ts,
        total_interactions=total,
        followers_at_posting=followers,
    )


def _utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


class TestWindowOf:
    def test_leap_month(self):
        w = window_of(_utc(2020, 2, 29, 23, 59, 59), Timescale.M)
        assert (w.start, w.end) == (date(2020, 2, 1), date(2020, 3, 1))

    def test_iso_week_year_boundary(self):
        w = window_of(_utc(2021, 1, 1, 0, 0, 0), Timescale.W)
        assert (w.start, w.end) == (date(2020, 12, 28), date(2021, 1, 4))

    def test_quarter(self):
        w = window_of(_utc(2018, 5, 10, 12, 0, 0), Timescale.Q)
        assert (w.start, w.end) == (date(2018, 4, 1), date(2018, 7, 1))

    def test_day(self):
        w = window_of(_utc(2019, 11, 3, 5, 0, 0), Timescale.D)
        assert (w.start, w.end) == (date(2019, 11, 3), date(2019, 11, 4))

    def test_december_month(self):
        w = window_of(_utc(2019, 12, 31), Timescale.M)
        assert (w.start, w.end) == (date(2019, 12, 1), date(2020, 1, 1))

    def test_q4(self):
        w = window_of(_utc(2019, 12, 31), Timescale.Q)
        assert (w.start, w.end) == (date(2019, 10, 1), date(2020, 1, 1))

    @given(
        st.datetimes(min_value=datetime(2008, 1, 1), max_value=datetime(2023, 1, 1)),
        st.sampled_from(list(Timescale)),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_tile_the_calendar(self, ts, scale):
        ts = ts.replace(tzinfo=timezone.utc)
        w = window_of(ts, scale)
        assert w.start <= ts.date() < w.end
        # adjacent windows share a boundary
        assert window_of(w.end, scale).start == w.end


class TestAggregateEngagement:
    def test_same_day_posts(self):
        posts = [
            _post("p", _utc(2020, 3, 5, h), total)
            for h, total in ((1, 10), (2, 20), (3, 30))
        ]
        series = aggregate_engagement(posts, Timescale.D)
        assert len(series.entries) == 1
        e = series.entries[0]
        assert (e.engagement, e.mean_engagement, e.post_count) == (60, 20.0, 3)

    def test_two_quarters(self):
        posts = [_post("p", _utc(2022, 1, 5), 1), _post("p", _utc(2022, 4, 2), 2)]
        series = aggregate_engagement(posts, Timescale.Q)
        starts = [e.window.start for e in series.entries]
        assert starts == [date(2022, 1, 1), date(2022, 4, 1)]

    def test_empty(self):
        series = aggregate_engagement([], Timescale.W)
        assert series.entries == []

    def test_conservation(self):
        posts = [
            _post("p", _utc(2020, m, d), m * d)
            for m in (1, 2, 5, 11)
            for d in (1, 9, 28)
        ]
        total = sum(p.total_interactions for p in posts)
        for scale in Timescale:
            series = aggregate_engagement(posts, scale)
            assert series.total_engagement() == total

    def test_windows_strictly_increasing(self):
        posts = [_post("p", _utc(2020, 1, d), 1) for d in (20, 3, 15, 3)]
        # duplicate timestamps need distinct post ids
        posts = [
            _post("p", _utc(2020, 1, d), 1, post_id=f"id{i}")
            for i, d in enumerate((20, 3, 15, 3))
        ]
        series = aggregate_engagement(posts, Timescale.W)
        starts = [e.window.start for e in series.entries]
        assert starts == sorted(set(starts))


class TestSelectFollowers:
    """The follower point each timescale selects for a window, through ``aggregate_engagement``."""

    @staticmethod
    def _followers(posts, scale, quarter_rule="latest"):
        """The follower value of the one window that ``posts`` fall in."""
        (entry,) = aggregate_engagement(posts, scale, quarter_rule).entries
        return entry.followers

    def test_weekly_minimum_observed_date(self):
        # Tue = 1000, Fri = 1100 within the same ISO week
        posts = [
            _post("p", _utc(2021, 6, 8, 15), 1, followers=1000),  # Tuesday
            _post("p", _utc(2021, 6, 11, 9), 1, followers=1100),  # Friday
        ]
        assert self._followers(posts, Timescale.W) == 1000

    def test_monthly_closest_to_15th(self):
        posts = [
            _post("p", _utc(2021, 6, 3), 1, followers=900),
            _post("p", _utc(2021, 6, 14), 1, followers=950),
        ]
        assert self._followers(posts, Timescale.M) == 950

    def test_monthly_tie_resolves_earlier(self):
        posts = [
            _post("p", _utc(2021, 6, 14), 1, followers=940),
            _post("p", _utc(2021, 6, 16), 1, followers=960),
        ]
        assert self._followers(posts, Timescale.M) == 940

    def test_quarterly_latest_observed(self):
        posts = [
            _post("p", _utc(2021, 1, 2), 1, followers=500),
            _post("p", _utc(2021, 3, 30), 1, followers=600),
        ]
        assert self._followers(posts, Timescale.Q) == 600

    def test_quarterly_earliest_switch(self):
        posts = [
            _post("p", _utc(2021, 1, 2), 1, followers=500),
            _post("p", _utc(2021, 3, 30), 1, followers=600),
        ]
        assert self._followers(posts, Timescale.Q, quarter_rule="earliest") == 500

    def test_daily_earliest_post(self):
        posts = [
            _post("p", _utc(2021, 6, 8, 6), 1, followers=700),
            _post("p", _utc(2021, 6, 8, 20), 1, followers=710),
        ]
        assert self._followers(posts, Timescale.D) == 700

    def test_absent_when_unobserved(self):
        posts = [_post("p", _utc(2021, 6, 8), 1)]
        assert self._followers(posts, Timescale.W) is None

    def test_value_always_observed(self):
        posts = [
            _post("p", _utc(2021, 6, 7 + i), 1, followers=100 + i) for i in range(5)
        ]
        assert self._followers(posts, Timescale.W) in {p.followers_at_posting for p in posts}


class TestAggregateDataset:
    def _dataset(self, posts):
        pages = {pid: PageMeta(pid, pid, date(2010, 1, 1)) for pid in {p.page_id for p in posts}}
        return build_dataset(posts, pages)[0]

    def test_two_pages(self):
        ds = self._dataset([_post("a", _utc(2020, 1, 1), 1), _post("b", _utc(2020, 1, 1), 2)])
        out = aggregate_dataset(ds, Timescale.M)
        assert out.page_ids == ["a", "b"] and out.page.tolist() == [0, 1]

    def test_followers_absent_everywhere(self):
        ds = self._dataset([_post("a", _utc(2017, 5, 1), 3), _post("a", _utc(2017, 6, 1), 4)])
        out = aggregate_dataset(ds, Timescale.M)
        assert out.page_ids == ["a"] and len(out.entries) == 2
        assert all(e.followers is None for e in out.entries)

    def test_quarterly_equals_reaggregated_monthly(self):
        posts = [
            _post("a", _utc(2020, m, d, h), (m * 7 + d) % 13)
            for m in range(1, 13)
            for d in (2, 14, 27)
            for h in (0, 12)
        ]
        ds = self._dataset(posts)
        monthly = aggregate_dataset(ds, Timescale.M)
        quarterly = aggregate_dataset(ds, Timescale.Q)
        assert monthly.page_ids == quarterly.page_ids == ["a"]
        resummed: dict = {}
        for entry in monthly.entries:
            q = window_of(entry.window.start, Timescale.Q)
            resummed[q.start] = resummed.get(q.start, 0) + entry.engagement
        assert {e.window.start: e.engagement for e in quarterly.entries} == resummed

    @pytest.mark.parametrize("scale", list(Timescale))
    def test_unknown_quarter_rule_refused_at_every_timescale(self, scale):
        # it was refused only at Q, where the rule is read
        ds = self._dataset([_post("a", _utc(2020, 1, 1), 1, followers=10)])
        with pytest.raises(ValueError, match="unknown quarter_rule 'bogus'"):
            aggregate_dataset(ds, scale, "bogus")


engagement_lists = st.lists(
    st.tuples(
        st.datetimes(min_value=datetime(2018, 1, 1), max_value=datetime(2021, 12, 31)),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


@given(engagement_lists, st.sampled_from(list(Timescale)))
@settings(max_examples=100, deadline=None)
def test_conservation_property(rows, scale):
    posts = [
        _post("p", ts.replace(tzinfo=timezone.utc), total, post_id=f"id{i}")
        for i, (ts, total) in enumerate(rows)
    ]
    posts.sort(key=lambda p: p.timestamp)
    series = aggregate_engagement(posts, scale)
    assert series.total_engagement() == sum(p.total_interactions for p in posts)
    assert sum(e.post_count for e in series.entries) == len(posts)
