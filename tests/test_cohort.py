"""Reliability labels, matching features, and assignment optimality."""

import csv
import io
import itertools
import math
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pagegrowth import pipeline
from pagegrowth.aggregate import Timescale, aggregate_dataset, aggregate_engagement
from pagegrowth.cohort import (
    MatchInfeasibleError,
    ReliabilityLabel,
    greedy_match,
    label_pages,
    match_cohorts,
    page_features,
    standardize_features,
    write_match_csv,
    _assign,
)
from pagegrowth.ingest import ABSENT, PageMeta, PostRecord, build_dataset
from pagegrowth.pipeline import load_dataset

CORPUS = Path(__file__).with_name("golden_corpus")


def brute_force_min_assignment(q_points, pool_points) -> float:
    """Minimal total distance over all injective pairings, by enumeration."""
    m = len(q_points)
    best = math.inf
    for subset in itertools.permutations(range(len(pool_points)), m):
        total = sum(
            math.dist(q_points[i], pool_points[subset[i]]) for i in range(m)
        )
        best = min(best, total)
    return best


class TestLabels:
    def _pages(self, scores):
        return {
            f"p{i}": PageMeta(f"p{i}", f"P{i}", date(2010, 1, 1), newsguard_score=s)
            for i, s in enumerate(scores)
        }

    def test_threshold(self):
        labels, unscored = label_pages(self._pages([60.0, 59.99, None, 85.0, 0.0]))
        by_id = {l.page_id: l.label for l in labels}
        assert by_id == {
            "p0": "reliable",
            "p1": "questionable",
            "p3": "reliable",
            "p4": "questionable",
        }
        assert unscored == ["p2"]

    def test_partition(self):
        labels, unscored = label_pages(self._pages([10, 20, 60, 70, None, 90]))
        reliable = [l for l in labels if l.label == "reliable"]
        questionable = [l for l in labels if l.label == "questionable"]
        assert len(reliable) + len(questionable) == 5

    def test_inconsistent_label_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityLabel("p", 80.0, "questionable")


class TestFeatures:
    def _series(self, followers):
        posts = []
        for i, f in enumerate(followers):
            day = date(2020, 1, 6).fromordinal(date(2020, 1, 6).toordinal() + 7 * i)
            posts.append(
                PostRecord(
                    page_id="p",
                    post_id=f"p-{i}",
                    timestamp=datetime(day.year, day.month, day.day, tzinfo=timezone.utc),
                    total_interactions=10,
                    followers_at_posting=f,
                )
            )
        return aggregate_engagement(posts, Timescale.W)

    def test_max_followers_and_lifespan(self):
        meta = PageMeta("p", "P", date(2019, 12, 1))
        series = self._series([100, 300, 200])
        feats = page_features({"p": meta}, series, end_date=date(2020, 3, 1))
        assert feats == {"p": (300.0, 91.0)}

    def test_no_followers_excluded(self):
        meta = PageMeta("p", "P", date(2019, 12, 1))
        series = self._series([None, None])
        assert page_features({"p": meta}, series, end_date=date(2020, 3, 1)) == {}

    def test_a_page_seen_only_at_zero_followers_is_kept(self):
        # the seen test is "has an observation", not "its maximum is positive"
        pages = {p: PageMeta(p, p.upper(), date(2019, 12, 1)) for p in "abc"}
        posts = [PostRecord(p, f"{p}-{i}", datetime(2020, 1, 6 + 7 * i, tzinfo=timezone.utc), 10,
                            followers_at_posting=f)
                 for p, followers in (("a", [None, 0]), ("b", [None, None]), ("c", [5, None]))
                 for i, f in enumerate(followers)]
        weekly = aggregate_dataset(build_dataset(posts, pages)[0], Timescale.W)
        assert weekly.page_ids == ["a", "b", "c"]
        assert page_features(pages, weekly, end_date=date(2020, 3, 1)) == {"a": (0.0, 91.0), "c": (5.0, 91.0)}

    def test_equals_the_per_page_features_on_the_golden_corpus(self):
        dataset, _ = load_dataset(CORPUS / "posts.csv", CORPUS / "pages.csv")
        weekly = aggregate_dataset(dataset, Timescale.W)
        expected = {}
        for code, page_id in enumerate(weekly.page_ids):
            own = weekly[weekly.page == code]
            known = own.followers != ABSENT
            if known.any():
                lifespan = float((dataset.end_date - dataset.pages[page_id].created_at).days)
                expected[page_id] = (float(own.followers[known].max()), lifespan)
        assert len(expected) == len(dataset.pages) == 20
        assert page_features(dataset.pages, weekly, dataset.end_date) == expected

    def test_standardization_properties(self):
        features = {
            "a": (100.0, 10.0),
            "b": (300.0, 20.0),
            "c": (200.0, 60.0),
            "d": (50.0, 30.0),
        }
        z = standardize_features(features)
        mat = np.array([z[i] for i in sorted(z)])
        assert np.allclose(mat.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(mat.std(axis=0), 1.0, atol=1e-12)

    def test_identical_pages_distance_zero(self):
        features = {"a": (100.0, 10.0), "b": (100.0, 10.0), "c": (1.0, 1.0)}
        z = standardize_features(features)
        assert np.linalg.norm(z["a"] - z["b"]) == 0.0


class TestMatching:
    def test_trivial_single(self):
        q = {"q1": np.array([0.0, 0.0])}
        pool = {"r1": np.array([0.0, 0.0]), "r2": np.array([5.0, 5.0])}
        result = match_cohorts(q, pool)
        assert result.pairs == [("q1", "r1")]
        assert result.total_distance == 0.0

    def test_trivial_double(self):
        q = {"q1": np.array([0.0, 0.0]), "q2": np.array([1.0, 0.0])}
        pool = {
            "r1": np.array([0.0, 0.0]),
            "r2": np.array([1.0, 0.0]),
            "r3": np.array([9.0, 9.0]),
        }
        result = match_cohorts(q, pool)
        assert dict(result.pairs) == {"q1": "r1", "q2": "r2"}
        assert result.total_distance == 0.0

    def test_distinct_reliable_ids(self):
        rng = np.random.default_rng(1)
        q = {f"q{i}": rng.normal(size=2) for i in range(6)}
        pool = {f"r{i}": rng.normal(size=2) for i in range(9)}
        result = match_cohorts(q, pool)
        assert len(result.pairs) == 6
        assert len({r for _, r in result.pairs}) == 6

    def test_pool_too_small(self):
        q = {f"q{i}": np.zeros(2) for i in range(3)}
        pool = {f"r{i}": np.zeros(2) for i in range(2)}
        with pytest.raises(MatchInfeasibleError):
            match_cohorts(q, pool)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            q_points = [tuple(v) for v in rng.normal(size=(4, 2))]
            pool_points = [tuple(v) for v in rng.normal(size=(7, 2))]
            q = {f"q{i}": np.array(p) for i, p in enumerate(q_points)}
            pool = {f"r{i}": np.array(p) for i, p in enumerate(pool_points)}
            result = match_cohorts(q, pool)
            assert result.total_distance == pytest.approx(
                brute_force_min_assignment(q_points, pool_points), abs=1e-9
            )

    def test_greedy_never_beats_assignment(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = {f"q{i}": rng.normal(size=2) for i in range(5)}
            pool = {f"r{i}": rng.normal(size=2) for i in range(8)}
            exact = match_cohorts(q, pool)
            greedy = greedy_match(q, pool)
            assert greedy.total_distance >= exact.total_distance - 1e-12
            assert greedy.method == "greedy"

    def test_rescaling_invariance_through_standardization(self):
        rng = np.random.default_rng(3)
        raw = {f"p{i}": (float(rng.uniform(1e4, 1e6)), float(rng.uniform(100, 4000)))
               for i in range(12)}
        scaled = {k: (v[0] * 37.0, v[1] * 37.0) for k, v in raw.items()}
        z1 = standardize_features(raw)
        z2 = standardize_features(scaled)
        q_ids = [f"p{i}" for i in range(4)]
        r_ids = [f"p{i}" for i in range(4, 12)]
        res1 = match_cohorts({i: z1[i] for i in q_ids}, {i: z1[i] for i in r_ids})
        res2 = match_cohorts({i: z2[i] for i in q_ids}, {i: z2[i] for i in r_ids})
        assert res1.pairs == res2.pairs
        assert res1.total_distance == pytest.approx(res2.total_distance, rel=1e-9)

    def test_the_pipeline_refuses_an_unknown_matching_before_any_work(self, monkeypatch):
        dataset, _ = load_dataset(CORPUS / "posts.csv", CORPUS / "pages.csv")

        def no_work(*args, **kwargs):
            raise AssertionError("pages were labelled or aggregated")

        monkeypatch.setattr(pipeline, "label_pages", no_work)
        monkeypatch.setattr(pipeline, "aggregate_dataset", no_work)
        warnings = []
        with pytest.raises(ValueError, match="unknown matching 'optimal'"):
            pipeline.cohort(dataset, warnings.append, matching="optimal")
        assert warnings == []


class TestMatchDistances:
    """Both matchers report the distance of each pair they chose, and
    matches.csv writes those numbers."""

    @pytest.mark.parametrize("matcher", [match_cohorts, greedy_match])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distances_follow_the_pairs(self, matcher, seed):
        rng = np.random.default_rng(seed)
        raw = {f"p{i:02d}": (float(rng.uniform(1e4, 1e6)), float(rng.uniform(100, 4000))) for i in range(30)}
        z = standardize_features(raw)
        q = {i: z[i] for i in sorted(z)[:9]}
        pool = {i: z[i] for i in sorted(z)[9:]}
        result = matcher(q, pool)
        assert len(result.distances) == len(result.pairs) == 9
        for (q_id, r_id), d in zip(result.pairs, result.distances):
            assert d == pytest.approx(float(np.linalg.norm(q[q_id] - pool[r_id])), rel=0, abs=1e-12)
        assert math.fsum(result.distances) == pytest.approx(result.total_distance, rel=0, abs=1e-12)

        stream = io.StringIO()
        write_match_csv(result, stream)
        rows = list(csv.reader(io.StringIO(stream.getvalue())))
        assert rows[0] == ["questionable_id", "reliable_id", "distance"]
        assert rows[1:] == [[q_id, r_id, format(d, ".12g")] for (q_id, r_id), d in zip(result.pairs, result.distances)]


class TestAssignOracle:
    @pytest.mark.parametrize("kind", ["real", "tied", "constant"])
    def test_same_pairs_as_linear_sum_assignment(self, kind):
        rng = np.random.default_rng({"real": 1, "tied": 2, "constant": 3}[kind])
        for _ in range(300):
            nr = int(rng.integers(1, 10))
            shape = (nr, int(rng.integers(nr, 16)))
            if kind == "real":
                cost = rng.random(shape)
            elif kind == "tied":
                cost = rng.integers(0, 4, shape).astype(float)
            else:
                cost = np.full(shape, float(rng.integers(0, 3)))
            rows, cols = _assign(cost)
            ref_rows, ref_cols = linear_sum_assignment(cost)
            assert rows.tolist() == ref_rows.tolist() and cols.tolist() == ref_cols.tolist()

    def test_large_rectangle(self):
        cost = np.random.default_rng(4).random((60, 400))
        assert _assign(cost)[1].tolist() == linear_sum_assignment(cost)[1].tolist()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_invalid_entries_refused(self, bad):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            _assign(np.array([[1.0, bad], [0.0, 2.0]]))

    def test_infeasible_refused(self):
        with pytest.raises(ValueError, match="infeasible"):
            _assign(np.array([[1.0, np.inf], [2.0, np.inf]]))
