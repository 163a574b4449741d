"""Distribution fits, rank tests against an enumeration oracle, symmetry checks."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize
from scipy.special import ndtr
from scipy.stats import rankdata

from pagegrowth.cohort import reliability_comparison
from pagegrowth.stats import (
    EXACT_MAX_PRODUCT,
    BurrParams,
    DegenerateSampleError,
    LaplaceParams,
    burr_cdf,
    burr_pdf,
    burr_ppf,
    class_test_matrix,
    detailed_balance_check,
    fit_burr,
    fit_laplace,
    laplace_pdf,
    mann_whitney,
    _burr_cdf_from_logx,
    _midranks,
    _nelder_mead,
    _norm_sf,
)


# ---------------------------------------------------------------------------
# oracle: full enumeration of rank assignments
# ---------------------------------------------------------------------------

def brute_u_distribution(n1: int, n2: int) -> Counter:
    """Distribution of U over all C(n1+n2, n1) tie-free rank assignments."""
    counts: Counter = Counter()
    for x_ranks in itertools.combinations(range(1, n1 + n2 + 1), n1):
        u = sum(x_ranks) - n1 * (n1 + 1) // 2
        counts[u] += 1
    return counts


def brute_u_statistic(x, y) -> int:
    return sum(1 for xi in x for yj in y if xi > yj)


def brute_p(x, y, alternative: str) -> float:
    n1, n2 = len(x), len(y)
    dist = brute_u_distribution(n1, n2)
    total = sum(dist.values())
    u = brute_u_statistic(x, y)
    p_ge = sum(c for v, c in dist.items() if v >= u) / total
    p_le = sum(c for v, c in dist.items() if v <= u) / total
    if alternative == "greater":
        return p_ge
    return min(1.0, 2.0 * min(p_ge, p_le))


class TestLaplaceFit:
    def test_identity_mean_and_scale(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=500)
        params = fit_laplace(x)
        assert params.mu == pytest.approx(float(np.mean(x)), rel=1e-12)
        assert params.b == pytest.approx(float(np.std(x, ddof=1)) / math.sqrt(2), rel=1e-12)

    def test_unit_cases(self):
        # mean 0, sd sqrt(2) -> (0, 1); mean .5, sd .3*sqrt(2) -> (.5, .3)
        base = np.array([-1.0, 1.0, -1.0, 1.0])
        params = fit_laplace(base * math.sqrt(2) / np.std(base, ddof=1))
        assert params.mu == pytest.approx(0.0, abs=1e-15)
        assert params.b == pytest.approx(1.0, rel=1e-12)
        scaled = base * (0.3 * math.sqrt(2) / np.std(base, ddof=1)) + 0.5
        params = fit_laplace(scaled)
        assert params.mu == pytest.approx(0.5, rel=1e-12)
        assert params.b == pytest.approx(0.3, rel=1e-12)

    def test_monte_carlo_round_trip(self):
        rng = np.random.default_rng(42)
        x = rng.laplace(0.2, 0.7, size=100_000)
        params = fit_laplace(x)
        assert params.mu == pytest.approx(0.2, abs=0.01)
        assert params.b == pytest.approx(0.7, abs=0.01)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_laplace([1.0])
        with pytest.raises(DegenerateSampleError):
            fit_laplace([2.0, 2.0, 2.0])


class TestLaplacePdf:
    def test_peak(self):
        assert laplace_pdf(0.0, LaplaceParams(0.0, 1.0)) == pytest.approx(0.5)

    def test_one_scale_away(self):
        p = LaplaceParams(1.5, 1.0)
        assert laplace_pdf(2.5, p) == pytest.approx(0.5 * math.exp(-1), rel=1e-12)

    def test_symmetry(self):
        p = LaplaceParams(0.7, 0.4)
        for d in (0.1, 1.0, 3.7):
            assert laplace_pdf(p.mu + d, p) == pytest.approx(laplace_pdf(p.mu - d, p), rel=1e-12)

    @pytest.mark.parametrize("mu,b", [(0.0, 1.0), (2.0, 0.3), (-1.0, 5.0)])
    def test_integrates_to_one(self, mu, b):
        p = LaplaceParams(mu, b)
        total, _ = quad(lambda x: laplace_pdf(x, p), mu - 40 * b, mu + 40 * b, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestBurr:
    def test_cdf_half_at_one_when_k_one(self):
        for c in (0.5, 1.0, 4.0):
            assert burr_cdf(1.0, BurrParams(c, 1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_cdf_simple_value(self):
        assert burr_cdf(3.0, BurrParams(1.0, 1.0)) == pytest.approx(0.75, rel=1e-12)

    def test_cdf_domain(self):
        with pytest.raises(ValueError):
            burr_cdf(0.0, BurrParams(1.0, 1.0))
        with pytest.raises(ValueError):
            burr_cdf(-1.0, BurrParams(1.0, 1.0))

    def test_median_formula_matches_numeric_inversion(self):
        for c, k in ((0.5, 0.5), (3.0, 2.0), (10.0, 0.3)):
            p = BurrParams(c, k)
            numeric = brentq(lambda x: burr_cdf(x, p) - 0.5, 1e-9, 1e9, xtol=1e-13)
            assert p.median() == pytest.approx(numeric, rel=1e-9)
            assert burr_cdf(p.median(), p) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        p = BurrParams(2.0, 1.5)
        xs = np.logspace(-3, 3, 100)
        cdf = burr_cdf(xs, p)
        assert np.all(np.diff(cdf) > 0)
        assert cdf[0] < 1e-5 and cdf[-1] > 1 - 1e-5

    def test_ppf_cdf_identity_grid(self):
        us = np.concatenate([[1e-6], np.linspace(0.01, 0.99, 25), [1 - 1e-6]])
        for c in (0.5, 1.0, 3.0, 10.0, 1e3):
            for k in (0.1, 0.5, 1.0, 2.0):
                p = BurrParams(c, k)
                back = burr_cdf(burr_ppf(us, p), p)
                assert np.max(np.abs(back - us)) < 1e-9

    def test_pdf_integrates_to_cdf(self):
        p = BurrParams(2.0, 1.0)
        mass, _ = quad(lambda x: burr_pdf(x, p), 1e-12, 50.0, limit=200)
        assert mass == pytest.approx(burr_cdf(50.0, p), abs=1e-8)


class TestBurrFit:
    def test_round_trip_c3_k2(self):
        rng = np.random.default_rng(7)
        x = burr_ppf(rng.uniform(1e-12, 1 - 1e-12, size=20_000), BurrParams(3.0, 2.0))
        fit = fit_burr(x)
        assert fit.c == pytest.approx(3.0, rel=0.05)
        assert fit.k == pytest.approx(2.0, rel=0.05)

    def test_table_magnitude_median(self):
        true = BurrParams(8420.469, 0.18)
        rng = np.random.default_rng(3)
        x = burr_ppf(rng.uniform(1e-12, 1 - 1e-12, size=20_000), true)
        fit = fit_burr(x)
        assert fit.median() == pytest.approx(true.median(), rel=1e-3)

    def test_degenerate_all_equal(self):
        with pytest.raises(DegenerateSampleError):
            fit_burr(np.full(100, 1.3))

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            fit_burr(np.concatenate([np.full(60, 1.0), [-0.5]]))

    def test_too_few_samples(self):
        with pytest.raises(DegenerateSampleError):
            fit_burr(np.linspace(0.5, 2.0, 30))


class TestNormSfOracle:
    def _check(self, z):
        got = np.array([_norm_sf(float(v)) for v in z])
        assert got.tobytes() == ndtr(-z).tobytes()

    def test_bit_identical_to_ndtr(self):
        rng = np.random.default_rng(2024)
        self._check(np.concatenate([rng.uniform(-40, 40, 100_000), rng.normal(0, 3, 100_000)]))

    def test_branch_edges_and_non_finite(self):
        r2 = math.sqrt(2)
        edges = [0.0, -0.0, 1.0, -1.0, r2, -r2, 8 * r2, -8 * r2, math.inf, -math.inf, math.nan]
        edges += [np.nextafter(v, d) for v in (r2, -r2, 8 * r2, -8 * r2) for d in (0.0, math.inf)]
        self._check(np.array(edges))


class TestNelderMeadOracle:
    options = {"xatol": 1e-8, "fatol": 1e-10}

    def _check(self, func, x0, maxiter):
        x, fun, success, message = _nelder_mead(func, x0, maxiter=maxiter, **self.options)
        ref = minimize(func, x0, method="Nelder-Mead", options={"maxiter": maxiter, **self.options})
        assert x.tobytes() == ref.x.tobytes()
        assert (fun, success, message) == (ref.fun, ref.success, ref.message)
        return success

    def test_fit_burr_objectives(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(40):
            c, k = math.exp(rng.uniform(-2, 8)), math.exp(rng.uniform(-2, 1.5))
            n = int(rng.integers(50, 400))
            lnx = np.log(np.sort(burr_ppf(rng.uniform(1e-9, 1 - 1e-9, n), BurrParams(c, k))))
            ecdf = np.arange(1, n + 1) / (n + 1.0)

            def objective(theta):  # fit_burr's
                resid = _burr_cdf_from_logx(lnx, math.exp(theta[0]), math.exp(theta[1])) - ecdf
                return float(resid @ resid)

            x0 = (math.log(c) + rng.normal(0, 1), math.log(k) + rng.normal(0, 1))
            for maxiter in (int(rng.integers(3, 40)), 500):
                outcomes.add(self._check(objective, x0, maxiter))
        assert outcomes == {True, False}

    def test_rosenbrock_runs_out_of_iterations(self):
        def rosen(v):
            return float(100 * (v[1] - v[0] ** 2) ** 2 + (1 - v[0]) ** 2)

        assert not self._check(rosen, (-1.2, 1.0), 5)
        assert self._check(rosen, (-1.2, 1.0), 2000)
        assert self._check(rosen, (0.0, 0.0), 2000)  # zero start: steps of 0.00025


class TestMannWhitney:
    def test_spec_example_greater(self):
        r = mann_whitney([4, 5, 6], [1, 2, 3], alternative="greater")
        assert r.u_statistic == 9
        assert r.p_value == pytest.approx(1 / 20, abs=1e-15)
        assert r.method == "exact"

    def test_identical_multisets_two_sided(self):
        r = mann_whitney([1, 2, 3], [1, 2, 3], alternative="two-sided")
        assert r.p_value == 1.0
        assert r.method == "normal-approx"  # ties forbid the exact route

    def test_reversed_greater_is_one(self):
        r = mann_whitney([1, 2, 3], [4, 5, 6], alternative="greater")
        assert r.u_statistic == 0
        assert r.p_value == 1.0

    def test_empty_sample(self):
        with pytest.raises(DegenerateSampleError):
            mann_whitney([], [1.0])

    def test_all_values_identical(self):
        r = mann_whitney([5, 5], [5, 5, 5], alternative="two-sided")
        assert r.p_value == 1.0

    def test_null_distribution_matches_enumeration(self):
        from pagegrowth.stats import _exact_u_counts

        for n1 in range(1, 9):
            for n2 in range(1, 9):
                oracle = brute_u_distribution(n1, n2)
                counts = _exact_u_counts(n1, n2)
                assert len(counts) == n1 * n2 + 1
                for u, c in enumerate(counts):
                    assert c == oracle.get(u, 0), (n1, n2, u)
                assert sum(counts) == math.comb(n1 + n2, n1)

    def test_exact_matches_oracle_all_small_sizes(self):
        rng = np.random.default_rng(11)
        for n1 in range(1, 9):
            for n2 in range(1, 9):
                pool = rng.permutation(np.arange(1, n1 + n2 + 1, dtype=float))
                x, y = list(pool[:n1]), list(pool[n1:])
                for alternative in ("greater", "two-sided"):
                    r = mann_whitney(x, y, alternative=alternative)
                    assert r.method == "exact"
                    assert r.u_statistic == brute_u_statistic(x, y)
                    assert r.p_value == pytest.approx(
                        brute_p(x, y, alternative), abs=1e-12
                    ), (n1, n2, alternative)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        x = list(rng.normal(size=6))
        y = list(rng.normal(size=7))
        r_xy = mann_whitney(x, y, alternative="greater")
        r_yx = mann_whitney(y, x, alternative="greater")
        assert r_xy.u_statistic + r_yx.u_statistic == pytest.approx(6 * 7)
        # one-sided p's overlap exactly in P(U = u): p(x,y) + p(y,x) = 1 + pmf(u)
        dist = brute_u_distribution(6, 7)
        total = sum(dist.values())
        pmf = dist[int(r_xy.u_statistic)] / total
        assert r_xy.p_value + r_yx.p_value == pytest.approx(1.0 + pmf, abs=1e-12)

    def test_normal_approx_close_to_exact_at_20_20(self):
        rng = np.random.default_rng(17)
        for shift in (0.0, 0.3, 0.8, 1.5):
            x = rng.normal(shift, 1.0, size=20)
            y = rng.normal(0.0, 1.0, size=20)
            for alternative in ("greater", "two-sided"):
                exact = mann_whitney(x, y, alternative=alternative, method="exact")
                approx = mann_whitney(x, y, alternative=alternative, method="normal-approx")
                assert exact.method == "exact"
                assert abs(exact.p_value - approx.p_value) < 0.01

    def test_auto_threshold(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=20), rng.normal(size=20)
        assert 20 * 20 <= EXACT_MAX_PRODUCT
        assert mann_whitney(x, y).method == "exact"
        x, y = rng.normal(size=21), rng.normal(size=20)
        assert mann_whitney(x, y).method == "normal-approx"

    def test_tie_corrected_variance_differs(self):
        # heavy ties push the tie-corrected p below the naive one
        x = [1, 1, 1, 2, 2, 3] * 10
        y = [1, 2, 2, 2, 3, 3] * 10
        r = mann_whitney(x, y, alternative="two-sided")
        assert 0.0 <= r.p_value <= 1.0
        assert r.method == "normal-approx"


class TestClassTestMatrix:
    def test_pair_counts(self):
        rng = np.random.default_rng(0)
        bins = {f"c{i}": list(rng.normal(size=50)) for i in range(4)}
        cells = class_test_matrix(bins)
        assert len(cells) == 12  # 6 unordered pairs x 2 alternatives
        one_sided = [c for c in cells if c.alternative == "greater"]
        assert len(one_sided) == 6
        assert all(c.result is not None for c in cells)

    def test_rows_are_smaller_classes(self):
        bins = {"small": [1.0, 2.0], "large": [1.5, 2.5]}
        cells = class_test_matrix(bins)
        assert all(c.row == "small" and c.col == "large" for c in cells)

    def test_single_bin_rejected(self):
        with pytest.raises(ValueError):
            class_test_matrix({"only": [1.0]})

    def test_shifted_smallest_bin_detected(self):
        rng = np.random.default_rng(9)
        n = 10_000
        bins = {
            "b1": list(rng.normal(0.2, 1.0, size=n)),
            "b2": list(rng.normal(0.0, 1.0, size=n)),
            "b3": list(rng.normal(0.0, 1.0, size=n)),
        }
        cells = [c for c in class_test_matrix(bins) if c.alternative == "greater"]
        against_b1 = [c for c in cells if c.row == "b1"]
        assert all(c.result.p_value < 0.01 for c in against_b1)

    def test_error_cells_carry_reason(self):
        bins = {"a": [1.0, 2.0], "b": []}
        cells = class_test_matrix(bins)
        assert all(c.result is None and c.error for c in cells)


class TestMidranks:
    # a few shared values, signed zeros among them, make long tie runs
    tied_floats = st.one_of(
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, math.inf]), st.floats(allow_nan=False)
    )

    @given(st.lists(tied_floats, min_size=1, max_size=500))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_rankdata(self, values):
        a = np.array(values, dtype=float)
        ranks, runs = _midranks(a)
        assert ranks.tobytes() == rankdata(a).tobytes()
        assert runs.tolist() == np.unique(a, return_counts=True)[1].tolist()

    def test_nan_makes_every_rank_nan(self):
        a = np.array([1.0, np.nan, 0.0, np.nan])
        ranks, runs = _midranks(a)
        assert np.isnan(ranks).all() and np.isnan(rankdata(a)).all()
        assert runs.tolist() == [1, 1, 2]  # the NaNs are one run, as np.unique counts them


class TestMannWhitneyNan:
    # NaN input gives a NaN U; NaNs count as one tie group, as np.unique counts them

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_one_nan_on_the_exact_route_raises(self, alternative):
        with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
            mann_whitney([1.0, np.nan, 3.0], [2.0, 4.0], alternative=alternative)

    @pytest.mark.parametrize(
        "x, y, alternative, p",
        [
            ([1.0, np.nan, 3.0], [np.nan, 4.0], "greater", 0.0),
            ([1.0, np.nan, 3.0], [np.nan, 4.0], "two-sided", 1.0),
            ([*range(30), np.nan], [v + 0.5 for v in range(30)], "greater", 0.0),
            ([*range(30), np.nan], [v + 0.5 for v in range(30)], "two-sided", 1.0),
            ([np.nan] * 3, [np.nan] * 4, "greater", 1.0),
            ([np.nan] * 3, [np.nan] * 4, "two-sided", 1.0),
        ],
    )
    def test_normal_route_result(self, x, y, alternative, p):
        r = mann_whitney(x, y, alternative=alternative)
        assert math.isnan(r.u_statistic)
        assert (r.p_value, r.method, r.n1, r.n2) == (p, "normal-approx", len(x), len(y))


class TestDetailedBalance:
    def test_symmetric_multiset_p_one(self):
        a = np.concatenate([np.arange(1, 51), -np.arange(1, 51)]).astype(float)
        r = detailed_balance_check(a)
        assert r.p_value == 1.0
        assert r.u_statistic == pytest.approx(len(a) ** 2 / 2)

    def test_null_calibration_quick(self):
        rng_master = np.random.SeedSequence(123)
        hits = 0
        for child in rng_master.spawn(20):
            g = np.random.default_rng(child).laplace(0.0, 1.0, size=20_000)
            if detailed_balance_check(g).p_value > 0.01:
                hits += 1
        assert hits >= 18

    def test_shift_detected(self):
        g = np.random.default_rng(0).laplace(0.3, 1.0, size=100_000)
        assert detailed_balance_check(g).p_value < 0.001

    def test_min_samples(self):
        with pytest.raises(DegenerateSampleError):
            detailed_balance_check(np.arange(50.0))


class TestReliabilityComparison:
    def test_empty_cohort_rejected(self):
        with pytest.raises(DegenerateSampleError):
            reliability_comparison({}, {})

    def test_right_shift_detected(self):
        from datetime import date, datetime, timezone

        from pagegrowth.aggregate import Timescale, aggregate_engagement
        from pagegrowth.ingest import PostRecord

        def series_map(drift, seed):
            rng = np.random.default_rng(seed)
            out = {}
            for page in range(20):
                level = 1000.0
                posts = []
                for week in range(40):
                    day = date(2020, 1, 6).toordinal() + 7 * week
                    d = date.fromordinal(day)
                    posts.append(
                        PostRecord(
                            page_id=f"p{page}",
                            post_id=f"p{page}-{week}",
                            timestamp=datetime(d.year, d.month, d.day, tzinfo=timezone.utc),
                            total_interactions=max(1, int(level)),
                        )
                    )
                    level *= math.exp(drift + rng.normal(0, 0.2))
                out[f"p{page}"] = aggregate_engagement(posts, Timescale.W)
            return out

        questionable = series_map(drift=0.0, seed=1)
        reliable = series_map(drift=0.08, seed=2)
        results = reliability_comparison(questionable, reliable)
        assert results["engagement_growth"].p_value < 0.01
        assert set(results) == {"engagement", "engagement_growth"}
