"""Distribution fits, rank tests against an enumeration oracle, symmetry checks."""

import itertools
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize
from scipy.special import ndtr
from scipy.stats import mannwhitneyu, rankdata

from pagegrowth import stats
from pagegrowth.cohort import reliability_comparison
from pagegrowth.stats import (
    BURR_FIT_FATOL,
    BURR_FIT_MAX_ITER,
    EXACT_MAX_PRODUCT,
    BurrParams,
    DegenerateSampleError,
    FitConvergenceError,
    LaplaceParams,
    burr_cdf,
    burr_ppf,
    class_test_matrix,
    detailed_balance_check,
    fit_burr,
    fit_laplace,
    laplace_pdf,
    mann_whitney,
    _burr_cdf_from_logx,
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

    @pytest.mark.parametrize("fit", [fit_burr, fit_laplace])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, fit, value):
        x = np.linspace(1.0, 2.0, 100)
        x[37] = value
        with pytest.raises(DegenerateSampleError, match=f"non-finite value {value} in sample"):
            fit(x)


def ln1p_exp(y):
    """ln(1 + e^y) as ``stats._log1p_xc`` computes it, in fresh arrays."""
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def logaddexp_ln1p_exp(y):
    """ln(1 + e^y) as ``fit_burr`` computed it before ``_log1p_xc``."""
    return np.logaddexp(0.0, y)


def reference_fit_burr(samples, ln1p=ln1p_exp):
    """``fit_burr``'s steps without its buffers: a fresh array per
    evaluation, every grid point's ln(1+x^c) computed twice, and scipy's
    Nelder-Mead; returns scipy's result. ``ln1p`` gives ln(1 + e^y), and
    the squares are summed by ``np.sum``."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    ecdf = np.arange(1, n + 1) / (n + 1.0)
    lnx = np.log(arr)

    def objective(theta):
        c, k = math.exp(theta[0]), math.exp(theta[1])
        resid = -np.expm1(-k * ln1p(c * lnx)) - ecdf
        return float(np.sum(resid * resid))

    best_theta, best_val = None, math.inf
    for c in np.exp(np.linspace(math.log(0.05), math.log(5e4), 60)):
        k = 1.0 / float(np.mean(ln1p(c * lnx)))
        theta = (math.log(c), math.log(k))
        val = objective(theta)
        if val < best_val:
            best_theta, best_val = theta, val
    options = {"maxiter": stats.BURR_FIT_MAX_ITER, "xatol": 1e-8, "fatol": BURR_FIT_FATOL}
    return minimize(objective, best_theta, method="Nelder-Mead", options=options)


# The bound on fit_burr against the logaddexp fit below, and on the golden fits
# at another SIMD level (tests/test_golden.py). Worst gaps measured: 6.1e-9 in
# c or k on the 20 seeds below (1.9e-8 over 200 seeds), 2.2e-16 in a capped
# objective, 3.0e-8 in a model coefficient and 9.3e-8 between two fitted Burr
# CDFs below X86_V4; 1e-6 leaves a margin of 10 or more.
BURR_FIT_REL = 1e-6


class TestBurrFitReference:
    @staticmethod
    def _samples(seed):
        rng = np.random.default_rng(seed)
        n = int(math.exp(rng.uniform(math.log(50), math.log(20_000))))
        c, k = math.exp(rng.uniform(-2, 9)), math.exp(rng.uniform(-2.5, 1.5))
        x = burr_ppf(rng.uniform(1e-12, 1 - 1e-12, n), BurrParams(c, k))
        if seed % 4 == 3:  # every value four times: a stepped empirical CDF
            x = np.repeat(x[: n // 4 + 13], 4)
        return x

    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_allocating_fit(self, seed, monkeypatch):
        x = self._samples(seed)
        if seed % 2:  # a low cap, so that the iteration limit is hit
            monkeypatch.setattr(stats, "BURR_FIT_MAX_ITER", 5 + seed)
        ref = reference_fit_burr(x)
        c, k = math.exp(ref.x[0]), math.exp(ref.x[1])
        if ref.success:
            fit = fit_burr(x)
            assert struct.pack("<2d", fit.c, fit.k) == struct.pack("<2d", c, k)
            return
        with pytest.raises(FitConvergenceError) as info:
            fit_burr(x)
        err = info.value
        assert str(err) == f"fit_burr did not converge: {ref.message} (objective {ref.fun:.3e})"
        assert struct.pack("<d", err.objective) == struct.pack("<d", ref.fun)
        assert struct.pack("<2d", *err.last_params) == struct.pack("<2d", c, k)

    @pytest.mark.parametrize("seed", range(20))
    def test_close_to_logaddexp_fit(self, seed, monkeypatch):
        x = self._samples(seed)
        if seed % 2:
            monkeypatch.setattr(stats, "BURR_FIT_MAX_ITER", 5 + seed)
        ref = reference_fit_burr(x, ln1p=logaddexp_ln1p_exp)
        c, k = math.exp(ref.x[0]), math.exp(ref.x[1])
        if ref.success:
            fit = fit_burr(x)
            assert fit.c == pytest.approx(c, rel=BURR_FIT_REL)
            assert fit.k == pytest.approx(k, rel=BURR_FIT_REL)
            return
        with pytest.raises(FitConvergenceError) as info:
            fit_burr(x)
        err = info.value
        assert str(err).startswith(f"fit_burr did not converge: {ref.message} (objective ")
        assert err.objective == pytest.approx(ref.fun, rel=BURR_FIT_REL)

    def test_both_outcomes_are_covered(self, monkeypatch):
        monkeypatch.setattr(stats, "BURR_FIT_MAX_ITER", 6)
        assert not reference_fit_burr(self._samples(1)).success
        monkeypatch.setattr(stats, "BURR_FIT_MAX_ITER", BURR_FIT_MAX_ITER)
        assert reference_fit_burr(self._samples(0)).success


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Units in the last place between non-negative doubles of equal shape."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestLog1pXc:
    @staticmethod
    def _kernel(y):
        return stats._log1p_xc(y, 1.0, np.empty_like(y), np.empty_like(y))

    def test_within_few_ulp_of_logaddexp(self):
        rng = np.random.default_rng(15)
        y = np.concatenate([rng.uniform(-750, 750, 200_000), rng.uniform(-40, 40, 200_000)])
        assert ulps_apart(self._kernel(y), np.logaddexp(0.0, y)).max() <= 4

    def test_edges_exactly(self):
        tiny = np.finfo(float).smallest_subnormal
        y = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 1e-310, -1e-310, 709.8, -709.8]
        y = np.array(y)
        with np.errstate(invalid="ignore"):  # logaddexp flags NaN; the kernel passes it through
            expected = np.logaddexp(0.0, y)
        assert self._kernel(y).tobytes() == expected.tobytes()

    def test_writes_only_its_buffers(self):
        lnx = np.linspace(-3.0, 3.0, 7)
        before = lnx.copy()
        out, scratch = np.empty_like(lnx), np.empty_like(lnx)
        assert stats._log1p_xc(lnx, 2.0, out, scratch) is out
        assert lnx.tobytes() == before.tobytes()


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

    def test_tied_vertex_values(self):
        # a flat floor: every vertex ties until the simplex has shrunk below xatol
        def plateau(v):
            return float(max(0.0, abs(v[0]) - 1.0) + max(0.0, abs(v[1]) - 1.0))

        # a staircase: some vertices tie, some do not
        def stairs(v):
            return float(math.floor(4 * v[0]) ** 2 + math.floor(4 * v[1]) ** 2)

        assert self._check(plateau, (0.5, 0.5), 500)
        assert self._check(plateau, (1.5, -2.0), 500)
        for x0 in ((1.3, -0.7), (0.0, 2.2), (-3.1, 0.4)):
            for maxiter in (7, 500):
                self._check(stairs, x0, maxiter)

    def test_vertex_order_is_argsorts(self):
        # the simplex's sort key against np.argsort, scipy's order: ties, signed zeros, infinities and NaN
        pool = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan, -math.nan, 1e-300]
        triples = [list(t) for t in itertools.product(pool, repeat=3)]
        rng = np.random.default_rng(5)
        triples += rng.choice(np.array(pool), size=(20_000, 3)).tolist()
        triples += np.round(rng.normal(size=(20_000, 3)), 1).tolist()  # ties among ordinary values
        for values in triples:
            assert sorted(range(3), key=stats._nan_last(values)) == np.argsort(values).tolist(), values

    def test_nan_vertex_values(self):
        # undefined beyond a wall: NaN values sort last, as np.argsort puts them
        def walled(v):
            return math.nan if v[0] + v[1] > 2.0 else float((v[0] - 1.5) ** 2 + (v[1] - 0.2) ** 2)

        for x0 in ((1.0, 0.96), (0.97, 1.0), (1.9, 0.05)):
            for maxiter in (4, 500):
                self._check(walled, x0, maxiter)


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

    def test_nan_class_gives_error_cells(self):
        bins = {"a": [1.0, np.nan, 2.0], "b": [3.0, 4.0], "c": [0.5, 5.0]}
        cells = class_test_matrix(bins)
        assert len(cells) == 6
        for c in cells:
            if "a" in (c.row, c.col):
                assert c.result is None and c.error == "mann_whitney: NaN in sample"
            else:
                assert c.error is None and c.result.method == "exact"

    def test_type_error_is_not_a_cell(self):
        # only refusals become cells; a bug in the input surfaces
        with pytest.raises(TypeError):
            class_test_matrix({"a": [1.0, object()], "b": [3.0, 4.0]})


def result_bits(r):
    return struct.pack("<2d", r.u_statistic, r.p_value), r.alternative, r.n1, r.n2, r.method


# samples for the sorted Mann-Whitney kernel
tie_free = st.lists(st.floats(allow_nan=False), unique=True, max_size=60)
heavily_tied = st.lists(st.integers(-4, 4).map(lambda i: i * 0.25), max_size=60)
# a few shared values, signed zeros and infinities among them, make long tie runs
specials = st.lists(
    st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]), st.floats(allow_nan=False)),
    max_size=60,
)
kernel_samples = st.one_of(tie_free, heavily_tied, specials)


class TestMannWhitneyKernel:
    @given(st.lists(st.one_of(kernel_samples, kernel_samples.map(lambda v: [*v, math.nan])), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matrix_cells_equal_mann_whitney(self, classes):
        # empty classes and classes holding NaN among them
        bins = {f"c{i}": values for i, values in enumerate(classes)}
        for cell in class_test_matrix(bins):
            try:
                ref = mann_whitney(bins[cell.row], bins[cell.col], alternative=cell.alternative)
            except ValueError as exc:
                assert (cell.result, cell.error) == (None, str(exc))
            else:
                assert cell.error is None and result_bits(cell.result) == result_bits(ref)

    def test_matrix_refusals_equal_mann_whitney(self):
        # every refusal, in mann_whitney's order: arguments, conversion, empty, NaN
        bins = {"text": ["x"], "empty": [], "nan": [1.0, math.nan], "ok": [1.0, 2.0], "more": [3.0, 5.0]}
        cells = class_test_matrix(bins, alternatives=("greater", "bogus"))
        assert len(cells) == 20 and sum(c.error is None for c in cells) == 1
        for cell in cells:
            try:
                ref = mann_whitney(bins[cell.row], bins[cell.col], alternative=cell.alternative)
            except ValueError as exc:
                assert (cell.result, cell.error) == (None, str(exc))
            else:
                assert cell.error is None and result_bits(cell.result) == result_bits(ref)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(20, 20), (16, 25), (1, 400), (1, 401), (401, 1), (21, 20)]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_route_boundary(self, seed, sizes, rounded):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=sizes[0]), rng.normal(size=sizes[1])
        if rounded:
            x, y = np.round(x, 1), np.round(y, 1)
        tied = np.unique(np.concatenate([x, y])).size < x.size + y.size
        exact = not tied and x.size * y.size <= EXACT_MAX_PRODUCT
        for cell in class_test_matrix({"x": x, "y": y}):
            ref = mann_whitney(x, y, alternative=cell.alternative)
            assert result_bits(cell.result) == result_bits(ref)
            assert ref.method == ("exact" if exact else "normal-approx")

    @given(kernel_samples, kernel_samples, st.sampled_from(["greater", "two-sided"]))
    @settings(max_examples=300, deadline=None)
    def test_against_scipy(self, x, y, alternative):
        if not x or not y:
            return
        r = mann_whitney(x, y, alternative=alternative)
        ref = mannwhitneyu(x, y, alternative=alternative, method="asymptotic")
        assert r.u_statistic == ref.statistic
        if r.method == "normal-approx" and len(set(x + y)) > 1:  # scipy's p is NaN without spread
            assert abs(r.p_value - ref.pvalue) <= 1e-12

    @given(st.one_of(
        st.lists(st.floats(allow_nan=False), min_size=100, max_size=300),
        st.lists(st.integers(-4, 4).map(lambda i: i * 0.25), min_size=100, max_size=300),
        st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, math.inf, -math.inf]), min_size=100, max_size=300),
    ))
    @settings(max_examples=100, deadline=None)
    def test_balance_u_equals_rankdata_u(self, values):
        g = np.array(values)
        n = g.size
        ranks = rankdata(np.concatenate([g, -g]))
        assert detailed_balance_check(g).u_statistic == float(np.sum(ranks[:n])) - n * (n + 1) / 2.0


class TestMannWhitneyNan:
    # NaN is refused, as an empty sample is; these inputs once gave a U of
    # NaN and the p in the last parameter, or a bare ValueError

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_one_nan_on_the_exact_route_raises(self, alternative):
        with pytest.raises(DegenerateSampleError, match="NaN"):
            mann_whitney([1.0, np.nan, 3.0], [2.0, 4.0], alternative=alternative)

    @pytest.mark.parametrize(
        "x, y, alternative, earlier_p",
        [
            ([1.0, np.nan, 3.0], [np.nan, 4.0], "greater", 0.0),
            ([1.0, np.nan, 3.0], [np.nan, 4.0], "two-sided", 1.0),
            ([*range(30), np.nan], [v + 0.5 for v in range(30)], "greater", 0.0),
            ([*range(30), np.nan], [v + 0.5 for v in range(30)], "two-sided", 1.0),
            ([np.nan] * 3, [np.nan] * 4, "greater", 1.0),
            ([np.nan] * 3, [np.nan] * 4, "two-sided", 1.0),
        ],
    )
    def test_normal_route_result(self, x, y, alternative, earlier_p):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DegenerateSampleError, match="mann_whitney: NaN in sample"):
                mann_whitney(a, b, alternative=alternative)

    def test_empty_is_reported_before_nan(self):
        with pytest.raises(DegenerateSampleError, match="empty"):
            mann_whitney([np.nan], [])


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

    def test_nan_refused(self):
        # a single NaN once gave p = 1.0
        with pytest.raises(DegenerateSampleError, match="NaN"):
            detailed_balance_check(np.append(np.arange(1.0, 200.0), np.nan))


class TestReliabilityComparison:
    def test_empty_cohort_rejected(self):
        from pagegrowth.aggregate import Timescale, aggregate_engagement

        empty = aggregate_engagement([], Timescale.W)
        with pytest.raises(DegenerateSampleError):
            reliability_comparison(empty, empty)

    def test_right_shift_detected(self):
        from datetime import date, datetime, timezone

        from pagegrowth.aggregate import Timescale, aggregate_dataset
        from pagegrowth.ingest import PageMeta, PostRecord, build_dataset

        def windows(drift, seed):  # 20 pages' weekly windows as one table
            rng = np.random.default_rng(seed)
            posts = []
            for page in range(20):
                level = 1000.0
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
            pages = {f"p{page}": PageMeta(f"p{page}", f"p{page}", date(2019, 1, 1)) for page in range(20)}
            return aggregate_dataset(build_dataset(posts, pages)[0], Timescale.W)

        questionable = windows(drift=0.0, seed=1)
        reliable = windows(drift=0.08, seed=2)
        assert len(questionable.page_ids) == len(reliable.page_ids) == 20
        results = reliability_comparison(questionable, reliable)
        assert results["engagement_growth"].p_value < 0.01
        assert set(results) == {"engagement", "engagement_growth"}
