"""Parameter regression, published coefficient table, and the simulator."""

import io
import math

import numpy as np
import pytest
from scipy.special import stdtr

from pagegrowth.aggregate import Timescale
from pagegrowth.model import (
    CollinearCovariatesError,
    ModelCoefficients,
    ParamRegression,
    _c_k,
    _mu_b,
    published_coefficients,
    read_coefficients_csv,
    regress_parameters,
    sample_burr,
    sample_laplace,
    simulate,
    summarize_trajectories,
    write_coefficients_csv,
    _t_two_sided_p,
)
from pagegrowth.stats import BurrParams, LaplaceParams, fit_laplace, laplace_ppf
from pagegrowth.synth import gibrat_null_coefficients


def _laplace_bins(beta, lnf, lne, noise=None, rng=None):
    out = []
    for i, (f, e) in enumerate(zip(lnf, lne)):
        mu = beta[0] + beta[1] * f + beta[2] * e
        if noise:
            mu += rng.normal(0, noise)
        out.append((f, e, LaplaceParams(mu=mu, b=1.0)))
    return out


class TestRegression:
    def test_exact_interpolation(self):
        lnf = [9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        lne = [5.0, 7.0, 6.0, 9.0, 8.0, 11.0]
        bins = _laplace_bins((2.0, 3.0, -1.0), lnf, lne)
        reg = regress_parameters(bins, "mu", Timescale.Q)
        assert reg.beta0 == pytest.approx(2.0, abs=1e-9)
        assert reg.beta1 == pytest.approx(3.0, abs=1e-9)
        assert reg.beta2 == pytest.approx(-1.0, abs=1e-9)
        assert reg.r_squared == pytest.approx(1.0)

    def test_too_few_bins(self):
        bins = _laplace_bins((1.0, 1.0, 1.0), [9.0, 10.0], [5.0, 6.0])
        with pytest.raises(ValueError):
            regress_parameters(bins, "mu", Timescale.W)

    def test_collinear_rejected(self):
        lnf = [10.0, 11.0, 12.0, 13.0]
        lne = [f + 1.0 for f in lnf]  # exactly collinear with lnF
        bins = _laplace_bins((0.0, 1.0, 1.0), lnf, lne)
        with pytest.raises(CollinearCovariatesError):
            regress_parameters(bins, "mu", Timescale.W)

    def test_single_covariate_for_burr_shapes(self):
        bins = [
            (10.0, 0.0, BurrParams(c=1000.0 - 50.0 * 10.0, k=0.05 * 10.0)),
            (12.0, 0.0, BurrParams(c=1000.0 - 50.0 * 12.0, k=0.05 * 12.0)),
            (14.0, 0.0, BurrParams(c=1000.0 - 50.0 * 14.0, k=0.05 * 14.0)),
        ]
        reg_c = regress_parameters(bins, "c", Timescale.M)
        assert reg_c.beta2 is None
        assert reg_c.beta0 == pytest.approx(1000.0, abs=1e-8)
        assert reg_c.beta1 == pytest.approx(-50.0, abs=1e-9)
        reg_k = regress_parameters(bins, "k", Timescale.M)
        assert reg_k.beta1 == pytest.approx(0.05, abs=1e-12)

    def test_noisy_recovery_within_two_se(self):
        rng = np.random.default_rng(8)
        lnf = np.linspace(9.2, 15.4, 40)
        lne = 0.9 * (lnf - 12.0) + 8.0 + rng.normal(0, 0.3, size=40)
        beta = (0.384, 0.031, -0.065)
        bins = _laplace_bins(beta, lnf, lne, noise=0.01, rng=rng)
        reg = regress_parameters(bins, "mu", Timescale.Q)
        for est, true, se in zip(
            (reg.beta0, reg.beta1, reg.beta2), beta, reg.std_errors
        ):
            assert abs(est - true) <= 3 * se  # 3 se: single-draw check

    def test_pvalues_in_range(self):
        rng = np.random.default_rng(3)
        lnf = np.linspace(9.0, 15.0, 30)
        lne = rng.uniform(5.0, 12.0, size=30)
        bins = _laplace_bins((0.1, 0.05, -0.06), lnf, lne, noise=0.05, rng=rng)
        reg = regress_parameters(bins, "mu", Timescale.W)
        assert len(reg.p_values) == 3
        assert all(0.0 <= p <= 1.0 for p in reg.p_values)
        # strong true effects on a tight design should look significant
        assert reg.p_values[1] < 0.01 and reg.p_values[2] < 0.01


class TestTTailOracle:
    def test_within_1e_10_of_stdtr(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for df in [*range(1, 41), *np.unique(np.geomspace(41, 1000, 40).astype(int))]:
            t = np.concatenate([np.geomspace(1e-6, 1e3, 60), 10 ** rng.uniform(-6, 3, 40)])
            ref = 2.0 * stdtr(df, -t)
            for tv, r in zip(t, ref):
                if r > 1e-300:
                    for signed in (tv, -tv):
                        worst = max(worst, abs(_t_two_sided_p(float(signed), int(df)) - r) / r)
        assert worst < 1e-10

    def test_zero_and_non_finite(self):
        assert _t_two_sided_p(0.0, 3) == 1.0
        assert _t_two_sided_p(math.inf, 3) == 0.0 == 2.0 * stdtr(3, -math.inf)
        assert math.isnan(_t_two_sided_p(math.nan, 3))


class TestPublishedCoefficients:
    def test_complete(self):
        coeffs = published_coefficients()
        coeffs.validate_complete()
        assert len(coeffs.entries) == 12

    def test_mu_w_evaluation(self):
        # independent arithmetic for the weekly location at F=1e5, E=1e4
        expected = -0.109 + 0.054 * math.log(1e5) - 0.062 * math.log(1e4)
        mu, _, _ = _mu_b(published_coefficients(), Timescale.W, math.log(1e5), math.log(1e4))
        assert mu == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.0583431, abs=1e-6)

    def test_k_w_evaluation(self):
        expected = -0.778 + 0.083 * math.log(1e5)
        _, k, _, _ = _c_k(published_coefficients(), Timescale.W, math.log(1e5))
        assert k == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.1775728, abs=1e-6)

    def test_c_w_evaluation(self):
        expected = 8420.469 - 372.77 * math.log(1e6)
        c, _, _, _ = _c_k(published_coefficients(), Timescale.W, math.log(1e6))
        assert c == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3270.4611, abs=1e-3)

    def test_no_daily_rows(self):
        coeffs = published_coefficients()
        assert not coeffs.has_timescale(Timescale.D)

    def test_csv_round_trip(self):
        coeffs = published_coefficients()
        buf = io.StringIO()
        write_coefficients_csv(coeffs, buf)
        back = read_coefficients_csv(buf.getvalue())
        for key, reg in coeffs.entries.items():
            other = back.entries[key]
            assert other.beta0 == pytest.approx(reg.beta0, rel=1e-12)
            assert other.beta1 == pytest.approx(reg.beta1, rel=1e-12)
            if reg.beta2 is None:
                assert other.beta2 is None
            else:
                assert other.beta2 == pytest.approx(reg.beta2, rel=1e-12)


    @pytest.mark.parametrize("beta2", ["junk", "0", "1.5"])
    def test_beta2_of_a_burr_shape_refused(self, beta2):
        # a c or k row has no beta2; one given was read and dropped
        text = f"parameter,timescale,beta0,beta1,beta2\nmu,W,0.01,0,0\nc,W,400,0,{beta2}\n"
        with pytest.raises(ValueError, match="^coefficients line 3: "):
            read_coefficients_csv(text)


class TestEvaluation:
    def test_constant_when_size_terms_zero(self):
        coeffs = gibrat_null_coefficients(mu0=0.12, b0=0.4, c0=300.0, k0=0.2)
        for f, e in ((1.0, 1.0), (1e4, 1e7), (3e6, 12.0)):
            mu, b, _ = _mu_b(coeffs, Timescale.W, math.log(f), math.log(e))
            assert mu == pytest.approx(0.12)
            assert b == pytest.approx(0.4)
        c, k, _, _ = _c_k(coeffs, Timescale.W, math.log(5e5))
        assert (c, k) == (300.0, 0.2)

    def test_unit_inputs_reduce_to_intercepts(self):
        coeffs = published_coefficients()
        mu, b, _ = _mu_b(coeffs, Timescale.W, 0.0, 0.0)
        assert mu == pytest.approx(-0.109)
        assert b == pytest.approx(0.613)

    def test_clamping_counted(self):
        coeffs = gibrat_null_coefficients(mu0=0.1, b0=-2.0, c0=-1.0, k0=0.5)
        ln_f, ln_e = np.log([1e5, 2e5]), np.log([1e4, 3e4])
        _, b, b_low = _mu_b(coeffs, Timescale.W, ln_f, ln_e)
        c, k, c_low, k_low = _c_k(coeffs, Timescale.W, ln_f)
        assert b.tolist() == [1e-6, 1e-6] and c.tolist() == [1e-3, 1e-3] and k.tolist() == [0.5, 0.5]
        assert b_low.tolist() == c_low.tolist() == [True, True] and k_low.tolist() == [False, False]


class _HalfRng:
    """Stub generator whose uniform draw is always exactly one half."""

    def random(self):
        return 0.5


class TestSampling:
    def test_laplace_median(self):
        p = LaplaceParams(0.7, 2.0)
        assert sample_laplace(p, _HalfRng()) == pytest.approx(0.7)

    def test_burr_median(self):
        p = BurrParams(3.0, 2.0)
        assert sample_burr(p, _HalfRng()) == pytest.approx((2 ** (1 / 2) - 1) ** (1 / 3))

    def test_laplace_moments(self):
        rng = np.random.default_rng(0)
        draws = laplace_ppf(rng.uniform(1e-12, 1 - 1e-12, size=1_000_000), LaplaceParams(0.0, 1.0))
        assert abs(float(np.mean(draws))) < 0.005
        assert float(np.std(draws)) == pytest.approx(math.sqrt(2), rel=0.01)

    def test_scalar_draws_reproducible(self):
        p = LaplaceParams(0.0, 1.0)
        a = [sample_laplace(p, np.random.default_rng(9)) for _ in range(3)]
        b = [sample_laplace(p, np.random.default_rng(9)) for _ in range(3)]
        assert a == b


class TestSimulate:
    def test_determinism(self):
        coeffs = published_coefficients()
        a = simulate(coeffs, Timescale.W, 25_000, 10_000, steps=5, runs=3, seed=42)
        b = simulate(coeffs, Timescale.W, 25_000, 10_000, steps=5, runs=3, seed=42)
        assert [
            (s.followers, s.engagement) for t in a for s in t.states
        ] == [(s.followers, s.engagement) for t in b for s in t.states]
        c = simulate(coeffs, Timescale.W, 25_000, 10_000, steps=5, runs=3, seed=43)
        assert a[0].states[-1].engagement != c[0].states[-1].engagement

    def test_zero_noise_limit(self):
        coeffs = gibrat_null_coefficients(mu0=0.1, b0=-1.0, c0=1e6, k0=1.0)
        # b flooring makes engagement effectively deterministic; the Burr
        # draw with c huge and k=1 keeps the follower ratio pinned near 1
        trajs = simulate(coeffs, Timescale.W, 1e5, 1e4, steps=10, runs=1, seed=0)
        e = [s.engagement for s in trajs[0].states]
        for a, b in zip(e, e[1:]):
            assert b / a == pytest.approx(math.exp(0.1), rel=1e-4)
        assert trajs[0].clamps.b_floored == 10

    def test_telescoping(self):
        coeffs = published_coefficients()
        trajs = simulate(coeffs, Timescale.M, 50_000, 5_000, steps=20, runs=2, seed=7)
        for t in trajs:
            logs = [
                math.log(b.engagement / a.engagement)
                for a, b in zip(t.states, t.states[1:])
            ]
            assert t.states[-1].engagement == pytest.approx(
                5_000 * math.exp(sum(logs)), rel=1e-9
            )

    def test_states_positive_and_steps_increasing(self):
        coeffs = published_coefficients()
        trajs = simulate(coeffs, Timescale.Q, 25_000, 10_000, steps=15, runs=5, seed=3)
        for t in trajs:
            assert [s.step for s in t.states] == list(range(16))
            assert all(s.followers > 0 and s.engagement > 0 for s in t.states)

    def test_fixed_size_law_recovered_by_laplace_fit(self):
        mu0, b0 = 0.05, 0.4
        coeffs = gibrat_null_coefficients(mu0=mu0, b0=b0, c0=1e6, k0=1.0)
        trajs = simulate(coeffs, Timescale.W, 1e5, 1e4, steps=50, runs=200, seed=1)
        g = [
            math.log(b.engagement / a.engagement)
            for t in trajs
            for a, b in zip(t.states, t.states[1:])
        ]
        fit = fit_laplace(g)
        n = len(g)
        se_mu = b0 * math.sqrt(2.0 / n)
        se_b = b0 * math.sqrt(1.25 / n)
        assert abs(fit.mu - mu0) <= 3 * se_mu
        assert abs(fit.b - b0) <= 3 * se_b

    def test_invalid_args(self):
        coeffs = published_coefficients()
        with pytest.raises(ValueError):
            simulate(coeffs, Timescale.W, 1e4, 1e4, steps=0, runs=1, seed=0)
        with pytest.raises(ValueError):
            simulate(coeffs, Timescale.D, 1e4, 1e4, steps=1, runs=1, seed=0)

    def test_summaries(self):
        coeffs = published_coefficients()
        trajs = simulate(coeffs, Timescale.W, 25_000, 10_000, steps=8, runs=20, seed=2)
        summaries = summarize_trajectories(trajs)
        assert len(summaries) == 9
        assert summaries[0].mean_followers == pytest.approx(25_000)
        assert summaries[-1].mean_norm_engagement == pytest.approx(1.0)
        assert all(s.se_followers >= 0 for s in summaries)

    def test_size_independent_law_is_gibrat_null(self):
        # with zero size terms, growth-rate distributions are identical
        # across starting sizes: no class pair may look significant in
        # most repetitions
        from pagegrowth.stats import class_test_matrix

        coeffs = gibrat_null_coefficients(mu0=0.0, b0=0.3, c0=400.0, k0=0.25)
        reps, rejections = 10, {}
        for rep in range(reps):
            bins = {}
            for label, f0 in (("small", 25_000), ("medium", 250_000), ("large", 1_000_000)):
                trajs = simulate(
                    coeffs, Timescale.W, f0, 10_000, steps=20, runs=500, seed=100 + rep
                )
                bins[label] = [
                    math.log(b.engagement / a.engagement)
                    for t in trajs
                    for a, b in zip(t.states, t.states[1:])
                ]
            cells = class_test_matrix(bins, alternatives=("greater",))
            for cell in cells:
                if cell.result.p_value < 0.05:
                    key = (cell.row, cell.col)
                    rejections[key] = rejections.get(key, 0) + 1
        assert max(rejections.values(), default=0) < 0.9 * reps


class TestParamRegressionType:
    def test_beta2_consistency(self):
        with pytest.raises(ValueError):
            ParamRegression("c", Timescale.W, 1.0, 1.0, 0.5, (0.1, 0.1))
        with pytest.raises(ValueError):
            ParamRegression("mu", Timescale.W, 1.0, 1.0, None, (0.1, 0.1))

    @pytest.mark.parametrize("betas", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)])
    def test_non_finite_beta_refused(self, betas):
        with pytest.raises(ValueError, match="is not finite"):
            ParamRegression("b", Timescale.W, *betas, ())
