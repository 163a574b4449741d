"""The batched ``simulate`` kernel against a one-run, one-step oracle.

``simulate`` steps every run at once on arrays. The oracle here is the
scalar loop: one generator per run, one ``_uniform_open``-style draw per
variate (Laplace first, then Burr), ``math.log`` of the state, the
inverse CDFs written out on numpy scalars and ``math.exp`` for the
engagement update. Both must agree exactly on every state and on every
run's clamp counts, or raise the same exception.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pagegrowth import model
from pagegrowth.aggregate import Timescale
from pagegrowth.cli import main
from pagegrowth.model import (
    B_FLOOR,
    CK_FLOOR,
    SIM_TIMESCALES,
    ClampCounter,
    ModelCoefficients,
    ParamRegression,
    _open_uniforms,
    _uniform_block,
    _uniform_open,
    published_coefficients,
    simulate,
)


def _oracle_uniform(rng):
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def _oracle(coeffs, scale, f0, e0, steps, runs, seed):
    """Per run: (list of (followers, engagement) states, ClampCounter)."""
    beta = {p: coeffs.entries[(p, scale.value)] for p in ("mu", "b", "c", "k")}
    out = []
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        clamps = ClampCounter()
        f, e = float(f0), float(e0)
        states = [(f, e)]
        for _ in range(steps):
            ln_f, ln_e = math.log(f), math.log(e)
            mu = beta["mu"].beta0 + beta["mu"].beta1 * ln_f + beta["mu"].beta2 * ln_e
            b = beta["b"].beta0 + beta["b"].beta1 * ln_f + beta["b"].beta2 * ln_e
            c = beta["c"].beta0 + beta["c"].beta1 * ln_f
            k = beta["k"].beta0 + beta["k"].beta1 * ln_f
            if b < B_FLOOR:
                b, clamps.b_floored = B_FLOOR, clamps.b_floored + 1
            if c < CK_FLOOR:
                c, clamps.c_floored = CK_FLOOR, clamps.c_floored + 1
            if k < CK_FLOOR:
                k, clamps.k_floored = CK_FLOOR, clamps.k_floored + 1
            d = np.float64(_oracle_uniform(rng)) - 0.5
            g = float(mu - b * np.sign(d) * np.log1p(-2.0 * np.abs(d)))
            w = -np.log1p(-np.float64(_oracle_uniform(rng))) / k
            r = float(np.exp((w + np.log(-np.expm1(-w))) / c))
            e = e * math.exp(g)
            f = f * r
            if not (0 < f < math.inf and 0 < e < math.inf):
                raise ValueError("simulation state must stay finite and positive")
            states.append((f, e))
        out.append((states, clamps))
    return out


def _outcome(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's numpy scalars overflow before its state check
        try:
            return fn(*args), None
        except (ValueError, ArithmeticError) as exc:
            return None, type(exc)


def _assert_same(coeffs, scale, f0, e0, steps, runs, seed):
    args = (coeffs, scale, f0, e0, steps, runs, seed)
    got, got_exc = _outcome(simulate, *args)
    want, want_exc = _outcome(_oracle, *args)
    assert got_exc is want_exc
    if want is None:
        return None
    assert len(got) == runs
    for run, (t, (states, clamps)) in enumerate(zip(got, want)):
        assert (t.run_index, t.seed) == (run, seed)
        assert list(zip(t.followers.tolist(), t.engagement.tolist())) == states
        assert t.clamps == clamps
    return got


def _reg(parameter, scale, beta0, beta1, beta2=None):
    return ParamRegression(parameter, scale, beta0, beta1, beta2, ())


@st.composite
def tables(draw):
    """A random coefficient table; each floor triggers in some examples."""
    scale = draw(st.sampled_from(SIM_TIMESCALES))

    def beta(lo, hi):
        return draw(st.floats(lo, hi))

    coeffs = ModelCoefficients()
    coeffs.add(_reg("mu", scale, beta(-1.0, 1.0), beta(-0.1, 0.1), beta(-0.1, 0.1)))
    coeffs.add(_reg("b", scale, beta(-0.6, 1.0), beta(-0.05, 0.05), beta(-0.05, 0.05)))
    if draw(st.integers(0, 3)) == 0:  # floored c makes most runs leave (0, inf)
        coeffs.add(_reg("c", scale, beta(-50.0, 0.0), beta(-1.0, 1.0)))
    else:
        coeffs.add(_reg("c", scale, beta(5.0, 9000.0), beta(-300.0, 10.0)))
    coeffs.add(_reg("k", scale, beta(-0.6, 1.0), beta(-0.05, 0.1)))
    return scale, coeffs


@given(
    tables(),
    st.floats(1e3, 1e7),
    st.floats(10.0, 1e6),
    st.integers(1, 15),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_scalar_oracle(table, f0, e0, steps, runs, seed):
    scale, coeffs = table
    got = _assert_same(coeffs, scale, f0, e0, steps, runs, seed)
    for name in ("b_floored", "c_floored", "k_floored"):
        if got and any(getattr(t.clamps, name) for t in got):
            event(name)


@pytest.mark.parametrize("scale", SIM_TIMESCALES)
def test_published_table_matches_oracle(scale):
    _assert_same(published_coefficients(), scale, 25_000, 10_000, 12, 40, 5)


@pytest.mark.parametrize(
    "parameter, floored",
    [("b", (-1.0, 0.0, 0.0)), ("c", (-1.0, 0.0)), ("k", (-1.0, 0.0))],
)
def test_each_floor_is_counted(parameter, floored):
    # one parameter pinned below its floor, the rest moderate; a floored c
    # raises the Burr draw to the power 1000, which underflows to 0 for
    # many draws, so single-run calls over several seeds are compared and
    # at least one must finish
    scale = Timescale.M
    base = {"mu": (0.0, 0.0, 0.0), "b": (0.3, 0.0, 0.0), "c": (400.0, 0.0), "k": (1.0, 0.0)}
    base[parameter] = floored
    coeffs = ModelCoefficients()
    for p, betas in base.items():
        coeffs.add(_reg(p, scale, *betas))
    finished = [_assert_same(coeffs, scale, 5e4, 5e3, 1, 1, seed) for seed in range(12)]
    finished = [t for got in finished if got for t in got]
    assert finished
    for t in finished:
        assert getattr(t.clamps, f"{parameter}_floored") == 1 and t.clamps.total == 1


class _ListRng:
    """Stub generator replaying a fixed list, by scalar or by block."""

    def __init__(self, values):
        self.values, self.pos = list(values), 0

    def random(self, size=None):
        if size is None:
            self.pos += 1
            return self.values[self.pos - 1]
        self.pos += size
        return np.array(self.values[self.pos - size : self.pos])


@given(st.integers(1, 12), st.lists(st.booleans(), min_size=40, max_size=40))
def test_block_uniforms_match_scalar_redraws(n, zeros):
    values = [0.0 if z else (i + 1) / 64 for i, z in enumerate(zeros)] + [0.5] * n
    block_rng, scalar_rng = _ListRng(values), _ListRng(values)
    block = _open_uniforms(block_rng, n)
    scalar = [_uniform_open(scalar_rng) for _ in range(n)]
    assert block.tolist() == scalar
    assert block_rng.pos == scalar_rng.pos  # the stream resumes at the same draw


@pytest.mark.parametrize(
    "f0, e0", [(math.inf, 1e4), (math.nan, 1e4), (0.0, 1e4), (-5.0, 1e4), (1e4, math.inf), (1e4, 0.0)]
)
def test_bad_start_rejected_before_drawing(f0, e0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and positive"):
            simulate(published_coefficients(), Timescale.W, f0, e0, steps=2, runs=2, seed=0)


def test_command_draws_the_block_once(tmp_path, monkeypatch):
    # the default 3x3 grid of (timescale, f0) pairs shares one (seed, steps, runs)
    calls = []

    def counted(rng, n):
        calls.append(n)
        return _open_uniforms(rng, n)

    monkeypatch.setattr(model, "_open_uniforms", counted)
    _uniform_block.cache_clear()
    assert main(["simulate", "--runs", "20", "--steps", "5", "--out", str(tmp_path / "out")]) == 0
    assert calls == [10] * 20  # one stream per run, not one per run and pair


def test_block_is_read_only():
    u = _uniform_block(7, 3, 4)
    assert u.shape == (6, 4) and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.5


@given(tables(), tables(), st.integers(1, 8), st.integers(1, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_tables_sharing_a_block_each_match_the_oracle(first, second, steps, runs, seed):
    # the second call reads the first call's cached block
    _uniform_block.cache_clear()
    for scale, coeffs in (first, second):
        _assert_same(coeffs, scale, 25_000, 10_000, steps, runs, seed)
    assert _uniform_block.cache_info()[:2] == (1, 1)  # hits, misses


def test_seed_must_be_an_integer_after_a_cached_int():
    coeffs = published_coefficients()
    _uniform_block.cache_clear()
    simulate(coeffs, Timescale.W, 25_000, 10_000, steps=2, runs=2, seed=3)
    with pytest.raises(TypeError):
        simulate(coeffs, Timescale.W, 25_000, 10_000, steps=2, runs=2, seed=3.0)
    with pytest.raises(ValueError):  # SeedSequence refuses it before the block is kept
        simulate(coeffs, Timescale.W, 25_000, 10_000, steps=2, runs=2, seed=-1)
    simulate(coeffs, Timescale.W, 25_000, 10_000, steps=2, runs=2, seed=3)
    assert _uniform_block.cache_info()[:2] == (1, 2)  # only seed 3's block was kept, and read again
