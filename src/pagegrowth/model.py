"""Size-dependent distribution parameters and forward growth simulation.

The engagement growth rate is Laplace-distributed with location and
scale that are linear in ln(followers) and ln(engagement); the follower
gross growth rate is Burr-distributed with shapes linear in
ln(followers). ``regress_parameters`` estimates those linear maps from
per-bin distribution fits by ordinary least squares; ``simulate`` steps the
two multiplicative processes forward for all runs at once, from a pair of
starting values, into one table of runs (``Trajectories``), one independent
substream per run. Those substreams depend only on the seed, so every
(timescale, f0) pair simulated with one (seed, steps, runs) reads the same
uniforms, drawn once: run i of each pair uses the same draws (common random numbers).

A built-in coefficient set (``published_coefficients()``) covers the weekly,
monthly and quarterly timescales so simulations are runnable without any
data. Daily coefficients are deliberately not provided.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import BinaryIO

import numpy as np

from . import rules
from .aggregate import Timescale
from .ingest import NumericalError, _csv_rows, _Factory, _Record, _Table, _write_rows, _write_table
from .stats import BurrParams, LaplaceParams, _burr_ppf, _laplace_ppf, burr_ppf, laplace_ppf

PARAMETERS = ("mu", "b", "c", "k")
SIM_TIMESCALES = (Timescale.W, Timescale.M, Timescale.Q)

B_FLOOR = 1e-6
CK_FLOOR = 1e-3


class CollinearCovariatesError(ValueError, NumericalError):
    pass


def check_timescales(scales, command: str) -> None:
    """Refuse, naming them, the timescales outside SIM_TIMESCALES."""
    unsupported = [s.value for s in scales if s not in SIM_TIMESCALES]
    if unsupported:
        raise ValueError(f"{command} supports W, M, Q timescales, not {', '.join(unsupported)}")


class ParamRegression(_Record, frozen=True):
    """Linear map for one distribution parameter at one timescale.

    beta2 (the ln-engagement term) exists only for the Laplace
    parameters mu and b; the Burr shapes c and k depend on followers
    alone. r_squared and std_errors are None for published coefficient
    sets, where only point estimates and p-values are reported.
    """

    parameter: str
    timescale: Timescale
    beta0: float
    beta1: float
    beta2: float | None
    p_values: tuple[float, ...]
    r_squared: float | None = None
    std_errors: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {self.parameter!r}")
        two_cov = self.parameter in ("mu", "b")
        if two_cov != (self.beta2 is not None):
            raise ValueError(f"beta2 must be present iff parameter is mu or b")
        for name in ("beta0", "beta1", "beta2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.parameter}/{self.timescale.value} {name} is not finite: {value!r}")

    def evaluate(self, ln_followers: float, ln_engagement: float | None = None) -> float:
        value = self.beta0 + self.beta1 * ln_followers
        if self.beta2 is not None:
            if ln_engagement is None:
                raise ValueError(f"parameter {self.parameter} needs ln_engagement")
            value += self.beta2 * ln_engagement
        return value


class ModelCoefficients(_Record):
    """Complete (parameter, timescale) -> ParamRegression table."""

    entries: dict[tuple[str, str], ParamRegression] = _Factory(dict)

    def add(self, reg: ParamRegression) -> None:
        self.entries[(reg.parameter, reg.timescale.value)] = reg

    def get(self, parameter: str, timescale: Timescale) -> ParamRegression:
        try:
            return self.entries[(parameter, timescale.value)]
        except KeyError:
            raise KeyError(f"no coefficients for {parameter} at {timescale.value}")

    def has_timescale(self, timescale: Timescale) -> bool:
        return all((p, timescale.value) in self.entries for p in PARAMETERS)

    def validate_complete(self) -> None:
        missing = [
            (p, s.value)
            for s in SIM_TIMESCALES
            for p in PARAMETERS
            if (p, s.value) not in self.entries
        ]
        if missing:
            raise ValueError(f"coefficient table incomplete, missing {missing}")


def published_coefficients() -> ModelCoefficients:
    """The built-in weekly/monthly/quarterly coefficient set.

    p-values reported only as "below 0.001" are stored as 0.001.
    """
    W, M, Q = Timescale.W, Timescale.M, Timescale.Q
    rows = [
        ParamRegression("mu", W, -0.109, 0.054, -0.062, (0.063, 0.001, 0.001)),
        ParamRegression("mu", M, 0.073, 0.037, -0.051, (0.248, 0.001, 0.001)),
        ParamRegression("mu", Q, 0.384, 0.031, -0.065, (0.001, 0.001, 0.001)),
        ParamRegression("b", W, 0.613, 0.027, -0.054, (0.001, 0.001, 0.001)),
        ParamRegression("b", M, 0.593, 0.041, -0.066, (0.001, 0.001, 0.001)),
        ParamRegression("b", Q, 0.844, 0.056, -0.094, (0.001, 0.001, 0.001)),
        ParamRegression("c", W, 8420.469, -372.77, None, (0.001, 0.025)),
        ParamRegression("c", M, 2550.01, -127.559, None, (0.001, 0.014)),
        ParamRegression("c", Q, 1053.905, -56.113, None, (0.002, 0.017)),
        ParamRegression("k", W, -0.778, 0.083, None, (0.001, 0.001)),
        ParamRegression("k", M, -0.751, 0.078, None, (0.001, 0.001)),
        ParamRegression("k", Q, -0.714, 0.073, None, (0.001, 0.001)),
    ]
    coeffs = ModelCoefficients()
    for row in rows:
        coeffs.add(row)
    coeffs.validate_complete()
    return coeffs


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    Equals I_x(df/2, 1/2) with x = df/(df+t^2), the regularized incomplete
    beta function, from its continued fraction (modified Lentz) on the side
    where it converges, 1 - x being passed as t^2/(df+t^2) so that nothing
    cancels. Within 1e-10 relative of ``2*scipy.special.stdtr(df, -|t|)``
    (so of ``2*scipy.stats.t.sf(|t|, df)``) for df 1..1000, |t| 1e-6..1e3.
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if t2 == math.inf:
        return 0.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    ln_x = math.log1p(-y) if y < 0.5 else math.log(x)
    ln_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * ln_x + b * ln_y + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # continued fraction of I_x(a, b) / (x^a (1-x)^b / (a B(a, b))), by modified Lentz
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def regress_parameters(binned_fits, parameter: str, timescale: Timescale) -> ParamRegression:
    """OLS regression of one distribution parameter on log-size covariates.

    ``binned_fits`` is a list of (mean ln followers, mean ln engagement,
    params) tuples, one per bin, where params is LaplaceParams for
    mu/b and BurrParams for c/k. Two covariates (intercept, ln F, ln E)
    are used for mu and b; c and k regress on ln F alone. p-values come
    from two-sided t statistics on the coefficient standard errors.
    """
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    two_cov = parameter in ("mu", "b")
    y = np.array([getattr(params, parameter) for _, _, params in binned_fits], dtype=float)
    ln_f = np.array([f for f, _, _ in binned_fits], dtype=float)
    n = y.size
    min_bins = 3 if two_cov else 2
    if n < min_bins:
        raise ValueError(
            f"regress_parameters needs at least {min_bins} bins for {parameter}, got {n}"
        )
    if two_cov:
        ln_e = np.array([e for _, e, _ in binned_fits], dtype=float)
        X = np.column_stack([np.ones(n), ln_f, ln_e])
    else:
        X = np.column_stack([np.ones(n), ln_f])
    n_params = X.shape[1]
    if np.linalg.matrix_rank(X) < n_params:
        raise CollinearCovariatesError("collinear covariates")

    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    df = n - n_params
    if df > 0 and rss > 0:
        s2 = rss / df
        cov = s2 * np.linalg.inv(X.T @ X)
        se = np.sqrt(np.diag(cov))
        t_stats = beta / se
        p_values = tuple(_t_two_sided_p(float(t), df) for t in t_stats)
        std_errors = tuple(float(v) for v in se)
    else:
        # exact interpolation: zero residuals pin the coefficients
        p_values = tuple(0.0 for _ in range(n_params))
        std_errors = tuple(0.0 for _ in range(n_params))
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0

    return ParamRegression(
        parameter=parameter,
        timescale=timescale,
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        beta2=float(beta[2]) if two_cov else None,
        p_values=p_values,
        r_squared=float(min(max(r_squared, 0.0), 1.0)),
        std_errors=std_errors,
    )


class ClampCounter(_Record):
    """Audit trail for parameter evaluations pushed back into range."""

    b_floored: int = 0
    c_floored: int = 0
    k_floored: int = 0

    @property
    def total(self) -> int:
        return self.b_floored + self.c_floored + self.k_floored


def _mu_b(coeffs: ModelCoefficients, timescale: Timescale, ln_f, ln_e):
    # mu, b (floored) and the mask of floored b, from log sizes as floats or arrays
    mu = coeffs.get("mu", timescale).evaluate(ln_f, ln_e)
    b = coeffs.get("b", timescale).evaluate(ln_f, ln_e)
    return mu, np.maximum(b, B_FLOOR), b < B_FLOOR


def _c_k(coeffs: ModelCoefficients, timescale: Timescale, ln_f):
    # c, k (floored) and their floored masks, from ln followers as floats or arrays
    c = coeffs.get("c", timescale).evaluate(ln_f)
    k = coeffs.get("k", timescale).evaluate(ln_f)
    return np.maximum(c, CK_FLOOR), np.maximum(k, CK_FLOOR), c < CK_FLOOR, k < CK_FLOOR


def _uniform_open(rng: np.random.Generator) -> float:
    # uniform on (0,1): keep inverse-CDF transforms finite
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def _open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n values that n successive _uniform_open(rng) calls return."""
    u = rng.random(n)
    while not u.all():
        u = u[u != 0.0]
        u = np.concatenate([u, rng.random(n - u.size)])
    return u


@functools.lru_cache(maxsize=1)
def _uniform_block(seed: int, steps: int, runs: int) -> np.ndarray:
    """``simulate``'s (2*steps, runs) uniforms, read-only since calls share them: column i
    is run i's stream from ``SeedSequence((seed, i))``, row 2s-2 step s's Laplace
    uniform and row 2s-1 its Burr uniform."""
    u = np.empty((2 * steps, runs))
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        u[:, run] = _open_uniforms(rng, 2 * steps)
    u.flags.writeable = False
    return u


def _map(fn, a: np.ndarray) -> np.ndarray:
    # fn per element: numpy's SIMD exp can differ from math.exp in the last bit
    return np.fromiter(map(fn, a.tolist()), float, a.size)


def _step(coeffs: ModelCoefficients, timescale: Timescale, f, e, u_laplace, u_burr):
    """The growth law's step for a vector of states (F, E), as ``simulate``
    describes it, at one Laplace and one Burr uniform per state: the next F
    and E, and the b, c and k floored masks. ``synth.generate`` shares it."""
    ln_f = _map(math.log, f)
    mu, b, b_low = _mu_b(coeffs, timescale, ln_f, _map(math.log, e))
    c, k, c_low, k_low = _c_k(coeffs, timescale, ln_f)
    with np.errstate(over="ignore", invalid="ignore"):  # both callers refuse an inf or NaN state
        e = e * _map(math.exp, _laplace_ppf(u_laplace, mu, b))
        f = f * _burr_ppf(u_burr, c, k)
    return f, e, (b_low, c_low, k_low)


def sample_laplace(p: LaplaceParams, rng: np.random.Generator) -> float:
    """Inverse-CDF draw: mu - b*sgn(u-1/2)*ln(1-2|u-1/2|)."""
    return float(laplace_ppf(_uniform_open(rng), p))


def sample_burr(p: BurrParams, rng: np.random.Generator) -> float:
    """Inverse-CDF draw: ((1-u)^(-1/k) - 1)^(1/c)."""
    return float(burr_ppf(_uniform_open(rng), p))


class SimState(_Record, frozen=True):
    followers: float
    engagement: float
    step: int
    timescale: Timescale

    def __post_init__(self):
        if not (self.followers > 0 and self.engagement > 0):
            raise ValueError("simulation state must stay positive")


class Trajectory(_Record):
    """One run: followers[s] and engagement[s] are the state after s steps."""

    followers: np.ndarray
    engagement: np.ndarray
    timescale: Timescale
    seed: int
    run_index: int
    clamps: ClampCounter

    __eq__, __hash__ = object.__eq__, object.__hash__  # runs compare by identity

    @property
    def states(self) -> list[SimState]:
        """The states as objects, built on each access."""
        pairs = enumerate(zip(self.followers.tolist(), self.engagement.tolist()))
        return [SimState(f, e, step, self.timescale) for step, (f, e) in pairs]


class Trajectories(_Table):
    """Runs of one (timescale, f0) pair, a row per run: ``run`` its index, ``followers[i, s]`` and ``engagement[i, s]``
    its state after s steps, ``floored[i]`` its b, c and k floor events. An int index builds a ``Trajectory``."""

    timescale: Timescale
    seed: int
    run: np.ndarray
    followers: np.ndarray
    engagement: np.ndarray
    floored: np.ndarray

    def _row(self, i: int) -> Trajectory:
        return Trajectory(self.followers[i], self.engagement[i], self.timescale, self.seed, int(self.run[i]),
                          ClampCounter(*self.floored[i].tolist()))


def simulate(coeffs: ModelCoefficients, timescale: Timescale, f0: float, e0: float, steps: int, runs: int,
             seed: int) -> Trajectories:
    """Iterate the two multiplicative processes forward, all runs at once, into one table of runs.

    Per step, from the current state (F, E): the engagement log-rate g is
    drawn from Laplace(mu(F,E), b(F,E)) and E <- E*exp(g); the follower
    gross rate r is drawn from Burr(c(F), k(F)) and F <- F*r (``_step``).
    Both parameter evaluations use the pre-update state. Run i consumes the
    substream seeded by (seed, i), the Laplace then the Burr uniform of
    each step in turn, so results are reproducible and runs are
    order-independent. The uniforms depend on (seed, steps, runs) alone, so
    run i of every (timescale, f0) pair called with them uses the same draws
    (common random numbers); the block for the last (seed, steps, runs) is
    kept, read-only, and not drawn again.
    """
    if steps < 1 or runs < 1:
        raise ValueError("steps and runs must both be at least 1")
    check_timescales([timescale], "simulate")
    if not coeffs.has_timescale(timescale):
        raise KeyError(f"coefficient table lacks timescale {timescale.value}")
    if not all(math.isfinite(v) and v > 0 for v in (f0, e0)):
        raise ValueError("starting followers and engagement must be finite and positive")
    # keyed on ints: a float seed (which SeedSequence refuses) must not hit an int's entry
    u = _uniform_block(operator.index(seed), operator.index(steps), operator.index(runs))
    followers, engagement = np.empty((runs, steps + 1)), np.empty((runs, steps + 1))
    f, e = np.full(runs, float(f0)), np.full(runs, float(e0))
    followers[:, 0], engagement[:, 0] = f, e
    floored = np.zeros((runs, 3), dtype=np.int64)  # b, c, k floor events per run
    for step in range(1, steps + 1):
        f, e, low = _step(coeffs, timescale, f, e, u[2 * step - 2], u[2 * step - 1])
        floored += np.column_stack(low)
        if not ((0 < f) & (f < math.inf) & (0 < e) & (e < math.inf)).all():  # NaN fails too
            raise ValueError("simulation state must stay finite and positive")
        followers[:, step], engagement[:, step] = f, e
    return Trajectories(timescale, seed, np.arange(runs), followers, engagement, floored)


class StepSummary(_Record):
    step: int
    mean_followers: float
    se_followers: float
    mean_engagement: float
    se_engagement: float
    mean_norm_followers: float
    se_norm_followers: float
    mean_norm_engagement: float
    se_norm_engagement: float


def summarize_trajectories(trajectories: Trajectories) -> list[StepSummary]:
    """Per-step cross-run means and standard errors.

    Alongside raw levels, each run is also normalized to its own final
    value, giving the shape of the growth curve independent of the level it
    reaches. The matrices are read C-contiguous: numpy's axis-0 sums follow the memory layout.
    """
    if not len(trajectories):
        raise ValueError("no trajectories to summarize")
    f, e = (np.ascontiguousarray(a) for a in (trajectories.followers, trajectories.engagement))
    runs, steps = f.shape

    def _se(a):
        return a.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(steps)

    columns = [(a, _se(a)) for a in (f, e, f / f[:, -1:], e / e[:, -1:])]
    return [
        StepSummary(i, *(float(v) for a, se in columns for v in (a[:, i].mean(), se[i])))
        for i in range(steps)
    ]


COEFFS_HEADER = ["parameter", "timescale", "beta0", "beta1", "beta2"]


def write_coefficients_csv(coeffs: ModelCoefficients, stream) -> None:
    """Coefficients file: beta2 stays empty for the Burr shapes."""
    rows = []
    for scale in SIM_TIMESCALES:
        for parameter in PARAMETERS:
            reg = coeffs.entries.get((parameter, scale.value))
            if reg is not None:
                rows.append([parameter, scale.value, format(reg.beta0, ".12g"), format(reg.beta1, ".12g"),
                             "" if reg.beta2 is None else format(reg.beta2, ".12g")])
    _write_table(stream, COEFFS_HEADER, rows)


def read_coefficients_csv(stream: BinaryIO | bytes | str) -> ModelCoefficients:
    """A coefficients file as ``write_coefficients_csv`` writes it; each (parameter, timescale) once."""
    coeffs = ModelCoefficients()
    lines: dict[tuple[str, Timescale], int] = {}  # (parameter, timescale) -> line first giving it
    for line, row in _csv_rows(stream, COEFFS_HEADER, "coefficients"):
        try:
            if len(row) != len(COEFFS_HEADER):
                raise ValueError(f"expected {len(COEFFS_HEADER)} fields, got {len(row)}")
            parameter, scale, b0, b1, b2 = row
            beta2 = None if b2 == "" else rules.number(b2, "beta2")  # refused for c and k
            reg = ParamRegression(parameter, Timescale.parse(scale), rules.number(b0, "beta0"),
                                  rules.number(b1, "beta1"), beta2, ())
        except ValueError as exc:
            raise ValueError(f"coefficients line {line}: {exc}") from exc
        first = lines.setdefault((reg.parameter, reg.timescale), line)
        if first != line:
            raise ValueError(f"coefficients line {line}: {reg.parameter}/{reg.timescale.value} "
                             f"already given on line {first}")
        coeffs.add(reg)
    return coeffs


TRAJECTORY_HEADER = ["run", "step", "followers", "engagement"]


def write_trajectories_csv(trajectories: Trajectories, stream) -> None:
    runs, n = trajectories.followers.shape  # a row per (run, step)
    columns = (np.repeat(trajectories.run, n), np.tile(np.arange(n), runs), trajectories.followers.ravel(),
               trajectories.engagement.ravel())
    _write_rows(stream, TRAJECTORY_HEADER, runs * n, "%s,%s,%.12g,%.12g\n",
                lambda part: [c[part].tolist() for c in columns])


SUMMARY_HEADER = list(StepSummary._fields)


def write_summary_csv(summaries: list[StepSummary], stream) -> None:
    _write_rows(stream, SUMMARY_HEADER, len(summaries), "%s" + ",%.12g" * (len(SUMMARY_HEADER) - 1) + "\n",
                lambda part: [[getattr(s, name) for s in summaries[part]] for name in SUMMARY_HEADER])
