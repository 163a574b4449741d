"""Distribution calibration, rank tests, and time-reversal symmetry checks.

Laplace parameters come analytically from the sample mean and standard
deviation; Burr shape parameters come from least-squares fitting of the
empirical CDF (plotting position i/(n+1)) with a derivative-free simplex
search in (ln c, ln k) space, each objective evaluated in place in two
buffers per fit, with numpy's vectorised ``exp``/``log1p`` for ln(1+x^c)
and a single-threaded pairwise sum. Both fits refuse NaN and ±inf. The
Mann-Whitney implementation computes the exact null distribution by
enumeration for small tie-free samples (n1*n2 <= EXACT_MAX_PRODUCT) and
otherwise uses the tie-corrected normal approximation with a 0.5
continuity correction. One kernel on sorted samples gives U
(``searchsorted`` counts) and the tie term (a merge of the two samples)
to the two-sample test, the class matrices (each class sorted once, each
pair computed once) and the symmetry test (the mirror of a sorted sample
is its negated reverse). NaN is refused, as an empty sample is.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ingest import NumericalError, _Record

EXACT_MAX_PRODUCT = 400

BURR_FIT_MIN_SAMPLES = 50
BURR_FIT_MAX_ITER = 500
BURR_FIT_FATOL = 1e-10


class DegenerateSampleError(ValueError, NumericalError):
    """Sample too small or without spread for the requested calibration."""


class FitConvergenceError(RuntimeError, NumericalError):
    """Optimizer ran out of iterations; carries the last iterate."""

    def __init__(self, message, last_params=None, objective=None):
        super().__init__(message)
        self.last_params = last_params
        self.objective = objective


class LaplaceParams(_Record, frozen=True):
    """Location/scale of the double-exponential density."""

    mu: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("Laplace scale b must be positive")


class BurrParams(_Record, frozen=True):
    """Shape parameters of the Burr XII density ck x^(c-1) / (1+x^c)^(k+1)."""

    c: float
    k: float

    def __post_init__(self):
        if not (self.c > 0 and self.k > 0):
            raise ValueError("Burr shapes c and k must be positive")

    def median(self) -> float:
        return (2.0 ** (1.0 / self.k) - 1.0) ** (1.0 / self.c)


class TestResult(_Record, frozen=True):
    u_statistic: float
    p_value: float
    alternative: str  # "greater" | "two-sided"
    n1: int
    n2: int
    method: str  # "exact" | "normal-approx"


def _check_finite(arr: np.ndarray, who: str) -> None:
    """Refuse a sample holding NaN or ±inf, naming the first such value."""
    finite = np.isfinite(arr)
    if not finite.all():
        value = float(arr[~finite][0])
        raise DegenerateSampleError(f"{who}: non-finite value {value} in sample")


def fit_laplace(samples) -> LaplaceParams:
    """Analytic calibration: mu is the mean, b the sample sd (ddof=1) over sqrt(2).

    A sample holding NaN or ±inf raises DegenerateSampleError.
    """
    arr = np.asarray(samples, dtype=float)
    _check_finite(arr, "fit_laplace")
    if arr.size < 2:
        raise DegenerateSampleError("degenerate sample: need at least 2 values")
    sd = float(np.std(arr, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("degenerate sample: zero variance")
    return LaplaceParams(mu=float(np.mean(arr)), b=sd / math.sqrt(2.0))


def laplace_pdf(x, p: LaplaceParams):
    """Density (1/(2b)) exp(-|x-mu|/b); vectorizes over x."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-np.abs(x - p.mu) / p.b) / (2.0 * p.b)
    return float(out) if out.ndim == 0 else out


def _laplace_ppf(u, mu, b):
    # laplace_ppf with u, mu and b each a float or an array
    d = u - 0.5
    return mu - b * np.sign(d) * np.log1p(-2.0 * np.abs(d))


def laplace_ppf(u, p: LaplaceParams):
    """Inverse CDF: mu - b*sgn(u-1/2)*ln(1-2|u-1/2|), u in (0,1)."""
    out = _laplace_ppf(np.asarray(u, dtype=float), p.mu, p.b)
    return float(out) if out.ndim == 0 else out


def burr_cdf(x, p: BurrParams):
    """CDF 1 - (1+x^c)^(-k) for x > 0, computed in log space for stability."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("burr_cdf domain error: x must be positive")
    out = _burr_cdf_from_logx(np.log(x), p.c, p.k)
    return float(out) if out.ndim == 0 else out


def burr_pdf(x, p: BurrParams):
    """Density ck x^(c-1) / (1+x^c)^(k+1), in log space for stability."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("burr_pdf domain error: x must be positive")
    lnx = np.log(x)
    log_pdf = (
        math.log(p.c) + math.log(p.k)
        + (p.c - 1.0) * lnx
        - (p.k + 1.0) * _log1p_xc(lnx, p.c, np.empty_like(lnx), np.empty_like(lnx))
    )
    out = np.exp(log_pdf)
    return float(out) if out.ndim == 0 else out


def _burr_ppf(u, c, k):
    # burr_ppf with u, c and k each a float or an array, u already in (0,1)
    w = -np.log1p(-u) / k  # positive
    return np.exp((w + np.log(-np.expm1(-w))) / c)


def burr_ppf(u, p: BurrParams):
    """Inverse CDF ((1-u)^(-1/k) - 1)^(1/c) for u in (0,1).

    Evaluated as exp(log(expm1(w))/c) with w = -log1p(-u)/k, and
    log(expm1(w)) rewritten as w + log(-expm1(-w)) so that extreme
    shapes cannot overflow intermediates.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("burr_ppf domain error: u must lie in (0,1)")
    out = _burr_ppf(u, p.c, p.k)
    return float(out) if out.ndim == 0 else out


def _log1p_xc(lnx: np.ndarray, c: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """ln(1 + x^c) from ln x, into ``out`` (returned); ``scratch`` is overwritten.

    With y = c ln x this is max(y, 0) + log1p(exp(-|y|)), the form of
    ``np.logaddexp(0, y)``, but through numpy's vectorised ``exp`` and
    ``log1p`` instead of its scalar loop: within a few ulp of it, and equal
    at y = ±0, ±inf and NaN. ``out`` and ``scratch`` have the shape of
    ``lnx``; nothing is allocated.
    """
    np.multiply(lnx, c, out=out)
    np.copysign(out, -1.0, out=scratch)  # -|y|
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    np.maximum(out, 0.0, out=out)
    return np.add(out, scratch, out=out)


def _burr_cdf_from_logx(lnx: np.ndarray, c: float, k: float) -> np.ndarray:
    out = _log1p_xc(lnx, c, np.empty_like(lnx), np.empty_like(lnx))
    np.multiply(out, -k, out=out)
    np.expm1(out, out=out)
    return np.negative(out, out=out)


def fit_burr(samples) -> BurrParams:
    """Least-squares fit of the Burr CDF to the empirical CDF.

    The objective is the sum of squared deviations between the empirical
    CDF at the sorted sample points (plotting position i/(n+1)) and the
    Burr CDF. The search runs in (ln c, ln k) space with Nelder-Mead
    simplex iterations from a moment-informed start: for each candidate c
    on a log grid, k is set through the identity ln(1+x^c) ~ Exp(k), and
    the best grid point seeds the simplex.

    Every evaluation overwrites two buffers of the sample's size, allocated
    once per fit, with the steps of ``_burr_cdf_from_logx``, in the same
    order, so no call allocates and each value is bit for bit that of a
    fresh evaluation. ln(1+x^c) comes from ``_log1p_xc``, numpy's
    vectorised ``exp`` and ``log1p``, within a few ulp of ``np.logaddexp``;
    the shapes fitted through ``np.logaddexp`` agree with these within
    1e-6 relative (a test keeps that fit as a tolerance oracle). The
    squared residuals are summed by ``np.add.reduce``, pairwise in a fixed
    order on one thread, not by a BLAS dot product, whose order and stalls
    depend on its thread count.

    The last digits still depend on the SIMD level numpy dispatches
    ``exp``, ``log1p`` and ``expm1`` to. Where c runs into the thousands
    the objective is nearly flat along a valley of (c, k): there c and k
    alone can move by 1e-3 between levels while the fitted CDF moves by
    less than 1e-6.

    A grid point's ln(1+x^c) serves both its k and its objective when c
    survives the round trip through ln c that ``objective`` makes. A
    sample holding NaN or ±inf raises DegenerateSampleError.
    """
    arr = np.asarray(samples, dtype=float)
    _check_finite(arr, "fit_burr")
    if np.any(arr <= 0):
        raise ValueError("fit_burr domain error: samples must be positive")
    if arr.size < BURR_FIT_MIN_SAMPLES:
        raise DegenerateSampleError(
            f"fit_burr needs at least {BURR_FIT_MIN_SAMPLES} samples, got {arr.size}"
        )
    arr = np.sort(arr)
    if arr[0] == arr[-1]:
        raise DegenerateSampleError("degenerate sample: empirical CDF has no spread")
    n = arr.size
    ecdf = np.arange(1, n + 1) / (n + 1.0)
    lnx = np.log(arr)
    buf, scratch = np.empty_like(lnx), np.empty_like(lnx)

    def sq_resid(k: float) -> float:  # from buf = ln(1 + x^c)
        np.multiply(buf, -k, out=buf)
        np.expm1(buf, out=buf)
        # buf + ecdf is the residual negated exactly, so its square is the same
        np.add(buf, ecdf, out=buf)
        np.square(buf, out=buf)
        return float(np.add.reduce(buf))  # pairwise, in a fixed order, on one thread

    def objective(theta):
        _log1p_xc(lnx, math.exp(theta[0]), buf, scratch)
        return sq_resid(math.exp(theta[1]))

    best_theta, best_val = None, math.inf
    for c in np.exp(np.linspace(math.log(0.05), math.log(5e4), 60)).tolist():
        k = 1.0 / float(np.mean(_log1p_xc(lnx, c, buf, scratch)))
        theta = (math.log(c), math.log(k))
        if math.exp(theta[0]) != c:
            _log1p_xc(lnx, math.exp(theta[0]), buf, scratch)
        val = sq_resid(math.exp(theta[1]))
        if val < best_val:
            best_theta, best_val = theta, val

    x, fun, success, message = _nelder_mead(
        objective, best_theta, maxiter=BURR_FIT_MAX_ITER, xatol=1e-8, fatol=BURR_FIT_FATOL
    )
    c, k = math.exp(x[0]), math.exp(x[1])
    if not success:
        raise FitConvergenceError(
            f"fit_burr did not converge: {message} (objective {fun:.3e})",
            last_params=(c, k),
            objective=fun,
        )
    return BurrParams(c=c, k=k)


def _nelder_mead(func, x0, maxiter: int, xatol: float, fatol: float):
    """Minimize ``func`` by Nelder-Mead simplex steps; (x, fun, success, message).

    The same iterates, in the same floating-point operations, as
    ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})``
    with no bounds, adaptive off and no evaluation limit: a start simplex
    of x0 and x0 with one coordinate stepped by 5% (0.00025 from zero),
    reflection 1, expansion 2, contraction and shrink 1/2, and a stop when
    every vertex is within xatol of the best and every value within fatol.

    Vertices are tuples of Python floats, so each step is scalar arithmetic;
    ``func`` gets a tuple. The vertices are ordered by ``np.argsort`` of
    their values, as scipy orders them, so that tied and NaN values keep
    its order.
    """
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    sim = [tuple(x0)]
    for j in range(n):
        y = list(x0)
        y[j] = 1.05 * y[j] if y[j] != 0 else 0.00025
        sim.append(tuple(y))
    fsim = [func(v) for v in sim]

    def reorder():
        order = np.argsort(fsim).tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim, fsim = reorder()
    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if all(abs(v - b) <= xatol for vertex in sim[1:] for v, b in zip(vertex, best)) and all(
            abs(fbest - f) <= fatol for f in fsim[1:]
        ):
            break
        xbar = list(sim[0])
        for vertex in sim[1:-1]:
            xbar = [s + v for s, v in zip(xbar, vertex)]
        xbar = [s / n for s in xbar]
        worst = sim[-1]
        xr = tuple(2 * m - w for m, w in zip(xbar, worst))
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = tuple(3 * m - 2 * w for m, w in zip(xbar, worst))
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = tuple(1.5 * m - 0.5 * w for m, w in zip(xbar, worst))
                fxc = func(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = tuple(0.5 * m + 0.5 * w for m, w in zip(xbar, worst))
                fxc = func(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = tuple(b + 0.5 * (v - b) for v, b in zip(sim[j], best))
                    fsim[j] = func(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        sim, fsim = reorder()

    x, fun = np.array(sim[0]), float(np.min(fsim))
    if iterations >= maxiter:
        return x, fun, False, "Maximum number of iterations has been exceeded."
    return x, fun, True, "Optimization terminated successfully."


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _exact_u_counts(n1: int, n2: int) -> tuple[int, ...]:
    """Null distribution of U: counts[u] = number of tie-free rank
    assignments with that U value, over all C(n1+n2, n1) assignments.

    Recurrence on the largest rank: if it belongs to x it beats all j
    remaining y's, otherwise it contributes nothing:
        f(i, j, u) = f(i-1, j, u-j) + f(i, j-1, u).
    """
    max_u = n1 * n2
    prev = [[0] * (max_u + 1) for _ in range(n2 + 1)]
    for j in range(n2 + 1):
        prev[j][0] = 1  # i = 0: only u = 0
    for i in range(1, n1 + 1):
        cur = [[0] * (max_u + 1) for _ in range(n2 + 1)]
        cur[0][0] = 1  # j = 0: only u = 0
        for j in range(1, n2 + 1):
            row, x_row, y_row = cur[j], prev[j], cur[j - 1]
            for u in range(0, i * j + 1):
                row[u] = y_row[u] + (x_row[u - j] if u >= j else 0)
        prev = cur
    return tuple(prev[n2])


def _u_sorted(xs: np.ndarray, ys: np.ndarray) -> float:
    """Mann-Whitney U of sorted ``xs`` against sorted ``ys``: for each x, the
    ys below it plus half the ys equal to it.

    Both counts come from ``np.searchsorted``, so ±0.0 are one value and ±inf
    count like any other. The sum is an integer count of half pairs, so U
    is exact and equals the midrank form R1 - n1(n1+1)/2 bit for bit.
    """
    below = int(np.searchsorted(ys, xs, "left").sum())
    not_above = int(np.searchsorted(ys, xs, "right").sum())
    return (below + not_above) / 2


def _tie_term(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sum of t**3 - t over the runs of equal values in the pooled sorted
    sample, each t a run length, in increasing order of value; 0.0 when
    the two samples hold no value twice."""
    pooled = np.concatenate((xs, ys))
    pooled.sort(kind="stable")  # a merge of the two sorted runs
    new_run = np.concatenate(([True], pooled[1:] != pooled[:-1]))
    runs = np.diff(np.append(np.flatnonzero(new_run), pooled.size))
    return float(np.sum(runs.astype(float) ** 3 - runs))


# cephes ndtr.c: erf on |x| < 1 (T/U), erfc on 1 <= |x| < 8 (P/Q) and beyond (R/S); U, Q and S
# lead with the 1.0 that cephes' p1evl implies, bit for bit the same since 1.0 * x == x
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.7071067811865476  # the double nearest 1/sqrt(2)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:  # |x| < 1; odd in x exactly, as cephes' -erf(-x) for x < 0 is
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:  # x >= 0
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    if x < 8.0:
        return (math.exp(z) * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q)
    return (math.exp(z) * _polevl(x, _ERFC_R)) / _polevl(x, _ERFC_S)


def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal: cephes ``ndtr(-z)``.

    Bit for bit ``scipy.special.ndtr(-z)`` (so ``scipy.stats.norm.sf(z)``):
    the same rational approximations, evaluated in the same order.
    """
    if math.isnan(z):
        return math.nan
    x = -z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _sorted_sample(values) -> np.ndarray | ValueError:
    """The values as a sorted float array, or the ValueError converting them raised."""
    try:
        return np.sort(np.asarray(values, dtype=float).ravel())
    except ValueError as exc:
        return exc


def _refuse(xs, ys, alternative: str, method: str = "auto") -> None:
    """Raise the first reason why the test cannot run on two ``_sorted_sample`` results."""
    if alternative not in ("greater", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if method not in ("auto", "exact", "normal-approx"):
        raise ValueError(f"unknown method {method!r}")
    for sample in (xs, ys):
        if isinstance(sample, ValueError):
            raise sample
    if xs.size == 0 or ys.size == 0:
        raise DegenerateSampleError("mann_whitney: empty sample")
    if np.isnan(xs[-1]) or np.isnan(ys[-1]):  # sorting puts NaN last
        raise DegenerateSampleError("mann_whitney: NaN in sample")


def _u_test(xs, ys, u: float, tie_term: float, alternative: str, method: str = "auto") -> TestResult:
    """The test of sorted samples that ``_refuse`` accepts, from their U and tie term."""
    n1, n2 = xs.size, ys.size
    use_exact = method == "exact" or (method == "auto" and not tie_term and n1 * n2 <= EXACT_MAX_PRODUCT)
    if use_exact and tie_term:
        raise ValueError("exact method is undefined for tied samples")
    if use_exact:
        counts = _exact_u_counts(n1, n2)
        total = float(sum(counts))
        u_int = int(round(u))
        p_ge = sum(counts[u_int:]) / total
        p_le = sum(counts[: u_int + 1]) / total
        p = p_ge if alternative == "greater" else min(1.0, 2.0 * min(p_ge, p_le))
        return TestResult(u, p, alternative, n1, n2, "exact")
    n = n1 + n2
    mean_u = n1 * n2 / 2.0
    # tie correction for the variance
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        return TestResult(u, 1.0, alternative, n1, n2, "normal-approx")
    sd = math.sqrt(var_u)
    if alternative == "greater":
        z = (u - mean_u - 0.5) / sd
        p = _norm_sf(z)
    else:
        z = (abs(u - mean_u) - 0.5) / sd
        p = min(1.0, 2.0 * _norm_sf(z))
    return TestResult(u, min(1.0, max(0.0, p)), alternative, n1, n2, "normal-approx")


def mann_whitney(x, y, alternative: str = "two-sided", method: str = "auto") -> TestResult:
    """Mann-Whitney U test; "greater" means x stochastically greater than y.

    U counts pairs (x_i, y_j) with x_i > y_j (half credit for ties,
    midranks). The exact route enumerates the null distribution and is
    taken when the samples are tie-free and n1*n2 <= EXACT_MAX_PRODUCT,
    or when forced with method="exact"; otherwise the tie-corrected
    normal approximation with continuity correction applies. An empty
    sample, or one holding NaN, raises DegenerateSampleError.
    """
    xs, ys = _sorted_sample(x), _sorted_sample(y)
    _refuse(xs, ys, alternative, method)
    return _u_test(xs, ys, _u_sorted(xs, ys), _tie_term(xs, ys), alternative, method)


# ---------------------------------------------------------------------------
# Class test matrices
# ---------------------------------------------------------------------------

class MatrixCell(_Record, frozen=True):
    """One pairwise comparison; ``row`` is the smaller class."""

    row: str
    col: str
    alternative: str
    result: TestResult | None
    error: str | None = None


def class_test_matrix(
    bins: dict[str, list[float]],
    alternatives: tuple[str, ...] = ("greater", "two-sided"),
) -> list[MatrixCell]:
    """Pairwise tests between size classes, smallest class first.

    ``bins`` maps class label -> growth values, in increasing size order
    (insertion order is trusted). For each unordered pair the "greater"
    cell tests that the smaller class grows at a higher rate; the
    two-sided cell tests any difference. Pairs that ``mann_whitney``
    refuses with a ValueError (an empty class, NaN, an unknown alternative)
    become cells carrying the reason instead of a result.

    Each class is sorted once, and each pair's U and tie term are counted
    once and serve all its alternatives; every cell equals the result of
    ``mann_whitney``.
    """
    labels = list(bins)
    if len(labels) < 2:
        raise ValueError("class_test_matrix needs at least 2 bins")
    ready = {label: _sorted_sample(values) for label, values in bins.items()}
    cells: list[MatrixCell] = []
    for i, small in enumerate(labels):
        for large in labels[i + 1 :]:
            xs, ys = ready[small], ready[large]
            pair = None  # (U, tie term), counted for the first alternative that gets that far
            for alt in alternatives:
                try:
                    _refuse(xs, ys, alt)
                    pair = pair or (_u_sorted(xs, ys), _tie_term(xs, ys))
                    cells.append(MatrixCell(small, large, alt, _u_test(xs, ys, *pair, alt)))
                except ValueError as exc:  # degenerate pair: keep the reason
                    cells.append(MatrixCell(small, large, alt, None, error=str(exc)))
    return cells


# ---------------------------------------------------------------------------
# Detailed balance (time-reversal symmetry)
# ---------------------------------------------------------------------------

SYMMETRY_MIN_SAMPLES = 100


def detailed_balance_check(samples) -> TestResult:
    """Two-sided symmetry test: Mann-Whitney U of {g} against {-g}.

    Because the mirrored sample is a deterministic transform of the
    original, the two samples are dependent and the standard two-sample
    null variance n1*n2*(n+1)/12 understates the true spread of U by a
    factor approaching 2. The variance used here is derived under the
    symmetry null itself (writing U in terms of Walsh-pair counts):

        Var(U) = n(n-1)(n-2)/3 + n(n-1) + n/4,   E(U) = n^2/2.

    Small p signals asymmetry around zero, i.e. a detailed-balance
    violation. A sample holding NaN raises DegenerateSampleError.
    """
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    n = arr.size
    if n < SYMMETRY_MIN_SAMPLES:
        raise DegenerateSampleError(
            f"detailed_balance_check needs at least {SYMMETRY_MIN_SAMPLES} samples"
        )
    if np.isnan(arr[-1]):
        raise DegenerateSampleError("detailed_balance_check: NaN in sample")
    u = _u_sorted(arr, -arr[::-1])  # the mirror, sorted
    mean_u = n * n / 2.0
    var_u = n * (n - 1) * (n - 2) / 3.0 + n * (n - 1) + n / 4.0
    z = (abs(u - mean_u) - 0.5) / math.sqrt(var_u)
    p = min(1.0, 2.0 * _norm_sf(z))
    return TestResult(u, p, "two-sided", n, n, "normal-approx")


def format_p(p: float) -> str:
    """Display convention for report tables: values below 1e-4 print
    as "<0.0001"; machine outputs keep full precision elsewhere."""
    if p < 1e-4:
        return "<0.0001"
    return format(p, ".4f")
