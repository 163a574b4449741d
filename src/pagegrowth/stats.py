"""Distribution calibration, rank tests, and time-reversal symmetry checks.

Laplace parameters come analytically from the sample mean and standard
deviation; Burr shape parameters come from least-squares fitting of the
empirical CDF (plotting position i/(n+1)) with a derivative-free simplex
search in (ln c, ln k) space. The Mann-Whitney implementation computes
the exact null distribution by enumeration for small tie-free samples
(n1*n2 <= EXACT_MAX_PRODUCT) and otherwise uses the tie-corrected normal
approximation with a 0.5 continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EXACT_MAX_PRODUCT = 400

BURR_FIT_MIN_SAMPLES = 50
BURR_FIT_MAX_ITER = 500
BURR_FIT_FATOL = 1e-10


class DegenerateSampleError(ValueError):
    """Sample too small or without spread for the requested calibration."""


class FitConvergenceError(RuntimeError):
    """Optimizer ran out of iterations; carries the last iterate."""

    def __init__(self, message, last_params=None, objective=None):
        super().__init__(message)
        self.last_params = last_params
        self.objective = objective


@dataclass(frozen=True)
class LaplaceParams:
    """Location/scale of the double-exponential density."""

    mu: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("Laplace scale b must be positive")


@dataclass(frozen=True)
class BurrParams:
    """Shape parameters of the Burr XII density ck x^(c-1) / (1+x^c)^(k+1)."""

    c: float
    k: float

    def __post_init__(self):
        if not (self.c > 0 and self.k > 0):
            raise ValueError("Burr shapes c and k must be positive")

    def median(self) -> float:
        return (2.0 ** (1.0 / self.k) - 1.0) ** (1.0 / self.c)


@dataclass(frozen=True)
class TestResult:
    u_statistic: float
    p_value: float
    alternative: str  # "greater" | "two-sided"
    n1: int
    n2: int
    method: str  # "exact" | "normal-approx"


def fit_laplace(samples) -> LaplaceParams:
    """Analytic calibration: mu is the mean, b the sample sd (ddof=1) over sqrt(2)."""
    arr = np.asarray(samples, dtype=float)
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
        - (p.k + 1.0) * np.logaddexp(0.0, p.c * lnx)
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


def _burr_cdf_from_logx(lnx: np.ndarray, c: float, k: float) -> np.ndarray:
    return -np.expm1(-k * np.logaddexp(0.0, c * lnx))


def fit_burr(samples) -> BurrParams:
    """Least-squares fit of the Burr CDF to the empirical CDF.

    The objective is the sum of squared deviations between the empirical
    CDF at the sorted sample points (plotting position i/(n+1)) and the
    Burr CDF. The search runs in (ln c, ln k) space with Nelder-Mead
    simplex iterations from a moment-informed start: for each candidate c
    on a log grid, k is set through the identity ln(1+x^c) ~ Exp(k), and
    the best grid point seeds the simplex.
    """
    arr = np.asarray(samples, dtype=float)
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

    def objective(theta):
        c = math.exp(theta[0])
        k = math.exp(theta[1])
        resid = _burr_cdf_from_logx(lnx, c, k) - ecdf
        return float(resid @ resid)

    best_theta, best_val = None, math.inf
    for c in np.exp(np.linspace(math.log(0.05), math.log(5e4), 60)):
        k = 1.0 / float(np.mean(np.logaddexp(0.0, c * lnx)))
        theta = (math.log(c), math.log(k))
        val = objective(theta)
        if val < best_val:
            best_theta, best_val = theta, val

    from scipy.optimize import minimize  # loaded on first fit, not with the package

    res = minimize(
        objective,
        best_theta,
        method="Nelder-Mead",
        options={"maxiter": BURR_FIT_MAX_ITER, "fatol": BURR_FIT_FATOL, "xatol": 1e-8},
    )
    c, k = math.exp(res.x[0]), math.exp(res.x[1])
    if not res.success:
        raise FitConvergenceError(
            f"fit_burr did not converge: {res.message} (objective {res.fun:.3e})",
            last_params=(c, k),
            objective=res.fun,
        )
    return BurrParams(c=c, k=k)


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


def _midranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n with each run of equal values given the mean of its ranks.

    Equal to ``scipy.stats.rankdata(a)`` (method "average"), bit for bit:
    every rank is a multiple of 0.5 below 2**52, so both formulas are exact.
    Any NaN makes every rank NaN, as it does there.
    """
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    new_run = np.concatenate(([True], sorted_a[1:] != sorted_a[:-1]))
    dense = np.cumsum(new_run)  # 1-based run index of each sorted value
    cnt = np.append(np.flatnonzero(new_run), a.size)  # run starts, then n
    ranks = np.empty(a.size)
    ranks[order] = 0.5 * (cnt[dense] + cnt[dense - 1] + 1)
    return ranks


def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal, ``scipy.stats.norm.sf(z)`` exactly."""
    from scipy.special import ndtr  # loaded on first use, not with the package

    return float(ndtr(-z))


def _has_ties(x: np.ndarray, y: np.ndarray) -> bool:
    pooled = np.concatenate([x, y])
    return np.unique(pooled).size < pooled.size


def mann_whitney(x, y, alternative: str = "two-sided", method: str = "auto") -> TestResult:
    """Mann-Whitney U test; "greater" means x stochastically greater than y.

    U counts pairs (x_i, y_j) with x_i > y_j (half credit for ties,
    midranks). The exact route enumerates the null distribution and is
    taken when the samples are tie-free and n1*n2 <= EXACT_MAX_PRODUCT,
    or when forced with method="exact"; otherwise the tie-corrected
    normal approximation with continuity correction applies.
    """
    if alternative not in ("greater", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if method not in ("auto", "exact", "normal-approx"):
        raise ValueError(f"unknown method {method!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise DegenerateSampleError("mann_whitney: empty sample")

    ranked = _midranks(np.concatenate([x, y]))
    r1 = float(np.sum(ranked[:n1]))
    u = r1 - n1 * (n1 + 1) / 2.0  # pairs with x > y, ties counted half

    ties = _has_ties(x, y)
    use_exact = method == "exact" or (method == "auto" and not ties and n1 * n2 <= EXACT_MAX_PRODUCT)
    if use_exact and ties:
        raise ValueError("exact method is undefined for tied samples")

    if use_exact:
        counts = _exact_u_counts(n1, n2)
        total = float(sum(counts))
        u_int = int(round(u))
        p_ge = sum(counts[u_int:]) / total
        p_le = sum(counts[: u_int + 1]) / total
        if alternative == "greater":
            p = p_ge
        else:
            p = min(1.0, 2.0 * min(p_ge, p_le))
        return TestResult(u, p, alternative, n1, n2, "exact")

    n = n1 + n2
    mean_u = n1 * n2 / 2.0
    # tie correction for the variance
    _, t_counts = np.unique(np.concatenate([x, y]), return_counts=True)
    tie_term = float(np.sum(t_counts.astype(float) ** 3 - t_counts))
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


# ---------------------------------------------------------------------------
# Class test matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixCell:
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
    two-sided cell tests any difference. Per-pair failures become cells
    carrying an error reason instead of a result.
    """
    labels = list(bins)
    if len(labels) < 2:
        raise ValueError("class_test_matrix needs at least 2 bins")
    cells: list[MatrixCell] = []
    for i, small in enumerate(labels):
        for large in labels[i + 1 :]:
            for alt in alternatives:
                try:
                    res = mann_whitney(bins[small], bins[large], alternative=alt)
                    cells.append(MatrixCell(small, large, alt, res))
                except Exception as exc:  # degenerate pair: keep the reason
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
    violation.
    """
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n < SYMMETRY_MIN_SAMPLES:
        raise DegenerateSampleError(
            f"detailed_balance_check needs at least {SYMMETRY_MIN_SAMPLES} samples"
        )
    ranked = _midranks(np.concatenate([arr, -arr]))
    r1 = float(np.sum(ranked[:n]))
    u = r1 - n * (n + 1) / 2.0
    mean_u = n * n / 2.0
    var_u = n * (n - 1) * (n - 2) / 3.0 + n * (n - 1) + n / 4.0
    z = (abs(u - mean_u) - 0.5) / math.sqrt(var_u)
    p = min(1.0, 2.0 * _norm_sf(z))
    return TestResult(u, p, "two-sided", n, n, "normal-approx")


def format_p(p: float, floor: float = 1e-4) -> str:
    """Display convention for report tables: values below the floor print
    as "<0.0001"; machine outputs keep full precision elsewhere."""
    if p < floor:
        return f"<{floor:g}"
    return format(p, ".4f")
