"""Every command but synth as a library call: load, aggregate, analyze, model, cohort, simulate.

``load_dataset`` reads and joins the input files. ``aggregate``,
``analyze`` and ``model`` are generators that aggregate one timescale,
yield its results and only then go on to the next, so a caller that
writes each result out before asking for the next never holds more than
one timescale; ``aggregate`` yields each windows table itself. ``cohort``
matches the cohorts up front and yields its per-timescale tests the same
way, on the windows a page mask per cohort selects. ``simulate`` checks
every timescale, then runs every (timescale, f0) pair before it returns.
Results come back as objects (test cells, fitted parameters, regressions),
never as text: ``cli.py`` turns them into the rows of its output files.
Warnings go to the ``warn`` callback as they arise. Each call takes the
settings it reads as keyword-only arguments, whose defaults are the only
ones: the CLI passes on just the flags given.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from . import model as _model  # ``model`` here is the command; calls go through the module
from .aggregate import AggregatedSeries, Timescale, aggregate_dataset
from .cohort import (
    MatchResult,
    ReliabilityLabel,
    greedy_match,
    label_pages,
    match_cohorts,
    page_features,
    reliability_comparison,
    standardize_features,
)
from .growth import (
    DEFAULT_FOLLOWER_CLASSES,
    TRIM_MIN_SAMPLES,
    GrowthSamples,
    SizeClass,
    _check_trim_bounds,
    _percentiles,
    class_bins,
    engagement_quartile_bins,
    pooled_growth_samples,
    split_class_by_median,
    trim_mask,
    validate_scheme,
)
from .ingest import (
    ABSENT,
    DAY_S,
    Dataset,
    FatalParseError,
    PageMeta,
    PostColumns,
    RejectionReport,
    _csv_rows,
    _day_date,
    _opt_count,
    _Record,
    build_dataset,
    parse_pages,
    parse_posts,
)
from .model import SIM_TIMESCALES, ModelCoefficients, ParamRegression, check_timescales, regress_parameters
from .stats import (
    BurrParams,
    DegenerateSampleError,
    FitConvergenceError,
    LaplaceParams,
    MatrixCell,
    TestResult,
    class_test_matrix,
    detailed_balance_check,
    fit_burr,
    fit_laplace,
)

Warn = Callable[[str], object]  # receives each warning line as it arises

MODEL_MIN_SAMPLES = 100  # growth samples a timescale needs before model bins them


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _bound(raw: str, what: str) -> int:
    value = _opt_count(raw, what)
    if value is None:
        raise ValueError(f"{what} is missing")
    return value


def load_classes(path: str | Path) -> tuple[SizeClass, ...]:
    """Size-class scheme from a ``label,lower,upper`` CSV."""
    scheme = []
    with open(path, "rb") as fh:
        for line, row in _csv_rows(fh, ["label", "lower", "upper"], "size-class"):
            try:
                if len(row) != 3:
                    raise ValueError(f"expected label,lower,upper, got {row}")
                scheme.append(SizeClass(row[0], _bound(row[1], "lower"), _bound(row[2], "upper")))
            except ValueError as exc:
                raise ValueError(f"size-class file line {line}: {exc}") from exc
    if not scheme:
        raise ValueError(f"size-class file {path} lists no size class")
    validate_scheme(scheme)
    return tuple(scheme)


def _stub_pages(posts: PostColumns) -> dict[str, PageMeta]:
    # no metadata supplied: a page per distinct id, created on the day of
    # its first post in the file, so the posts can still be aggregated
    # (scores stay absent)
    first = np.sort(np.unique(posts.page, return_index=True)[1])  # each page's first post, in file order
    pages: dict[str, PageMeta] = {}
    for code, seconds in zip(posts.page[first].tolist(), posts.seconds[first].tolist()):
        page_id = posts.page_ids[code]
        pages[page_id] = PageMeta(page_id=page_id, name=page_id, created_at=_day_date(seconds // DAY_S))
    return pages


def load_dataset(posts_path: Path, pages_path: Path | None) -> tuple[Dataset, list[tuple[str, int, str]]]:
    """Parse and join the input files.

    Returns the dataset and every rejected row as (source, line, reason),
    posts first, then pages, then the join. Without a pages file every
    page id in the posts gets a stub page with no score.
    """
    if not posts_path.exists():
        raise FatalParseError(f"input file not found: {posts_path}")
    fmt = "jsonl" if posts_path.suffix == ".jsonl" else "csv"
    with open(posts_path, "rb") as fh:
        posts, post_report = parse_posts(fh, format=fmt)
    if pages_path is None:
        pages, page_report = _stub_pages(posts), RejectionReport()
    else:
        if not pages_path.exists():
            raise FatalParseError(f"pages file not found: {pages_path}")
        with open(pages_path, "rb") as fh:
            pages, page_report = parse_pages(fh)
    dataset, join_report = build_dataset(posts, pages)
    reports = (("posts", post_report), ("pages", page_report), ("join", join_report))
    return dataset, [(source, row.line, row.reason) for source, report in reports for row in report.rows]


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def aggregate(dataset: Dataset, *, timescales: tuple[Timescale, ...] = tuple(Timescale),
              quarter_rule: str = "latest") -> Iterator[AggregatedSeries]:
    """Each timescale's windows table, one timescale at a time."""
    for scale in timescales:
        yield aggregate_dataset(dataset, scale, quarter_rule)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

class MatrixBlock(_Record):
    """Pairwise class tests of one metric's growth under one binning."""

    metric: str
    size_by: str
    cells: list[MatrixCell]


class ScaleAnalysis(_Record):
    """What ``analyze`` finds at one timescale."""

    scale: Timescale
    samples: GrowthSamples  # growth samples of the analyzed metric
    matrices: list[MatrixBlock]
    fits: list[tuple[str, LaplaceParams | BurrParams]]  # (cohort, fit): Laplace for all, then each class; then Burr
    balance: TestResult | None  # time-reversal symmetry of the samples


def analyze(dataset: Dataset, warn: Warn, *, timescales: tuple[Timescale, ...] = tuple(Timescale),
            classes: tuple[SizeClass, ...] = tuple(DEFAULT_FOLLOWER_CLASSES), metric: str = "engagement",
            trim_bounds: tuple[float, float] = (5.0, 95.0), trim_rates: bool = False,
            quarter_rule: str = "latest") -> Iterator[ScaleAnalysis]:
    """Size-class test matrices, distribution fits and symmetry check per timescale.

    Matrices: growth of the metric, of mean engagement and of followers by
    follower class; the metric by median-split class and by engagement
    quartile. Fits: Laplace on the log growth of the metric, Burr on
    follower gross growth, pooled and per class. Trim bounds outside
    0 <= lo < hi <= 100 raise ValueError before the first timescale.
    """
    _check_trim_bounds(*trim_bounds)
    for scale in timescales:
        series = aggregate_dataset(dataset, scale, quarter_rule)
        yield _analyze_scale(series, scale, classes, metric, trim_bounds, trim_rates, warn)


def _analyze_scale(series, scale: Timescale, classes, metric, trim_bounds, trim_rates, warn: Warn) -> ScaleAnalysis:
    def block(name: str, size_by: str, tables: dict[str, GrowthSamples]) -> MatrixBlock:
        groups = {label: t.log_growth for label, t in tables.items()}
        # with trim_rates each group is first cut to the percentile band
        if trim_rates:
            for label, v in groups.items():
                if 0 < v.size < TRIM_MIN_SAMPLES:
                    warn(f"warning: trim {name}/{size_by}/{label}/{scale.value}: only {v.size} values "
                         f"(< {TRIM_MIN_SAMPLES}); passing through")
            groups = {label: v[trim_mask(v, *trim_bounds)] for label, v in groups.items()}
        return MatrixBlock(name, size_by, class_test_matrix(groups))

    # each sample set, and its follower classes, computed once
    samples = {m: pooled_growth_samples(series, m)[0] for m in dict.fromkeys((metric, "mean_engagement", "followers"))}
    bins = {m: class_bins(s, classes) for m, s in samples.items()}
    matrices = []
    for name, by_class in bins.items():
        if len(by_class) < 2:
            warn(f"warning: {name}/{scale.value}: fewer than 2 follower classes populated; matrix empty")
            continue
        matrices.append(block(name, "followers_class", by_class))

    # variant: classes split at their median follower value
    if len(bins[metric]) >= 2:
        split: dict[str, GrowthSamples] = {}
        for label, members in bins[metric].items():
            try:
                split[f"{label}/lo"], split[f"{label}/hi"] = split_class_by_median(members)
            except ValueError:  # DegenerateBinningError among them
                continue
        if len(split) >= 2:
            matrices.append(block(metric, "followers_median_split", split))

    # variant: engagement quartile bins
    try:
        quartiles = engagement_quartile_bins(samples[metric], *trim_bounds)
        matrices.append(block(metric, "engagement_quartile", quartiles))
    except ValueError as exc:
        warn(f"warning: quartile bins at {scale.value}: {exc}")

    # Laplace on log growth of the metric, Burr on follower gross growth
    fits = []
    for name, members in [("all", samples[metric]), *bins[metric].items()]:
        try:
            fits.append((name, fit_laplace(members.log_growth)))
        except DegenerateSampleError:
            continue
    for name, members in [("all", samples["followers"]), *bins["followers"].items()]:
        try:
            fits.append((name, fit_burr(members.gross_growth)))
        except (ValueError, FitConvergenceError) as exc:
            warn(f"warning: burr fit {name}/{scale.value}: {exc}")

    try:
        balance = detailed_balance_check(samples[metric].log_growth)
    except DegenerateSampleError as exc:
        warn(f"warning: detailed balance at {scale.value}: {exc}")
        balance = None
    return ScaleAnalysis(scale, samples[metric], matrices, fits, balance)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class _BinnedFits(_Record, frozen=True):
    """One distribution's side of ``model``: how its samples are binned and fitted."""

    parameters: tuple[str, ...]  # regressed on the mean log covariates of the bins
    covariates: tuple[str, ...]  # GrowthSamples columns, each cut into quantile bins
    n_bins: int  # quantile bins per covariate
    min_members: int  # smaller bins are not fitted
    min_trimmed: int  # samples needed inside the percentile band
    fit: Callable[[GrowthSamples], object]


class ScaleModel(_Record):
    """Parameter regressions ``model`` fitted at one timescale."""

    scale: Timescale
    regressions: list[tuple[ParamRegression, int]]  # each with the number of bins it was fitted on


def _binned_regressions(samples, side: _BinnedFits, scale, trim_bounds, warn) -> list[tuple[ParamRegression, int]]:
    """Trim each covariate to the percentile band, cut quantile bins, fit each
    bin, then regress every parameter on the bins' mean log covariates."""
    samples = samples[samples.prior_followers != ABSENT]
    if len(samples) < MODEL_MIN_SAMPLES:
        return []
    columns = [getattr(samples, c).astype(float) for c in side.covariates]
    keep = np.logical_and.reduce([trim_mask(col, *trim_bounds) & (col > 0) for col in columns])  # bins take logs
    samples, columns = samples[keep], [col[keep] for col in columns]
    if len(samples) < side.min_trimmed:
        return []
    qs = np.linspace(0, 100, side.n_bins + 1)[1:-1]
    # bin index = number of quantile edges strictly below the value
    index = [np.searchsorted(_percentiles(col, qs), col, side="left") for col in columns]
    codes = np.ravel_multi_index(index, (side.n_bins,) * len(columns))
    fits = []
    for code in np.flatnonzero(np.bincount(codes)):  # each bin holding a sample, in order
        rows = np.flatnonzero(codes == code)
        if rows.size < side.min_members:
            continue
        try:
            params = side.fit(samples[rows])
        except (ValueError, FitConvergenceError):
            continue
        ln_f, ln_e = ([float(np.mean(np.log(col[rows]))) for col in columns] + [0.0])[:2]
        fits.append((ln_f, ln_e, params))
    out = []
    for parameter in side.parameters:
        if len(fits) <= len(columns):  # at least one bin per regression coefficient
            warn(f"warning: {parameter}/{scale.value}: only {len(fits)} usable bins")
            continue
        try:
            out.append((regress_parameters(fits, parameter, scale), len(fits)))
        except _model.CollinearCovariatesError:  # skipped like too few bins
            warn(f"warning: {parameter}/{scale.value}: collinear covariates")
    return out


def model(dataset: Dataset, warn: Warn, *, timescales: tuple[Timescale, ...] = SIM_TIMESCALES,
          metric: str = "engagement", trim_bounds: tuple[float, float] = (5.0, 95.0),
          quarter_rule: str = "latest") -> Iterator[ScaleModel]:
    """Per-bin distribution fits regressed on log size, per timescale (W, M or Q; D is refused).

    Laplace (mu, b) on the log growth of the metric in 4x4 quartile bins of
    prior followers and prior engagement; Burr (c, k) on follower gross
    growth in 8 quantile bins of prior followers. A parameter short of bins,
    or whose bins are collinear, is skipped with a warning. Raises
    DegenerateSampleError after the last timescale if nothing was fitted,
    and ValueError before the first for trim bounds outside 0 <= lo < hi <= 100.
    """
    check_timescales(timescales, "model")
    _check_trim_bounds(*trim_bounds)
    laplace = _BinnedFits(
        parameters=("mu", "b"),
        covariates=("prior_followers", "prior_engagement"),
        n_bins=4,
        min_members=20,
        min_trimmed=MODEL_MIN_SAMPLES,
        fit=lambda members: fit_laplace(members.log_growth),
    )
    burr = _BinnedFits(
        parameters=("c", "k"),
        covariates=("prior_followers",),
        n_bins=8,
        min_members=50,
        min_trimmed=1,  # an empty sample has no quantiles to bin by
        fit=lambda members: fit_burr(members.gross_growth),
    )
    fitted = 0
    for scale in timescales:
        series = aggregate_dataset(dataset, scale, quarter_rule)
        regressions = []
        for name, side in ((metric, laplace), ("followers", burr)):
            samples, _ = pooled_growth_samples(series, name)
            regressions += _binned_regressions(samples, side, scale, trim_bounds, warn)
        fitted += len(regressions)
        yield ScaleModel(scale, regressions)
    if not fitted:
        raise DegenerateSampleError("no parameter regressions could be fitted")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate(*, coefficients: ModelCoefficients | None = None, timescales: tuple[Timescale, ...] = SIM_TIMESCALES,
             f0: tuple[float, ...] = (25_000, 250_000, 1_000_000), e0: float = 10_000.0, steps: int = 20,
             runs: int = 1000, seed: int = 0) -> dict[tuple[Timescale, float], _model.Trajectories]:
    """``model.simulate``'s table of runs of each (timescale, f0) pair, keyed by the pair, timescale by timescale.

    ``None`` means the built-in table. A timescale other than W, M and Q is
    refused by name, then every timescale the table lacks, before any pair runs.
    """
    coeffs = _model.published_coefficients() if coefficients is None else coefficients
    check_timescales(timescales, "simulate")
    missing = [s.value for s in timescales if not coeffs.has_timescale(s)]
    if missing:
        raise FatalParseError(f"coefficient table lacks timescale {', '.join(missing)}")
    return {(scale, v): _model.simulate(coeffs, scale, v, e0, steps, runs, seed) for scale in timescales for v in f0}


# ---------------------------------------------------------------------------
# cohort
# ---------------------------------------------------------------------------

class Cohort(_Record):
    """Reliability labels, the matched sample, and the tests still to run."""

    labels: list[ReliabilityLabel]
    match: MatchResult
    features: dict[str, tuple[float, float]]  # raw (max followers, lifespan days)
    tests: Iterator[tuple[Timescale, dict[str, TestResult]]]


def cohort(dataset: Dataset, warn: Warn, *, timescales: tuple[Timescale, ...] = tuple(Timescale),
           matching: str = "assignment") -> Cohort:
    """Label pages, match each questionable page to a reliable one on weekly
    features, and set up the one-sided reliable > questionable tests.

    ``tests`` yields each timescale's results when iterated; a timescale
    whose cohorts have no data is skipped with a warning.
    """
    if matching not in ("assignment", "greedy"):
        raise ValueError(f"unknown matching {matching!r}")
    labels, unscored = label_pages(dataset.pages)
    if unscored:
        warn(f"unscored pages excluded: {len(unscored)}")
    questionable_ids = [l.page_id for l in labels if l.label == "questionable"]
    reliable_ids = [l.page_id for l in labels if l.label == "reliable"]

    weekly = aggregate_dataset(dataset, Timescale.W)
    features = page_features(dataset.pages, weekly, dataset.end_date)
    raw = {i: features[i] for i in questionable_ids + reliable_ids if i in features}
    unobserved = len(questionable_ids) + len(reliable_ids) - len(raw)
    if unobserved:
        warn(f"pages without follower observations: {unobserved}")
    standardized = standardize_features(raw)
    q_vecs = {i: standardized[i] for i in questionable_ids if i in standardized}
    r_vecs = {i: standardized[i] for i in reliable_ids if i in standardized}
    if not q_vecs or not r_vecs:
        raise DegenerateSampleError("need both questionable and reliable pages with follower observations")
    result = (greedy_match if matching == "greedy" else match_cohorts)(q_vecs, r_vecs)
    # every timescale's table lists the cells' pages, so one page mask per cohort selects its windows
    in_q, in_r = (np.array([i in ids for i in weekly.page_ids], dtype=bool)
                  for ids in (q_vecs, {r for _, r in result.pairs}))

    def tests():
        for scale in timescales:
            series = weekly if scale is Timescale.W else aggregate_dataset(dataset, scale)
            try:
                results = reliability_comparison(series[in_q[series.page]], series[in_r[series.page]])
            except DegenerateSampleError as exc:
                warn(f"warning: reliability tests at {scale.value}: {exc}")
                continue
            yield scale, results

    return Cohort(labels, result, raw, tests())
