"""Growth dynamics of social-media pages.

Aggregates post-level engagement into calendar windows, extracts
multiplicative growth-rate samples, calibrates Laplace and Burr
distributions, tests size classes against each other, regresses
distribution parameters on log size, and simulates follower/engagement
trajectories forward. A synthetic data generator makes the whole chain
runnable without proprietary exports.
"""

from .aggregate import (
    AggregatedSeries,
    Timescale,
    Window,
    aggregate_dataset,
    aggregate_engagement,
    select_followers,
    window_of,
)
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
    GrowthSample,
    GrowthSamples,
    SizeClass,
    class_bins,
    engagement_quartile_bins,
    growth_samples,
    pooled_growth_samples,
    split_class_by_median,
    trim,
)
from .ingest import (
    Dataset,
    FatalParseError,
    NoUsableDataError,
    PageMeta,
    PostRecord,
    RejectionReport,
    build_dataset,
    parse_pages,
    parse_posts,
)
from .model import (
    PUBLISHED_COEFFICIENTS,
    ModelCoefficients,
    ParamRegression,
    SimState,
    Trajectory,
    eval_c_k,
    eval_mu_b,
    published_coefficients,
    regress_parameters,
    sample_burr,
    sample_laplace,
    simulate,
    summarize_trajectories,
)
from .stats import (
    BurrParams,
    LaplaceParams,
    TestResult,
    burr_cdf,
    burr_ppf,
    class_test_matrix,
    detailed_balance_check,
    fit_burr,
    fit_laplace,
    laplace_pdf,
    mann_whitney,
)
from .synth import GeneratorConfig, generate, gibrat_null_coefficients

__version__ = "0.1.0"
