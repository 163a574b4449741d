"""Command-line front end: aggregate, analyze, model, simulate, cohort, synth.

Each command maps its flags onto a library call (the data commands onto
``pipeline``), writes the files and prints the console report. Only
``synth`` and ``simulate`` draw random numbers, from their --seed flag;
identical inputs and seed produce byte-identical outputs. Exit codes: 0
success, 2 input/config error, 3 numerical failure. Displayed p-values
floor at "<0.0001"; machine-readable CSVs keep full precision.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import pipeline, synth
from .aggregate import Timescale, write_series_csv
from .cohort import write_cohort_summary_csv, write_match_csv
from .growth import DegenerateBinningError, write_growth_samples_csv
from .ingest import Dataset, FatalParseError, _format_score, _iso_date, _write_table
from .model import (
    DEFAULT_STARTING_FOLLOWERS,
    CollinearCovariatesError,
    ModelCoefficients,
    check_timescales,
    published_coefficients,
    read_coefficients_csv,
    simulate,
    summarize_trajectories,
    write_coefficients_csv,
    write_summary_csv,
    write_trajectories_csv,
)
from .stats import DegenerateSampleError, FitConvergenceError, format_p

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_timescales(text: str) -> tuple[Timescale, ...]:
    scales = [Timescale.parse(part) for part in text.split(",") if part.strip()]
    if not scales:
        raise ValueError("empty timescale list")
    return tuple(dict.fromkeys(scales))


def _parse_trim(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"trim bounds must look like '5,95', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0 <= lo < hi <= 100:
        raise ValueError(f"trim bounds out of order: {text!r}")
    return lo, hi


_CHECKS = {
    "timescales": _parse_timescales, "classes": pipeline.load_classes, "trim_bounds": _parse_trim,
    "start": lambda text: _iso_date(text, "--start"), "end": lambda text: _iso_date(text, "--end"),
    "coefficients": lambda m: synth.gibrat_null_coefficients() if m == "gibrat-null" else _read_coefficients(m),
}


def _options(args) -> dict:
    """The settings given, each checked, in the order the parser defines them; the library defaults the rest."""
    given = vars(args)
    return {name: _CHECKS.get(name, lambda value: value)(given[name]) for name in args.settings if name in given}


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        _write_table(fh, header, list(rows))


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _load_dataset(args) -> tuple[Dataset, Path]:
    """The dataset, once read and accepted, and the output directory, created only then."""
    if not args.input:
        raise FatalParseError("missing --input posts file")
    dataset, rejections = pipeline.load_dataset(Path(args.input), Path(args.pages) if args.pages else None)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if rejections:
        _warn(f"rejected rows: {len(rejections)}")
        _write_csv(out_dir / "rejections.csv", ["source", "line", "reason"], rejections)
    return dataset, out_dir


def cmd_aggregate(args) -> int:
    settings = _options(args)
    dataset, out_dir = _load_dataset(args)
    for scale, series in pipeline.aggregate(dataset, **settings):
        path = out_dir / f"series_{scale.value}.csv"
        with open(path, "w", newline="") as fh:
            write_series_csv(series, fh)
        windows = sum(len(s) for s in series.values())
        print(f"{scale.value}: {len(series)} pages, {windows} windows -> {path}")
    return EXIT_OK


def _print_matrix(block: pipeline.MatrixBlock, scale: Timescale) -> None:
    one_sided = [c for c in block.cells if c.alternative == "greater"]
    if not one_sided:
        return
    labels = list(dict.fromkeys(label for c in one_sided for label in (c.row, c.col)))
    print(f"\n[{block.metric} growth | size by {block.size_by} | {scale.value}] one-sided p (smaller > larger)")
    width = max(8, max(len(l) for l in labels)) + 2
    print(" " * width + "".join(f"{l:>{width}}" for l in labels[1:]))
    lookup = {(c.row, c.col): c for c in one_sided}

    def entry(cell) -> str:
        if cell is None:
            return ""
        return "-" if cell.result is None else format_p(cell.result.p_value)

    for row_label in labels[:-1]:
        cols = (entry(lookup.get((row_label, col_label))) for col_label in labels[1:])
        print(f"{row_label:<{width}}" + "".join(f"{c:>{width}}" for c in cols))


def cmd_analyze(args) -> int:
    settings = _options(args)
    dataset, out_dir = _load_dataset(args)
    matrix_rows, fit_rows, balance_rows = [], [], []
    for result in pipeline.analyze(dataset, _warn, **settings):
        scale = result.scale.value
        with open(out_dir / f"growth_samples_{scale}.csv", "w", newline="") as fh:
            write_growth_samples_csv(result.samples, fh)
        for block in result.matrices:
            matrix_rows += block.rows(result.scale)
            if block.size_by != "followers_median_split":
                _print_matrix(block, result.scale)
        fit_rows += result.fit_rows
        if result.balance is not None:
            b, metric = result.balance, result.samples.metric
            balance_rows.append([metric, scale, b.n1, format(b.u_statistic, ".10g"), format(b.p_value, ".10g")])
            print(f"\n[detailed balance | {scale}] p = {format_p(b.p_value)}")
    _write_csv(out_dir / "matrices.csv", pipeline.MATRIX_HEADER, matrix_rows)
    _write_csv(out_dir / "fits.csv", pipeline.FITS_HEADER, fit_rows)
    _write_csv(out_dir / "detailed_balance.csv", ["metric", "timescale", "n", "u", "p"], balance_rows)
    print(f"\nwrote {out_dir / 'matrices.csv'}")
    return EXIT_OK


def cmd_model(args) -> int:
    settings = _options(args)
    check_timescales(settings.get("timescales", ()), "model")
    dataset, out_dir = _load_dataset(args)
    coeffs = ModelCoefficients()
    detail_rows = []
    for result in pipeline.model(dataset, _warn, **settings):
        for reg in result.regressions:
            coeffs.add(reg)
        detail_rows += result.detail_rows
    path = out_dir / "coefficients.csv"
    with open(path, "w", newline="") as fh:
        write_coefficients_csv(coeffs, fh)
    _write_csv(out_dir / "regression_details.csv", pipeline.DETAILS_HEADER, detail_rows)
    print(f"wrote {path}")
    return EXIT_OK


def _parse_f0(text: str) -> dict[int, float]:
    """--f0 values keyed by the integer part that tags their output files."""
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("--f0 lists no starting follower count")
    by_tag: dict[int, float] = {}
    for f0 in values:
        if not (math.isfinite(f0) and f0 > 0):
            raise ValueError(f"--f0 value {f0!r} is not finite and positive")
        if int(f0) in by_tag:
            raise ValueError(f"--f0 values {by_tag[int(f0)]!r} and {f0!r} share the file tag {int(f0)}")
        by_tag[int(f0)] = f0
    return by_tag


def _read_coefficients(spec: str) -> ModelCoefficients:
    if spec == "builtin-table1":
        return published_coefficients()
    with open(spec, "rb") as fh:
        return read_coefficients_csv(fh)


def cmd_simulate(args) -> int:
    f0_by_tag = _parse_f0(args.f0)
    coeffs = _read_coefficients(args.coefficients)
    scales = _parse_timescales(args.timescales)
    check_timescales(scales, "simulate")
    missing = [s.value for s in scales if not coeffs.has_timescale(s)]
    if missing:
        raise FatalParseError(f"coefficient table lacks timescale {', '.join(missing)}")
    runs = {  # every pair runs, and so passes its checks, before any file is written
        (scale, f0_tag): simulate(coeffs, scale, f0, float(args.e0), args.steps, args.runs, args.seed)
        for scale in scales
        for f0_tag, f0 in f0_by_tag.items()
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clamp_total = 0
    for (scale, f0_tag), trajectories in runs.items():
        clamp_total += sum(t.clamps.total for t in trajectories)
        tag = f"{scale.value}_{f0_tag}"
        with open(out_dir / f"trajectories_{tag}.csv", "w", newline="") as fh:
            write_trajectories_csv(trajectories, fh)
        with open(out_dir / f"summary_{tag}.csv", "w", newline="") as fh:
            write_summary_csv(summarize_trajectories(trajectories), fh)
        final_f = sum(t.followers[-1] for t in trajectories) / len(trajectories)
        final_e = sum(t.engagement[-1] for t in trajectories) / len(trajectories)
        print(
            f"{scale.value} f0={f0_tag}: mean final followers {final_f:.0f}, "
            f"mean final engagement {final_e:.0f}"
        )
    if clamp_total:
        print(f"parameter clamping events: {clamp_total}", file=sys.stderr)
    return EXIT_OK


def cmd_cohort(args) -> int:
    settings = _options(args)
    if not args.pages:
        raise FatalParseError("cohort requires --pages with newsguard scores")
    dataset, out_dir = _load_dataset(args)
    result = pipeline.cohort(dataset, _warn, **settings)
    match = result.match
    print(f"matched {len(match.pairs)} pairs ({match.method}), total distance {match.total_distance:.4f}")

    labels = ([l.page_id, _format_score(l.score), l.label] for l in result.labels)
    _write_csv(out_dir / "labels.csv", ["page_id", "score", "label"], labels)
    with open(out_dir / "matches.csv", "w", newline="") as fh:
        write_match_csv(match, fh)
    with open(out_dir / "cohort_summary.csv", "w", newline="") as fh:
        write_cohort_summary_csv(
            {q: result.features[q] for q, _ in match.pairs},
            {r: result.features[r] for _, r in match.pairs},
            fh,
        )

    test_rows = []
    for scale, tests in result.tests:
        for metric_name in ("engagement", "engagement_growth"):
            r = tests[metric_name]
            test_rows.append([scale.value, metric_name, format(r.u_statistic, ".10g"),
                              format(r.p_value, ".10g"), r.n1, r.n2, r.method])
            print(f"[{scale.value}] reliable > questionable ({metric_name}): p = {format_p(r.p_value)}")
    header = ["timescale", "metric", "u", "p", "n_reliable", "n_questionable", "method"]
    _write_csv(out_dir / "reliability_tests.csv", header, test_rows)
    return EXIT_OK


def cmd_synth(args) -> int:
    result = synth.generate(synth.GeneratorConfig(**_options(args)), args.seed)
    paths = synth.write_files(result, Path(args.out))
    print(f"wrote {paths['posts']} ({len(result.posts)} posts), "
          f"{paths['pages']} ({len(result.pages)} pages)")
    return EXIT_OK


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):  # numpy takes non-negative integer seeds only
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_settings(p, flags: dict[str, dict]) -> None:
    """Add setting flags without a default; ``_options`` passes on their dests in this order."""
    p.set_defaults(settings=[p.add_argument(flag, default=argparse.SUPPRESS, **kw).dest for flag, kw in flags.items()])


# the settings data commands take; each one's dest is a keyword of the command's pipeline call
_DATA_FLAGS = {
    "--timescales": {},
    "--classes": dict(help="size-class scheme CSV (label,lower,upper)"),
    "--trim": dict(dest="trim_bounds", help="percentile trim bounds"),
    "--trim-rates": dict(action="store_true", help="also trim growth rates inside each bin"),
    "--metric": dict(choices=["engagement", "mean_engagement", "followers"]),
    "--quarter-rule": dict(choices=["latest", "earliest"]),
    "--matching": dict(choices=["assignment", "greedy"]),
}


def _add_data_command(subparsers, name, help_text, func, flags):
    p = subparsers.add_parser(name, help=help_text)
    p.add_argument("--input", help="posts file (.csv or .jsonl)")
    p.add_argument("--pages", help="pages metadata CSV")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, {flag: _DATA_FLAGS[flag] for flag in ("--timescales", *flags)})
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagegrowth",
        description="Growth analysis of social-media page engagement and followers",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    _add_data_command(subparsers, "aggregate", "roll posts into windowed series", cmd_aggregate,
                      ["--quarter-rule"])
    _add_data_command(subparsers, "analyze", "size-class tests, fits, symmetry checks", cmd_analyze,
                      ["--classes", "--trim", "--trim-rates", "--metric", "--quarter-rule"])
    _add_data_command(subparsers, "model", "fit per-bin distributions and regress parameters", cmd_model,
                      ["--trim", "--metric", "--quarter-rule"])

    p = subparsers.add_parser("simulate", help="simulate growth trajectories forward")
    p.add_argument("--coefficients", default="builtin-table1",
                   help="'builtin-table1' or a coefficients CSV path")
    p.add_argument("--timescales", default="W,M,Q")
    p.add_argument("--f0", default=",".join(str(v) for v in DEFAULT_STARTING_FOLLOWERS))
    p.add_argument("--e0", type=float, default=10_000.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    _add_data_command(subparsers, "cohort", "label reliability and build the matched sample", cmd_cohort,
                      ["--matching"])

    # each setting's dest is a GeneratorConfig field
    p = subparsers.add_parser("synth", help="generate synthetic posts/pages files")
    p.add_argument("--out", required=True)
    _add_settings(p, {
        "--pages-count": dict(type=int, dest="n_pages", metavar="PAGES_COUNT"),
        "--start": {}, "--end": {},
        "--posts-per-day": dict(type=float),
        "--model": dict(dest="coefficients", metavar="MODEL",
                        help="'gibrat-null', 'builtin-table1', or a coefficients CSV path"),
        "--questionable-frac": dict(type=float, dest="questionable_fraction", metavar="QUESTIONABLE_FRAC"),
    })
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FatalParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError) as exc:
        # config-level problems (bad flags, malformed schemes, unknown scales)
        if isinstance(exc, (DegenerateSampleError, DegenerateBinningError, CollinearCovariatesError)):
            print(f"numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FitConvergenceError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
