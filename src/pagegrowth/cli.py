"""Command-line front end: aggregate, analyze, model, simulate, cohort, synth.

Each command maps its flags onto a library call (all but ``synth`` onto
``pipeline``), writes the files and prints the console report. Only
``synth`` and ``simulate`` draw random numbers, from their --seed flag;
identical inputs and seed produce byte-identical outputs. Exit codes: 0
success, 2 input/config error, 3 numerical failure. Displayed p-values
floor at "<0.0001"; machine-readable CSVs keep full precision.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

# Commands run with one OpenBLAS thread, set before the first import below
# loads numpy. The worker pool numpy's OpenBLAS otherwise starts at load took
# about 70 ms of a command's 0.15-0.21 s start-up (two threads, x86-64), and no
# command uses it: the only BLAS calls are model's least-squares fits on at
# most 20x3 matrices. A value the user set wins, and importing the library
# without this module leaves the environment as it is.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import pipeline, rules, synth
from .aggregate import Timescale, write_series_csv
from .cohort import write_cohort_summary_csv, write_match_csv
from .growth import _check_trim_bounds, write_growth_samples_csv
from .ingest import Dataset, FatalParseError, NumericalError, _format_score, _write_table
from .model import (
    ModelCoefficients,
    check_timescales,
    published_coefficients,
    read_coefficients_csv,
    summarize_trajectories,
    write_coefficients_csv,
    write_summary_csv,
    write_trajectories_csv,
)
from .stats import MatrixCell, format_p

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# the results tables' headers
MATRIX_HEADER = ["metric", "size_by", "timescale", "row_class", "col_class", "alternative", "u", "p", "method"]
FITS_HEADER = ["cohort", "timescale", "distribution", "param", "value"]
BALANCE_HEADER = ["metric", "timescale", "n", "u", "p"]
DETAILS_HEADER = ["parameter", "timescale", "beta0", "beta1", "beta2", "p0", "p1", "p2", "r_squared", "n_bins"]
RELIABILITY_HEADER = ["timescale", "metric", "u", "p", "n_reliable", "n_questionable", "method"]


def _g(value: float) -> str:
    """A statistic as the results tables write it: ten significant digits."""
    return format(value, ".10g")


def _parse_timescales(text: str) -> tuple[Timescale, ...]:
    scales = [Timescale.parse(part) for part in text.split(",") if part.strip()]
    if not scales:
        raise ValueError("empty timescale list")
    return tuple(dict.fromkeys(scales))


def _flag(rule):
    """An argparse type reading a flag by ``rules.integer`` or ``rules.number``."""
    must = "a non-negative integer" if rule is rules.integer else "a number"

    def read(text: str):
        try:
            return rule(text, "")
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {must}, got {text!r}") from None

    return read


def _list_number(text: str, flag: str) -> float:
    """One number of a comma-separated flag, read after parsing, so the refusal names the flag itself."""
    try:
        return rules.number(text, flag)
    except ValueError:
        raise ValueError(f"{flag} must be a number, got {text!r}") from None


def _parse_trim(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"trim bounds must look like '5,95', got {text!r}")
    lo, hi = (_list_number(part, "--trim") for part in parts)
    _check_trim_bounds(lo, hi)
    return lo, hi


def _parse_f0(text: str) -> tuple[float, ...]:
    """--f0 values, no two sharing the integer part that tags their output files."""
    values = [_list_number(v.strip(), "--f0") for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("--f0 lists no starting follower count")
    by_tag: dict[int, float] = {}
    for f0 in values:
        if not (math.isfinite(f0) and f0 > 0):
            raise ValueError(f"--f0 value {f0!r} is not finite and positive")
        if int(f0) in by_tag:
            raise ValueError(f"--f0 values {by_tag[int(f0)]!r} and {f0!r} share the file tag {int(f0)}")
        by_tag[int(f0)] = f0
    return tuple(by_tag.values())


_TABLES = {"gibrat-null": synth.gibrat_null_coefficients, "builtin-table1": published_coefficients}
_CHECKS = {
    "timescales": _parse_timescales, "classes": pipeline.load_classes, "trim_bounds": _parse_trim, "f0": _parse_f0,
    "start": lambda text: rules.date(text, "--start"), "end": lambda text: rules.date(text, "--end"),
    "coefficients": lambda spec: _TABLES[spec]() if spec in _TABLES else read_coefficients_csv(Path(spec).read_bytes()),
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
    for series in pipeline.aggregate(dataset, **settings):
        path = out_dir / f"series_{series.timescale.value}.csv"
        with open(path, "w", newline="") as fh:
            write_series_csv(series, fh)
        print(f"{series.timescale.value}: {len(series.page_ids)} pages, {len(series)} windows -> {path}")
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


def _cell_values(cell: MatrixCell) -> list[str]:
    """A test cell's u, p and method, or its refusal in the method column."""
    r = cell.result
    return ["", "", f"error: {cell.error}"] if r is None else [_g(r.u_statistic), _g(r.p_value), r.method]


def cmd_analyze(args) -> int:
    settings = _options(args)
    dataset, out_dir = _load_dataset(args)
    matrix_rows, fit_rows, balance_rows = [], [], []
    for result in pipeline.analyze(dataset, _warn, **settings):
        scale = result.scale.value
        with open(out_dir / f"growth_samples_{scale}.csv", "w", newline="") as fh:
            write_growth_samples_csv(result.samples, fh)
        for block in result.matrices:
            matrix_rows += ([block.metric, block.size_by, scale, c.row, c.col, c.alternative, *_cell_values(c)]
                            for c in block.cells)
            if block.size_by != "followers_median_split":
                _print_matrix(block, result.scale)
        # LaplaceParams -> "laplace", BurrParams -> "burr"; one row per parameter
        fit_rows += ([cohort, scale, type(fit).__name__.removesuffix("Params").lower(), name, _g(value)]
                     for cohort, fit in result.fits for name, value in zip(fit._fields, fit._values()))
        if result.balance is not None:
            b, metric = result.balance, result.samples.metric
            balance_rows.append([metric, scale, b.n1, _g(b.u_statistic), _g(b.p_value)])
            print(f"\n[detailed balance | {scale}] p = {format_p(b.p_value)}")
    _write_csv(out_dir / "matrices.csv", MATRIX_HEADER, matrix_rows)
    _write_csv(out_dir / "fits.csv", FITS_HEADER, fit_rows)
    _write_csv(out_dir / "detailed_balance.csv", BALANCE_HEADER, balance_rows)
    print(f"\nwrote {out_dir / 'matrices.csv'}")
    return EXIT_OK


def cmd_model(args) -> int:
    settings = _options(args)
    check_timescales(settings.get("timescales", ()), "model")
    dataset, out_dir = _load_dataset(args)
    coeffs = ModelCoefficients()
    detail_rows = []
    for result in pipeline.model(dataset, _warn, **settings):
        for reg, n_bins in result.regressions:
            coeffs.add(reg)
            # p-values and r_squared to six digits; a Burr regression has no beta2 and two p-values
            ps = [format(p, ".6g") for p in reg.p_values] + [""] * (3 - len(reg.p_values))
            r2 = "" if reg.r_squared is None else format(reg.r_squared, ".6g")
            beta2 = "" if reg.beta2 is None else _g(reg.beta2)
            detail_rows.append([reg.parameter, reg.timescale.value, _g(reg.beta0), _g(reg.beta1), beta2, *ps, r2,
                                n_bins])
    path = out_dir / "coefficients.csv"
    with open(path, "w", newline="") as fh:
        write_coefficients_csv(coeffs, fh)
    _write_csv(out_dir / "regression_details.csv", DETAILS_HEADER, detail_rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    runs = pipeline.simulate(**_options(args))  # every pair runs, and so passes its checks, before any write
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clamp_total = 0
    for (scale, f0), table in runs.items():
        clamp_total += int(table.floored.sum())
        tag = f"{scale.value}_{int(f0)}"
        with open(out_dir / f"trajectories_{tag}.csv", "w", newline="") as fh:
            write_trajectories_csv(table, fh)
        with open(out_dir / f"summary_{tag}.csv", "w", newline="") as fh:
            write_summary_csv(summarize_trajectories(table), fh)
        # left to right over the numpy floats, on every Python: sum() of a list of floats is compensated from 3.12 on
        final_f, final_e = (sum(a[:, -1]) / len(table) for a in (table.followers, table.engagement))
        print(
            f"{scale.value} f0={int(f0)}: mean final followers {final_f:.0f}, "
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
            test_rows.append([scale.value, metric_name, _g(r.u_statistic), _g(r.p_value), r.n1, r.n2, r.method])
            print(f"[{scale.value}] reliable > questionable ({metric_name}): p = {format_p(r.p_value)}")
    _write_csv(out_dir / "reliability_tests.csv", RELIABILITY_HEADER, test_rows)
    return EXIT_OK


def cmd_synth(args) -> int:
    result = synth.generate(synth.GeneratorConfig(**_options(args)), args.seed)
    paths = synth.write_files(result, Path(args.out))
    print(f"wrote {paths['posts']} ({len(result.posts)} posts), "
          f"{paths['pages']} ({len(result.pages)} pages)")
    return EXIT_OK


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

    # each setting's dest is a keyword of pipeline.simulate
    p = subparsers.add_parser("simulate", help="simulate growth trajectories forward")
    _add_settings(p, {
        "--f0": {}, "--coefficients": dict(help="'builtin-table1', 'gibrat-null', or a coefficients CSV path"),
        "--timescales": {}, "--e0": dict(type=_flag(rules.number)), "--steps": dict(type=_flag(rules.integer)),
        "--runs": dict(type=_flag(rules.integer)), "--seed": dict(type=_flag(rules.integer)),
    })
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    _add_data_command(subparsers, "cohort", "label reliability and build the matched sample", cmd_cohort,
                      ["--matching"])

    # each setting's dest is a GeneratorConfig field
    p = subparsers.add_parser("synth", help="generate synthetic posts/pages files")
    p.add_argument("--out", required=True)
    _add_settings(p, {
        "--pages-count": dict(type=_flag(rules.integer), dest="n_pages", metavar="PAGES_COUNT"),
        "--start": {}, "--end": {},
        "--posts-per-day": dict(type=_flag(rules.number)),
        "--model": dict(dest="coefficients", metavar="MODEL",
                        help="'gibrat-null', 'builtin-table1', or a coefficients CSV path"),
        "--questionable-frac": dict(type=_flag(rules.number), dest="questionable_fraction",
                                    metavar="QUESTIONABLE_FRAC"),
    })
    p.add_argument("--seed", type=_flag(rules.integer), default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # MemoryError: a size no host can allocate; ValueError, KeyError: bad flags, malformed schemes, unknown scales
    except (FatalParseError, OSError, MemoryError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
