"""Output checks for each workload's commands.

The checks test what the commands must compute, not the bytes they write,
because later changes may legitimately reorder random streams or reformat
numbers. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

from corpus import POSTS_HEADER, TIMESCALES, Corpus

# keyword in a rejection reason -> defect kind, first match wins
REASON_KINDS = (
    ("duplicate", "duplicate_post_id"),
    ("field", "field_count"),
    ("negative", "negative_count"),
    ("mismatch", "sum_mismatch"),
    ("timestamp", "bad_timestamp"),
    ("page", "orphan_page"),
)
SIZE_CLASSES = 4  # default follower classes, all filled by the corpus


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], [r for r in rows[1:] if r]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _guard(check):
    """Turn a missing file or malformed row into a reported problem."""

    @functools.wraps(check)
    def run(*args):
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{check.__name__}: {type(exc).__name__}: {exc}"]

    return run


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

@_guard
def check_rejections(out: Path, corpus: Corpus) -> list[str]:
    header, rows = _read(out / "rejections.csv")
    if header != ["source", "line", "reason"]:
        return [f"rejections.csv header {header}"]
    found = {kind: 0 for kind in corpus.defects}
    unknown = []
    for row in rows:
        reason = row[2].lower()
        kind = next((k for word, k in REASON_KINDS if word in reason), None)
        if kind is None:
            unknown.append(row[2])
        else:
            found[kind] += 1
    problems = [f"unexpected rejection reason {r!r}" for r in unknown[:3]]
    if found != corpus.defects:
        problems.append(f"rejections by kind {found}, injected {corpus.defects}")
    return problems


@_guard
def check_series(out: Path, corpus: Corpus) -> list[str]:
    problems = []
    for scale in TIMESCALES:
        _, rows = _read(out / f"series_{scale}.csv")
        got = {(r[0], r[2]): (int(r[3]), int(r[5])) for r in rows if r[1] == scale}
        if len(got) != len(rows):
            problems.append(f"series_{scale}.csv: {len(rows) - len(got)} foreign or repeated rows")
        want = corpus.expected_series[scale]
        windows_got, windows_want = _windows_per_page(got), _windows_per_page(want)
        if windows_got != windows_want:
            problems.append(f"series_{scale}.csv: window counts per page differ from the input")
        bad = [key for key in want if got.get(key) != want[key]]
        if bad:
            problems.append(
                f"series_{scale}.csv: {len(bad)} windows differ in engagement or post count, "
                f"first {bad[0]}: {got.get(bad[0])} != {want[bad[0]]}"
            )
    return problems


def _windows_per_page(series: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for page_id, _ in series:
        counts[page_id] = counts.get(page_id, 0) + 1
    return counts


@_guard
def check_analysis(out: Path) -> list[str]:
    problems = []
    _, rows = _read(out / "matrices.csv")
    groups: dict[tuple[str, str, str], list[list[str]]] = {}
    for row in rows:
        groups.setdefault((row[0], row[1], row[2]), []).append(row)
    expected_groups = {}
    for scale in TIMESCALES:
        for metric in ("engagement", "mean_engagement", "followers"):
            expected_groups[(metric, "followers_class", scale)] = SIZE_CLASSES
        expected_groups[("engagement", "followers_median_split", scale)] = 2 * SIZE_CLASSES
        expected_groups[("engagement", "engagement_quartile", scale)] = 4
    if set(groups) != set(expected_groups):
        problems.append(f"matrices.csv groups {sorted(set(groups) ^ set(expected_groups))} unexpected or missing")
    for key, bins in expected_groups.items():
        cells = groups.get(key, [])
        if len(cells) != bins * (bins - 1):  # each unordered pair, two alternatives
            problems.append(f"matrices.csv {key}: {len(cells)} cells, expected {bins * (bins - 1)}")
        if any(not (_finite(c[6]) and _finite(c[7]) and 0.0 <= float(c[7]) <= 1.0) for c in cells):
            problems.append(f"matrices.csv {key}: a cell has no finite U or p in [0,1]")

    _, rows = _read(out / "fits.csv")
    fits = {(r[0], r[1], r[2], r[3]): r[4] for r in rows}
    for scale in TIMESCALES:
        for dist, params in (("laplace", ("mu", "b")), ("burr", ("c", "k"))):
            for param in params:
                if ("all", scale, dist, param) not in fits:
                    problems.append(f"fits.csv lacks the pooled {dist} {param} at {scale}")
    for key, value in fits.items():
        positive = key[3] != "mu"
        if not _finite(value) or (positive and float(value) <= 0):
            problems.append(f"fits.csv {key} = {value!r}")
    for scale in TIMESCALES:
        if not (out / f"growth_samples_{scale}.csv").exists():
            problems.append(f"growth_samples_{scale}.csv missing")
    _, rows = _read(out / "detailed_balance.csv")
    if sorted(r[1] for r in rows) != sorted(TIMESCALES) or not all(_finite(r[4]) for r in rows):
        problems.append("detailed_balance.csv lacks a finite p per timescale")
    return problems


@_guard
def check_coefficients(out: Path, scales) -> list[str]:
    """Every Laplace and Burr parameter is regressed at each of ``scales``."""
    header, rows = _read(out / "coefficients.csv")
    if header != ["parameter", "timescale", "beta0", "beta1", "beta2"]:
        return [f"coefficients.csv header {header}"]
    problems = []
    present = {(r[0], r[1]) for r in rows}
    missing = {(p, s) for p in ("mu", "b", "c", "k") for s in scales} - present
    if missing:
        problems.append(f"coefficients.csv lacks {sorted(missing)}")
    for r in rows:
        two_covariates = r[0] in ("mu", "b")
        values = r[2:5] if two_covariates else r[2:4]
        if not all(_finite(v) for v in values):
            problems.append(f"coefficients.csv row {r} is not finite")
    return problems


@_guard
def check_matches(out: Path, corpus: Corpus) -> list[str]:
    _, rows = _read(out / "matches.csv")
    questionable = [r[0] for r in rows]
    reliable = [r[1] for r in rows]
    problems = []
    if set(questionable) != corpus.questionable_eligible or len(questionable) != len(set(questionable)):
        problems.append(
            f"matches.csv pairs {sorted(questionable)}, eligible {sorted(corpus.questionable_eligible)}"
        )
    if len(set(reliable)) != len(reliable) or not set(reliable) <= corpus.reliable_eligible:
        problems.append("matches.csv reuses a reliable page or pairs an ineligible one")
    if not all(_finite(r[2]) and float(r[2]) >= 0 for r in rows):
        problems.append("matches.csv has a negative or non-finite distance")
    return problems


def check_export(command: str, out: Path, corpus: Corpus, coefficient_scales) -> list[str]:
    problems = check_rejections(out, corpus)
    if command == "aggregate":
        problems += check_series(out, corpus)
    elif command == "analyze":
        problems += check_analysis(out)
    elif command == "model":
        problems += check_coefficients(out, coefficient_scales)
    elif command == "cohort":
        problems += check_matches(out, corpus)
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@_guard
def check_simulate(out: Path, scales, f0_values, e0: float, runs: int, steps: int) -> list[str]:
    problems = []
    for scale in scales:
        for f0 in f0_values:
            tag = f"{scale}_{int(f0)}"
            header, rows = _read(out / f"trajectories_{tag}.csv")
            if header != ["run", "step", "followers", "engagement"]:
                problems.append(f"trajectories_{tag}.csv header {header}")
                continue
            if len(rows) != runs * (steps + 1):
                problems.append(f"trajectories_{tag}.csv has {len(rows)} rows, expected {runs * (steps + 1)}")
            values = [(float(r[2]), float(r[3])) for r in rows]
            if not all(0 < f < math.inf and 0 < e < math.inf for f, e in values):
                problems.append(f"trajectories_{tag}.csv has a non-positive or non-finite state")
            starts = {(float(r[2]), float(r[3])) for r in rows if r[1] == "0"}
            if starts != {(float(f0), e0)}:
                problems.append(f"trajectories_{tag}.csv step 0 is {sorted(starts)[:2]}, not ({f0}, {e0})")
            _, summary = _read(out / f"summary_{tag}.csv")
            if len(summary) != steps + 1:
                problems.append(f"summary_{tag}.csv has {len(summary)} rows, expected {steps + 1}")
    return problems


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

REPORTED_POSTS = re.compile(r"\((\d+) posts\)")


@_guard
def check_synth(out: Path, stdout: str, pages: int, start: str, end: str) -> list[str]:
    problems = []
    header, rows = _read(out / "posts.csv")
    if header != POSTS_HEADER:
        problems.append(f"posts.csv header {header}")
    match = REPORTED_POSTS.search(stdout)
    if match is None:
        problems.append("synth did not report its post count")
    elif int(match.group(1)) != len(rows):
        problems.append(f"posts.csv has {len(rows)} rows, synth reported {match.group(1)}")
    # synth writes whole ISO weeks: from the Monday of start's week up to
    # the end of the week holding the last day before end
    first, last = date.fromisoformat(start), date.fromisoformat(end) - timedelta(days=1)
    lo = datetime.combine(first - timedelta(days=first.weekday()), time(), timezone.utc)
    hi = datetime.combine(last + timedelta(days=7 - last.weekday()), time(), timezone.utc)
    bad_sum = bad_time = 0
    for r in rows:
        if int(r[3]) + int(r[4]) + int(r[5]) != int(r[6]):
            bad_sum += 1
        stamp = r[2][:-1] + "+00:00" if r[2].endswith("Z") else r[2]
        if not lo <= datetime.fromisoformat(stamp) < hi:
            bad_time += 1
    if bad_sum:
        problems.append(f"posts.csv: {bad_sum} rows whose components do not sum to the total")
    if bad_time:
        problems.append(f"posts.csv: {bad_time} timestamps outside the weeks of [{start}, {end})")
    _, page_rows = _read(out / "pages.csv")
    if len(page_rows) != pages:
        problems.append(f"pages.csv has {len(page_rows)} pages, expected {pages}")
    return problems
