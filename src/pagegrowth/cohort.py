"""Reliability labels and matched sampling of the comparison cohort.

Pages with a trust score of at least 60 are labeled reliable, the rest
questionable; unscored pages are excluded and reported. The matched
reliable sample minimizes the total Euclidean distance to the
questionable cohort in standardized (max followers, lifespan) space,
solved as an exact rectangular assignment problem, on features read from
one windows table. A greedy nearest-neighbour variant is available for
comparison. Both pick cells of one distance matrix and report each chosen
pair's distance. The comparison tests take two sub-tables of windows and
ask whether the matched reliable pages out-engage the questionable ones.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .aggregate import AggregatedSeries
from .growth import pooled_growth_samples
from .ingest import ABSENT, PageMeta, _Record, _write_table
from .stats import DegenerateSampleError, TestResult, mann_whitney

RELIABLE_THRESHOLD = 60.0


class MatchInfeasibleError(ValueError):
    """Reliable pool smaller than the questionable cohort."""


class ReliabilityLabel(_Record, frozen=True):
    page_id: str
    score: float
    label: str  # "reliable" | "questionable"

    def __post_init__(self):
        expected = "reliable" if self.score >= RELIABLE_THRESHOLD else "questionable"
        if self.label != expected:
            raise ValueError(f"label {self.label!r} inconsistent with score {self.score}")


class MatchResult(_Record, frozen=True):
    """One-to-one pairing of each questionable page with a reliable page."""

    pairs: list[tuple[str, str]]  # (questionable_id, reliable_id), sorted
    distances: list[float]  # each pair's distance in standardized feature space
    total_distance: float
    method: str  # "assignment" | "greedy"


def label_pages(pages: dict[str, PageMeta]) -> tuple[list[ReliabilityLabel], list[str]]:
    """Threshold-60 labels for scored pages; unscored ids returned separately."""
    labels: list[ReliabilityLabel] = []
    unscored: list[str] = []
    for page_id in sorted(pages):
        meta = pages[page_id]
        if meta.newsguard_score is None:
            unscored.append(page_id)
            continue
        label = "reliable" if meta.newsguard_score >= RELIABLE_THRESHOLD else "questionable"
        labels.append(ReliabilityLabel(page_id=page_id, score=meta.newsguard_score, label=label))
    return labels, unscored


def page_features(
    pages: dict[str, PageMeta], series: AggregatedSeries, end_date: date
) -> dict[str, tuple[float, float]]:
    """Raw matching features of each page of the windows table: (max observed followers, lifespan in days).

    A page that never carries a follower observation is left out; such
    pages cannot participate in matching.
    """
    ids, known = series.page_ids, series.followers != ABSENT
    page = series.page[known]
    most = np.full(len(ids), np.iinfo(np.int64).min)  # every observed value counts, even 0
    np.maximum.at(most, page, series.followers[known])
    seen = np.flatnonzero(np.bincount(page, minlength=len(ids))).tolist()
    return {ids[c]: (float(most[c]), float((end_date - pages[ids[c]].created_at).days)) for c in seen}


def standardize_features(
    features: dict[str, tuple[float, float]],
) -> dict[str, np.ndarray]:
    """Z-score each feature over the pooled cohort.

    Followers (~1e5) and lifespan days (~1e3) live on incommensurate
    scales; standardization keeps the Euclidean distance from being
    dominated by the larger one.
    """
    if not features:
        return {}
    ids = sorted(features)
    mat = np.array([features[i] for i in ids], dtype=float)
    mean = mat.mean(axis=0)
    sd = mat.std(axis=0, ddof=0)
    sd[sd == 0.0] = 1.0  # constant feature: center only
    standardized = (mat - mean) / sd
    return {i: standardized[j] for j, i in enumerate(ids)}


def _distance_matrix(
    questionable: dict[str, np.ndarray], pool: dict[str, np.ndarray], who: str
) -> tuple[list[str], list[str], np.ndarray]:
    """Sorted questionable and pool ids, and the Euclidean distance of every
    questionable page (row) to every pool page (column)."""
    if len(pool) < len(questionable):
        raise MatchInfeasibleError(
            f"reliable pool ({len(pool)}) smaller than questionable "
            f"cohort ({len(questionable)})"
        )
    if not questionable:
        raise ValueError(f"{who}: empty questionable cohort")
    q_ids = sorted(questionable)
    r_ids = sorted(pool)
    q = np.array([questionable[i] for i in q_ids], dtype=float)
    r = np.array([pool[i] for i in r_ids], dtype=float)
    diff = q[:, None, :] - r[None, :, :]
    return q_ids, r_ids, np.sqrt(np.sum(diff * diff, axis=2))


def _match_result(q_ids, r_ids, dist: np.ndarray, rows, cols, method: str) -> MatchResult:
    """The cells (rows[n], cols[n]) of ``dist`` that a matcher chose. Rows
    ascend, so the pairs come sorted by questionable id."""
    chosen = dist[rows, cols]
    return MatchResult(
        pairs=[(q_ids[i], r_ids[j]) for i, j in zip(rows, cols)],
        distances=chosen.tolist(),
        total_distance=float(chosen.sum()),
        method=method,
    )


def match_cohorts(
    questionable: dict[str, np.ndarray], reliable_pool: dict[str, np.ndarray]
) -> MatchResult:
    """Minimum-total-distance one-to-one assignment, solved exactly.

    Every questionable page is paired with a distinct page from the
    reliable pool; the summed Euclidean distance is globally minimal
    over all such pairings.
    """
    q_ids, r_ids, dist = _distance_matrix(questionable, reliable_pool, "match_cohorts")
    return _match_result(q_ids, r_ids, dist, *_assign(dist), "assignment")


def _assign(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of every row to a distinct column, rows <= columns.

    Shortest augmenting paths with dual variables (Crouse 2016), one row at
    a time. The same (rows, cols) as ``scipy.optimize.linear_sum_assignment``,
    ties included: columns are scanned in reverse, the lowest reduced cost
    goes to the last free column that has it (else the first column that
    has it), and a scanned column is swapped out of the scan list.
    """
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = cost.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    path = np.full(nc, -1)
    col4row = np.full(nr, -1)
    row4col = np.full(nc, -1)
    for cur_row in range(nr):
        spc = np.full(nc, np.inf)  # shortest path cost to each column
        in_sr = np.zeros(nr, dtype=bool)
        in_sc = np.zeros(nc, dtype=bool)
        remaining = np.arange(nc - 1, -1, -1)
        num_remaining = nc
        min_val = 0.0
        i = cur_row
        while True:
            in_sr[i] = True
            rem = remaining[:num_remaining]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            shorter = r < spc[rem]
            path[rem[shorter]] = i
            spc[rem[shorter]] = r[shorter]
            reduced = spc[rem]
            min_val = reduced.min()
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            lowest = np.flatnonzero(reduced == min_val)
            free = lowest[row4col[rem[lowest]] == -1]
            index = free[-1] if free.size else lowest[0]
            j = remaining[index]
            in_sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]
            if row4col[j] == -1:
                break
            i = row4col[j]
        # dual update, then flip the path from the sink back to cur_row
        u[cur_row] += min_val
        others = np.flatnonzero(in_sr)
        others = others[others != cur_row]
        u[others] += min_val - spc[col4row[others]]
        v[in_sc] -= min_val - spc[in_sc]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return np.arange(nr), col4row


def greedy_match(
    questionable: dict[str, np.ndarray], reliable_pool: dict[str, np.ndarray]
) -> MatchResult:
    """Greedy alternative: each questionable page takes the nearest unused
    reliable page, in questionable-id order. Kept for comparison with the
    exact assignment; its total distance is never smaller."""
    q_ids, r_ids, dist = _distance_matrix(questionable, reliable_pool, "greedy_match")
    used: set[int] = set()
    cols = []
    for row in dist:
        j = next(int(col) for col in np.argsort(row) if int(col) not in used)
        used.add(j)
        cols.append(j)
    return _match_result(q_ids, r_ids, dist, np.arange(len(q_ids)), cols, "greedy")


def reliability_comparison(questionable: AggregatedSeries, reliable: AggregatedSeries) -> dict[str, TestResult]:
    """One-sided tests that reliable pages exceed questionable ones.

    Both arguments are sub-tables of windows at a common timescale. Tested
    metrics: absolute window engagement, and window-to-window log
    engagement growth.
    """
    if not len(questionable) or not len(reliable):
        raise DegenerateSampleError("reliability_comparison: empty cohort")
    r_growth, q_growth = (pooled_growth_samples(s, "engagement")[0].log_growth for s in (reliable, questionable))
    return {
        "engagement": mann_whitney(reliable.engagement, questionable.engagement, alternative="greater"),
        "engagement_growth": mann_whitney(r_growth, q_growth, alternative="greater"),
    }


MATCH_HEADER = ["questionable_id", "reliable_id", "distance"]


def write_match_csv(result: MatchResult, stream) -> None:
    """Each pair with the distance the matcher minimized."""
    rows = [[q_id, r_id, format(d, ".12g")] for (q_id, r_id), d in zip(result.pairs, result.distances)]
    _write_table(stream, MATCH_HEADER, rows)


COHORT_SUMMARY_HEADER = [
    "cohort",
    "pages",
    "mean_max_followers",
    "mean_lifespan_days",
]


def write_cohort_summary_csv(
    questionable_raw: dict[str, tuple[float, float]],
    matched_raw: dict[str, tuple[float, float]],
    stream,
) -> None:
    """Counts and raw feature means per cohort (the matching scatter data)."""
    rows = []
    for name, feats in (("questionable", questionable_raw), ("reliable_matched", matched_raw)):
        mat = np.array(list(feats.values()), dtype=float)
        means = [format(float(mat[:, j].mean()), ".12g") for j in (0, 1)] if feats else ["", ""]
        rows.append([name, len(feats), *means])
    _write_table(stream, COHORT_SUMMARY_HEADER, rows)
