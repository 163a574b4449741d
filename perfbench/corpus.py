"""Seeded posts/pages export for the ``export`` workload, with known defects.

Built from numpy and the standard library only, never from the program
under test, so the parent and the change of a comparison read the same
bytes for a seed (their sha256 goes into the run record). Besides valid
posts the export carries every input property the ingest and aggregation
code branches on:

* rejected rows, a fixed number of each ``DEFECT_KINDS`` reason;
* rows giving only ``total_interactions`` and rows giving only components;
* posts without ``followers_at_posting``, and one questionable page whose
  posts never carry a follower count (not eligible for matching);
* timestamps with non-UTC offsets;
* unscored pages, and page names that need CSV quoting.

The generator also keeps its own ground truth: per page and timescale the
engagement sum and post count of every calendar window, computed from the
UTC instants it drew, never from the program's parse.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POSTS_HEADER = [
    "page_id",
    "post_id",
    "timestamp",
    "likes",
    "comments",
    "shares",
    "total_interactions",
    "followers_at_posting",
]
PAGES_HEADER = ["page_id", "name", "created_at", "newsguard_score", "language"]

DEFECT_KINDS = (
    "bad_timestamp",
    "sum_mismatch",
    "duplicate_post_id",
    "negative_count",
    "field_count",
    "orphan_page",
)
DEFECTS_PER_KIND = 4
BAD_TIMESTAMPS = (
    "2018-02-30T10:00:00Z",
    "2018-13-01T00:00:00+00:00",
    "2018-05-01T10:00:00",
    "yesterday",
)
# (minutes east of UTC, suffix); most rows are plain UTC
OFFSETS = ((0, "Z"), (0, "+00:00"), (120, "+02:00"), (-300, "-05:00"), (330, "+05:30"), (-480, "-08:00"))
OFFSET_WEIGHTS = (0.6, 0.08, 0.08, 0.08, 0.08, 0.08)
LANGUAGES = ("en", "fr", "de", "it")
DAY_S = 86_400
TIMESCALES = ("D", "W", "M", "Q")
POSTS_PER_DAY = 1.5  # per page
QUESTIONABLE_FRACTION = 0.2  # of scored pages
UNSCORED_PAGES = 2
FOLLOWERS_RANGE = (12_000.0, 4_000_000.0)  # starting size, log-uniform


@dataclass(frozen=True)
class CorpusSpec:
    n_pages: int
    start: str  # inclusive UTC date
    end: str  # exclusive UTC date


@dataclass
class Corpus:
    posts_path: Path
    pages_path: Path
    sha256: dict[str, str]
    rows: int  # data rows in the posts file, defects included
    defects: dict[str, int]  # reason kind -> rows injected
    # timescale -> {(page_id, window_start): (engagement, post_count)}
    expected_series: dict[str, dict[tuple[str, str], tuple[int, int]]]
    questionable_eligible: set[str]  # questionable pages with a follower count
    reliable_eligible: set[str]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def window_starts(seconds: np.ndarray, timescale: str) -> np.ndarray:
    """Start day (days since 1970-01-01) of the UTC calendar window of each instant."""
    day = seconds // DAY_S
    if timescale == "D":
        return day
    if timescale == "W":
        return day - (day + 3) % 7  # 1970-01-01 was a Thursday; ISO weeks start Monday
    month = day.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    if timescale == "Q":
        month = month - month % 3
    return month.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)


def _iso_seconds(seconds: np.ndarray) -> np.ndarray:
    return np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")


def _blank_or(values: np.ndarray, blank: np.ndarray) -> list[str]:
    return ["" if b else str(v) for v, b in zip(values.tolist(), blank.tolist())]


def generate(spec: CorpusSpec, seed: int, out_dir: Path) -> Corpus:
    """Write posts.csv and pages.csv under out_dir and return their ground truth."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x706167)))
    out_dir.mkdir(parents=True, exist_ok=True)
    start_day = int(np.datetime64(spec.start, "D").astype(np.int64))
    n_days = int(np.datetime64(spec.end, "D").astype(np.int64)) - start_day
    n_pages = spec.n_pages
    page_ids = [f"pg-{i:04d}" for i in range(n_pages)]

    # --- pages: stratified log-uniform size so every default size class fills
    order = rng.permutation(n_pages)
    n_unscored = UNSCORED_PAGES
    n_questionable = max(1, round(QUESTIONABLE_FRACTION * (n_pages - n_unscored)))
    unscored = set(order[:n_unscored].tolist())
    questionable = sorted(order[n_unscored : n_unscored + n_questionable].tolist())
    no_followers = questionable[0]
    scores: list[str] = []
    for i in range(n_pages):
        if i in unscored:
            scores.append("")
        elif i in questionable:
            scores.append(f"{rng.uniform(5.0, 59.9):.1f}")
        else:
            scores.append(f"{rng.uniform(60.0, 100.0):.1f}")
    created = start_day - rng.integers(30, 3000, size=n_pages)
    lo_f, hi_f = np.log(FOLLOWERS_RANGE)
    strata = (rng.permutation(n_pages) + rng.random(n_pages)) / n_pages
    log_f0 = lo_f + strata * (hi_f - lo_f)

    # --- daily follower and engagement levels, multiplicative random walks
    log_f = log_f0[:, None] + np.cumsum(rng.normal(0.0008, 0.006, size=(n_pages, n_days)), axis=1)
    log_e = (
        np.log(0.5) + 0.6 * log_f
        + np.cumsum(rng.normal(0.0, 0.05, size=(n_pages, n_days)), axis=1)
    )

    # --- posts: a fixed count per page, so every seed gives the same row count
    per_page = int(round(POSTS_PER_DAY * n_days))
    page = np.repeat(np.arange(n_pages), per_page)
    secs = start_day * DAY_S + rng.integers(0, n_days * DAY_S, size=page.size)
    time_order = np.lexsort((page, secs))
    page, secs = page[time_order], secs[time_order]
    n = page.size
    day = secs // DAY_S - start_day
    followers = np.rint(np.exp(log_f[page, day])).astype(np.int64)
    totals = np.floor(np.exp(log_e[page, day] + rng.normal(0.0, 0.7, size=n))).astype(np.int64)
    parts = rng.multinomial(totals, [0.7, 0.1, 0.2])
    seq = np.zeros(n, dtype=np.int64)
    for p in range(n_pages):
        mask = page == p
        seq[mask] = np.arange(int(mask.sum()))
    post_ids = [f"{page_ids[p]}-{k:06d}" for p, k in zip(page.tolist(), seq.tolist())]

    variant = rng.random(n)
    total_only = variant < 0.05
    components_only = (variant >= 0.05) & (variant < 0.07)
    no_follower_row = (rng.random(n) < 0.05) | (page == no_followers)
    offset_choice = rng.choice(len(OFFSETS), size=n, p=OFFSET_WEIGHTS)
    offset_min = np.array([o[0] for o in OFFSETS])[offset_choice]
    suffix = np.array([o[1] for o in OFFSETS])[offset_choice]
    stamps = np.char.add(_iso_seconds(secs + offset_min * 60), suffix)

    likes = _blank_or(parts[:, 0], total_only)
    comments = _blank_or(parts[:, 1], total_only)
    shares = _blank_or(parts[:, 2], total_only)
    total_col = _blank_or(totals, components_only)
    follower_col = _blank_or(followers, no_follower_row)
    valid_rows = [
        [page_ids[p], pid, ts, lk, cm, sh, tt, fo]
        for p, pid, ts, lk, cm, sh, tt, fo in zip(
            page.tolist(), post_ids, stamps.tolist(), likes, comments, shares, total_col, follower_col
        )
    ]

    # --- defects, each rejected for exactly one reason
    inserts: list[tuple[int, list[str]]] = []
    fresh = 0

    def fresh_row() -> list[str]:
        nonlocal fresh
        fresh += 1
        p = int(rng.integers(n_pages))
        t = int(start_day * DAY_S + rng.integers(0, n_days * DAY_S))
        a, b, c = (int(v) for v in rng.integers(0, 500, size=3))
        stamp = str(_iso_seconds(np.array([t]))[0]) + "Z"
        return [page_ids[p], f"x-{fresh:05d}", stamp, str(a), str(b), str(c), str(a + b + c), "50000"]

    originals = rng.choice(n // 2, size=DEFECTS_PER_KIND, replace=False)
    for j in range(DEFECTS_PER_KIND):
        row = fresh_row()
        row[2] = BAD_TIMESTAMPS[j % len(BAD_TIMESTAMPS)]
        inserts.append((int(rng.integers(n + 1)), row))
        row = fresh_row()
        row[6] = str(int(row[6]) + 1 + j)
        inserts.append((int(rng.integers(n + 1)), row))
        orig = int(originals[j])
        dup = list(valid_rows[orig])
        dup[6], dup[3], dup[4], dup[5] = "7", "", "", ""
        inserts.append((int(rng.integers(orig + 1, n + 1)), dup))
        row = fresh_row()
        row[4] = "-3"
        inserts.append((int(rng.integers(n + 1)), row))
        row = fresh_row()
        inserts.append((int(rng.integers(n + 1)), row[:-1] if j % 2 else row + ["extra"]))
        row = fresh_row()
        row[0] = f"ghost-{j:02d}"
        inserts.append((int(rng.integers(n + 1)), row))
    inserts.sort(key=lambda item: item[0])

    posts_path = out_dir / "posts.csv"
    with open(posts_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POSTS_HEADER)
        k = 0
        for i, row in enumerate(valid_rows):
            while k < len(inserts) and inserts[k][0] == i:
                writer.writerow(inserts[k][1])
                k += 1
            writer.writerow(row)
        for _, row in inserts[k:]:
            writer.writerow(row)

    pages_path = out_dir / "pages.csv"
    created_iso = np.datetime_as_string(created.astype("datetime64[D]")).tolist()
    with open(pages_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PAGES_HEADER)
        for i in range(n_pages):
            name = f'News, "Daily" {i}' if i % 5 == 0 else f"Outlet {i}"
            writer.writerow([page_ids[i], name, created_iso[i], scores[i], LANGUAGES[i % len(LANGUAGES)]])

    # --- ground truth over the valid rows
    expected: dict[str, dict[tuple[str, str], tuple[int, int]]] = {}
    for scale in TIMESCALES:
        starts = window_starts(secs, scale)
        keys, inverse = np.unique(page * 1_000_000 + (starts - start_day + 500_000), return_inverse=True)
        sums = np.bincount(inverse, weights=totals.astype(float)).astype(np.int64)
        counts = np.bincount(inverse)
        key_page = keys // 1_000_000
        key_start = keys % 1_000_000 - 500_000 + start_day
        iso = np.datetime_as_string(key_start.astype("datetime64[D]")).tolist()
        expected[scale] = {
            (page_ids[p], s): (int(e), int(c))
            for p, s, e, c in zip(key_page.tolist(), iso, sums.tolist(), counts.tolist())
        }
    with_followers = set(page[~no_follower_row].tolist())
    questionable_set = set(questionable)
    return Corpus(
        posts_path=posts_path,
        pages_path=pages_path,
        sha256={"posts.csv": sha256_file(posts_path), "pages.csv": sha256_file(pages_path)},
        rows=n + len(inserts),
        defects={kind: DEFECTS_PER_KIND for kind in DEFECT_KINDS},
        expected_series=expected,
        questionable_eligible={page_ids[i] for i in questionable_set & with_followers},
        reliable_eligible={
            page_ids[i]
            for i in with_followers - questionable_set - unscored
        },
    )
