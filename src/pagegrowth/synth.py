"""Synthetic post/page generator in the exact ingest formats.

Pages evolve week by week under the growth law of ``simulate``, all pages
at once through the same step (``model._step``): engagement multiplies by
exp(g) with g Laplace, followers multiply by a Burr draw, with parameters
given by a coefficient table; both are floored at 1 after each step.
Passing a table with zeroed size terms (``gibrat_null_coefficients``)
produces size-independent growth, the null regime for end-to-end tests.
Weekly engagement is scattered over a Poisson number of posts inside each
ISO week, so aggregation at the weekly scale recovers the generated series
up to integer rounding. Ground-truth parameters are written alongside the
data for recovery tests.

Page i draws from ``SeedSequence((seed, i))``: its metadata and starting
state first, then the law's uniforms (Laplace, then Burr, per week) from
its first spawned child and its posts from the second, so the law path
does not depend on how many posts are drawn.

The posts come out as one ``PostColumns`` table, built from the arrays
drawn page by page; no object is made per post, and ``write_posts_csv``
formats the table a block of rows at a time.
"""

from __future__ import annotations

import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .aggregate import Timescale, window_of
from .ingest import MAX_COUNT, PageMeta, PostColumns, _page_codes, _Record, write_pages_csv, write_posts_csv
from .model import ModelCoefficients, ParamRegression, _open_uniforms, _step

LANGUAGES = ("en", "fr", "de", "it")


def gibrat_null_coefficients(
    mu0: float = 0.0,
    b0: float = 0.3,
    c0: float = 400.0,
    k0: float = 0.25,
) -> ModelCoefficients:
    """Size-independent growth law: every beta1/beta2 is zero, so growth
    rate distributions are identical across starting sizes."""
    coeffs = ModelCoefficients()
    for scale in (Timescale.W, Timescale.M, Timescale.Q):
        for parameter, value in (("mu", mu0), ("b", b0), ("c", c0), ("k", k0)):
            two_cov = parameter in ("mu", "b")
            coeffs.add(
                ParamRegression(
                    parameter=parameter,
                    timescale=scale,
                    beta0=value,
                    beta1=0.0,
                    beta2=0.0 if two_cov else None,
                    p_values=tuple(),
                )
            )
    return coeffs


class GeneratorConfig(_Record):
    n_pages: int = 50
    start: date = date(2018, 1, 1)
    end: date = date(2020, 1, 1)  # exclusive
    posts_per_day: float = 3.0
    coefficients: ModelCoefficients | None = None  # default: gibrat null
    followers_range: tuple[float, float] = (12_000.0, 4_000_000.0)
    engagement_range: tuple[float, float] = (1_000.0, 50_000.0)
    questionable_fraction: float = 0.2

    def __post_init__(self):
        if self.n_pages < 1:
            raise ValueError("generator needs at least one page")
        if self.start >= self.end:
            raise ValueError("generator date range is empty")
        # created_at reaches 1,499 days before start, and posts fill the ISO week of each Monday before end
        if self.start < date(5, 2, 8) or self.end > date(9999, 12, 27):
            raise ValueError(f"generator dates must lie from 0005-02-08 to 9999-12-27, got {self.start} to {self.end}")
        if not (math.isfinite(self.posts_per_day) and self.posts_per_day > 0):
            raise ValueError(f"posts_per_day must be finite and positive, got {self.posts_per_day!r}")
        if not 0 <= self.questionable_fraction <= 1:  # NaN fails too
            raise ValueError(f"questionable_fraction must lie in [0, 1], got {self.questionable_fraction!r}")
        if self.coefficients is not None and not self.coefficients.has_timescale(Timescale.W):
            raise ValueError("coefficient table lacks timescale W")  # the law steps weekly


class SynthResult(_Record):
    posts: PostColumns  # page by page in page order, each page's in time order
    pages: dict[str, PageMeta]
    truth: dict


def _page_posts(rng, followers, engagement, week_seconds, posts_per_day) -> tuple[np.ndarray, ...]:
    """One page's posts from its post stream, given its rounded weekly levels:
    seconds, total, likes, comments, shares and followers, one element per post in time order."""
    counts = rng.poisson(posts_per_day * 7.0, size=week_seconds.size)
    week = np.repeat(np.arange(counts.size), counts)  # each post's week
    if week.size == 0:
        return (np.zeros(0, dtype=np.int64),) * 6
    # a row per week with posts; weights right-aligned, because numpy's
    # multinomial gives the remainder to the last column
    posted = np.flatnonzero(counts)
    slots = np.arange(counts.max()) >= counts.max() - counts[posted][:, None]
    weights = np.zeros(slots.shape)
    weights[slots] = rng.gamma(2.0, size=week.size)
    weights /= weights.sum(axis=1, keepdims=True)
    totals = rng.multinomial(engagement[posted], weights)[slots]
    parts = rng.multinomial(totals, rng.dirichlet((2.0, 2.0, 2.0), size=week.size))
    # weeks do not overlap, so one sort orders the seconds within each week
    seconds = np.sort(week_seconds[week] + rng.integers(0, 7 * 24 * 3600, size=week.size))
    return seconds, totals, *parts.T, followers[week]  # followers: one per week, shared by its posts


def generate(config: GeneratorConfig, seed: int) -> SynthResult:
    """Generate posts and page metadata under the configured growth law.

    Raises ValueError when a page's weekly followers or engagement exceed
    MAX_COUNT or stop being a number.
    """
    coeffs = config.coefficients if config.coefficients is not None else gibrat_null_coefficients()
    pages: dict[str, PageMeta] = {}
    mondays = np.arange(window_of(config.start, Timescale.W).start, config.end, 7, dtype="datetime64[D]")
    weeks = mondays.size
    lo, hi = np.log([config.followers_range, config.engagement_range]).T
    path = np.empty((2, weeks + 1, config.n_pages))  # followers, engagement at each week's start and after the last
    u = np.empty((2 * weeks, config.n_pages))  # column i: page i's law stream
    post_rngs = []
    for index in range(config.n_pages):
        sequence = np.random.SeedSequence((seed, index))
        rng = np.random.default_rng(sequence)
        page_id = f"page{index:04d}"
        rng.random()  # once drawn to leave some pages unscored; kept so every seed's pages stay the same
        if rng.random() < config.questionable_fraction:
            score = round(float(rng.uniform(5.0, 59.5)), 1)
        else:
            score = round(float(rng.uniform(60.0, 100.0)), 1)
        created = config.start - timedelta(days=int(rng.integers(30, 1500)))
        pages[page_id] = PageMeta(
            page_id=page_id,
            name=f"Outlet {index:04d}",
            created_at=created,
            newsguard_score=score,
            language=LANGUAGES[index % len(LANGUAGES)],
        )
        path[:, 0, index] = np.exp(rng.uniform(lo, hi))  # log-uniform followers, then engagement
        law, post = sequence.spawn(2)
        u[:, index] = _open_uniforms(np.random.default_rng(law), 2 * weeks)
        post_rngs.append(np.random.default_rng(post))

    for week in range(weeks):
        f, e, _ = _step(coeffs, Timescale.W, *path[:, week], u[2 * week], u[2 * week + 1])
        path[:, week + 1] = np.maximum(f, 1.0), np.maximum(e, 1.0)
        if not (path[:, week + 1] <= MAX_COUNT).all():  # NaN fails too
            raise ValueError(f"synthetic followers and engagement must stay finite and at most {MAX_COUNT}")
    followers, engagement = np.maximum(np.rint(path[:, :weeks]), 1.0).astype(np.int64)
    week_seconds = mondays.astype("datetime64[s]").astype(np.int64)
    drawn = [_page_posts(post_rngs[index], followers[:, index], engagement[:, index], week_seconds,
                         config.posts_per_day) for index in range(config.n_pages)]
    sizes = [columns[0].size for columns in drawn]
    names = list(pages)
    page_ids, page = _page_codes(names, np.repeat(np.arange(config.n_pages), sizes))
    # "<page>-000000" onward, one % per page; synth's page ids hold no LF, which splits the ids
    ids = "".join((name.replace("%", "%%") + "-%06d\n") * n % tuple(range(n)) for name, n in zip(names, sizes))
    post_id = np.array(ids.split("\n")[:-1], dtype=object)
    posts = PostColumns(page_ids, page, post_id, *(np.concatenate(column) for column in zip(*drawn)))

    truth = {
        "seed": seed,
        "n_pages": config.n_pages,
        "start": config.start.isoformat(),
        "end": config.end.isoformat(),
        "posts_per_day": config.posts_per_day,
        "law_timescale": Timescale.W.value,
        "questionable_fraction": config.questionable_fraction,
        "coefficients": {
            f"{p}/{s}": {
                "beta0": reg.beta0,
                "beta1": reg.beta1,
                "beta2": reg.beta2,
            }
            for (p, s), reg in sorted(coeffs.entries.items())
        },
    }
    return SynthResult(posts=posts, pages=pages, truth=truth)


def write_files(result: SynthResult, out_dir: str | Path) -> dict[str, Path]:
    """Write posts.csv, pages.csv and truth.json into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "posts": out / "posts.csv",
        "pages": out / "pages.csv",
        "truth": out / "truth.json",
    }
    with open(paths["posts"], "w", newline="") as fh:
        write_posts_csv(result.posts, fh)
    with open(paths["pages"], "w", newline="") as fh:
        write_pages_csv(result.pages, fh)
    with open(paths["truth"], "w") as fh:
        json.dump(result.truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
