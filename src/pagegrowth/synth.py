"""Synthetic post/page generator in the exact ingest formats.

Pages evolve week by week under the same stochastic growth law the
simulator uses: engagement multiplies by exp(g) with g Laplace, followers
multiply by a Burr draw, with parameters given by a coefficient table.
Passing a table with zeroed size terms (``gibrat_null_coefficients``)
produces size-independent growth, the null regime for end-to-end tests.
Weekly engagement is scattered over a Poisson number of posts inside
each ISO week, so aggregation at the weekly scale recovers the generated
series up to integer rounding. Ground-truth parameters are written
alongside the data for recovery tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np

from .aggregate import Timescale, window_of
from .ingest import PageMeta, PostRecord, write_pages_csv, write_posts_csv
from .model import (
    ModelCoefficients,
    ParamRegression,
    eval_c_k,
    eval_mu_b,
    sample_burr,
    sample_laplace,
)

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


@dataclass
class GeneratorConfig:
    n_pages: int = 50
    start: date = date(2018, 1, 1)
    end: date = date(2020, 1, 1)  # exclusive
    posts_per_day: float = 3.0
    coefficients: ModelCoefficients | None = None  # default: gibrat null
    followers_range: tuple[float, float] = (12_000.0, 4_000_000.0)
    engagement_range: tuple[float, float] = (1_000.0, 50_000.0)
    questionable_fraction: float = 0.2
    unscored_fraction: float = 0.0

    def __post_init__(self):
        if self.n_pages < 1:
            raise ValueError("generator needs at least one page")
        if self.start >= self.end:
            raise ValueError("generator date range is empty")
        if self.posts_per_day <= 0:
            raise ValueError("posts_per_day must be positive")


@dataclass
class SynthResult:
    posts: list[PostRecord]
    pages: dict[str, PageMeta]
    truth: dict = field(default_factory=dict)


def _split_counts(total: int, parts: int, rng: np.random.Generator) -> np.ndarray:
    if parts == 1:
        return np.array([total])
    probs = rng.dirichlet(np.ones(parts) * 2.0)
    return rng.multinomial(total, probs)


def generate(config: GeneratorConfig, seed: int) -> SynthResult:
    """Generate posts and page metadata under the configured growth law."""
    coeffs = config.coefficients if config.coefficients is not None else gibrat_null_coefficients()
    posts: list[PostRecord] = []
    pages: dict[str, PageMeta] = {}

    first_week = window_of(config.start, Timescale.W).start
    for index in range(config.n_pages):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        page_id = f"page{index:04d}"
        score = None
        if rng.random() >= config.unscored_fraction:
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

        lo_f, hi_f = config.followers_range
        lo_e, hi_e = config.engagement_range
        followers = float(np.exp(rng.uniform(np.log(lo_f), np.log(hi_f))))
        engagement = float(np.exp(rng.uniform(np.log(lo_e), np.log(hi_e))))

        week_start = first_week
        counter = 0
        while week_start < config.end:
            n_posts = int(rng.poisson(config.posts_per_day * 7.0))
            if n_posts > 0:
                week_total = max(1, int(round(engagement)))
                fol = max(1, int(round(followers)))
                totals = _split_counts(week_total, n_posts, rng)
                seconds = np.sort(rng.integers(0, 7 * 24 * 3600, size=n_posts))
                base = datetime.combine(week_start, time(0, 0), tzinfo=timezone.utc)
                for j in range(n_posts):
                    total = int(totals[j])
                    likes, comments, shares = (int(v) for v in _split_counts(total, 3, rng))
                    posts.append(
                        PostRecord(
                            page_id=page_id,
                            post_id=f"{page_id}-{counter:06d}",
                            timestamp=base + timedelta(seconds=int(seconds[j])),
                            total_interactions=total,
                            likes=likes,
                            comments=comments,
                            shares=shares,
                            followers_at_posting=fol,
                        )
                    )
                    counter += 1
            lap = eval_mu_b(coeffs, Timescale.W, followers, engagement)
            burr = eval_c_k(coeffs, Timescale.W, followers)
            engagement = max(1.0, engagement * float(np.exp(sample_laplace(lap, rng))))
            followers = max(1.0, followers * sample_burr(burr, rng))
            week_start = week_start + timedelta(days=7)

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
