"""The synthetic generator steps the shared growth law, apart from its posts.

Page i's law path comes from the first child of ``SeedSequence((seed, i))``
and its posts from the second, so the weekly levels must not depend on
the post stream, and they must equal, after rounding, the path the shared
step gives on that page's documented stream.
"""

import io
import math
import re
from datetime import date

import numpy as np
import pytest

from pagegrowth.aggregate import Timescale, window_of
from pagegrowth.ingest import parse_pages, parse_posts, write_pages_csv, write_posts_csv
from pagegrowth.model import _open_uniforms, _step, published_coefficients
from pagegrowth.synth import GeneratorConfig, gibrat_null_coefficients, generate


def _weekly(result):
    """(page, ISO week) -> (set of followers_at_posting, engagement total)."""
    out = {}
    for post in result.posts:
        key = (post.page_id, window_of(post.timestamp.date(), Timescale.W).start)
        followers, total = out.get(key, (set(), 0))
        out[key] = (followers | {post.followers_at_posting}, total + post.total_interactions)
    return out


def _law_levels(config, seed, index, weeks):
    """Page index's rounded weekly (followers, engagement), stepped outside the generator."""
    sequence = np.random.SeedSequence((seed, index))
    rng = np.random.default_rng(sequence)
    rng.random(), rng.random(), rng.uniform(60.0, 100.0)  # unscored test, questionable test, score
    rng.integers(30, 1500)  # creation-date offset
    (lo_f, hi_f), (lo_e, hi_e) = config.followers_range, config.engagement_range
    f = np.array([np.exp(rng.uniform(np.log(lo_f), np.log(hi_f)))])
    e = np.array([np.exp(rng.uniform(np.log(lo_e), np.log(hi_e)))])
    u = _open_uniforms(np.random.default_rng(sequence.spawn(2)[0]), 2 * weeks)
    levels = []
    for week in range(weeks):
        levels.append((f[0], e[0]))
        laplace, burr = u[2 * week : 2 * week + 1], u[2 * week + 1 : 2 * week + 2]
        f, e, _ = _step(config.coefficients, Timescale.W, f, e, laplace, burr)
        f, e = np.maximum(f, 1.0), np.maximum(e, 1.0)
    return np.maximum(1, np.rint(levels)).astype(np.int64)


def test_law_path_does_not_depend_on_post_stream():
    runs = []
    for posts_per_day in (1.0, 3.0):
        config = GeneratorConfig(n_pages=5, start=date(2018, 1, 1), end=date(2018, 10, 1),
                                 posts_per_day=posts_per_day, coefficients=published_coefficients())
        runs.append(generate(config, seed=13))
    sparse, dense = (_weekly(r) for r in runs)
    shared = sparse.keys() & dense.keys()
    assert len(shared) > 100
    assert all(sparse[key] == dense[key] for key in shared)
    pages = []
    for result in runs:
        buf = io.StringIO()
        write_pages_csv(result.pages, buf)
        pages.append(buf.getvalue())
    assert pages[0] == pages[1]


def test_weekly_levels_follow_the_shared_step():
    config = GeneratorConfig(n_pages=3, start=date(2018, 1, 3), end=date(2018, 12, 1),
                             posts_per_day=2.0, coefficients=published_coefficients())
    result = generate(config, seed=7)
    first = window_of(config.start, Timescale.W).start
    weeks = -(-(config.end - first).days // 7)
    levels = _law_levels(config, 7, 1, weeks)
    observed = {week: v for (page, week), v in _weekly(result).items() if page == "page0001"}
    assert len(observed) > weeks - 3
    for monday, (followers, total) in observed.items():
        f, e = levels[(monday - first).days // 7]
        assert followers == {f} and total == e, monday


def test_state_beyond_a_count_is_refused():
    config = GeneratorConfig(n_pages=2, start=date(2018, 1, 1), end=date(2018, 3, 1),
                             coefficients=gibrat_null_coefficients(mu0=50.0))
    with pytest.raises(ValueError, match="finite and at most"):
        generate(config, seed=0)


@pytest.mark.parametrize("start, end", [
    pytest.param(date(1, 1, 1), date(1, 2, 1), id="year-1"),  # created_at would fall before year 1
    pytest.param(date(5, 2, 7), date(5, 3, 1), id="day-before-first-start"),
    pytest.param(date(9999, 12, 20), date(9999, 12, 31), id="year-9999"),  # the last week would run into 10000
    pytest.param(date(9999, 12, 1), date(9999, 12, 28), id="day-after-last-end"),
])
def test_dates_outside_years_1_to_9999_refused(start, end):
    with pytest.raises(ValueError, match="generator dates must lie from 0005-02-08 to 9999-12-27"):
        GeneratorConfig(start=start, end=end)


@pytest.mark.parametrize("start, end", [(date(5, 2, 8), date(5, 4, 1)), (date(9999, 11, 1), date(9999, 12, 27))])
def test_dates_at_the_bounds_stay_readable(start, end):
    result = generate(GeneratorConfig(n_pages=3, start=start, end=end), seed=1)
    posts, pages = io.StringIO(), io.StringIO()
    write_posts_csv(result.posts, posts)
    write_pages_csv(result.pages, pages)
    parsed, rejected = parse_posts(posts.getvalue().encode())
    assert parsed == result.posts and len(parsed) > 0 and len(rejected) == 0
    parsed, rejected = parse_pages(pages.getvalue().encode())
    assert parsed == result.pages and len(rejected) == 0


@pytest.mark.parametrize("field, message", [
    ("posts_per_day", "posts_per_day must be finite and positive, got nan"),
    ("questionable_fraction", "questionable_fraction must lie in [0, 1], got nan"),
])
def test_nan_settings_refused(field, message):
    # the CLI's number grammar refuses nan before a GeneratorConfig is made; the library refuses it too
    with pytest.raises(ValueError, match=re.escape(message)):
        GeneratorConfig(**{field: math.nan})
