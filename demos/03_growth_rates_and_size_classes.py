"""From windowed series to growth-rate samples and size-class bins.

A growth sample needs two calendar-adjacent windows of one page with
positive values; gaps break the chain. The samples of all pages form one
table with a column per field. Samples are binned by the earlier window's
follower count into the standard classes (10K-50K up to 500K-5M), or by
quartiles of prior engagement after a 5th-95th percentile trim; each bin
is a sub-table.
"""

from datetime import date

import numpy as np

from pagegrowth.aggregate import Timescale, aggregate_dataset
from pagegrowth.growth import (
    DEFAULT_FOLLOWER_CLASSES,
    class_bins,
    engagement_quartile_bins,
    pooled_growth_samples,
    trim,
)
from pagegrowth.ingest import build_dataset
from pagegrowth.synth import GeneratorConfig, generate

result = generate(
    GeneratorConfig(n_pages=30, start=date(2018, 1, 1), end=date(2019, 1, 1),
                    posts_per_day=1.0),
    seed=7,
)
dataset, _ = build_dataset(result.posts, result.pages)
weekly = aggregate_dataset(dataset, Timescale.W)
samples, skips = pooled_growth_samples(weekly, "engagement")
print(f"{len(samples)} weekly engagement growth samples "
      f"({skips.total} degenerate pairs skipped)")

logs = samples.log_growth  # a column: one float per sample
print(f"log growth: mean {logs.mean():+.4f}, sd {logs.std():.4f}")

print("\ntrim keeps the 5th..95th percentile band:")
trimmed = trim(logs)
print(f"  {len(logs)} -> {len(trimmed)} values, "
      f"range [{trimmed.min():+.3f}, {trimmed.max():+.3f}]")

print("\nfollower size classes (by the earlier window's followers):")
for label, members in class_bins(samples, DEFAULT_FOLLOWER_CLASSES).items():
    print(f"  {label:>10}: {len(members)} samples")

print("\nquartile bins of prior engagement (trimmed covariate):")
for label, members in engagement_quartile_bins(samples).items():
    priors = members.prior_engagement
    print(f"  {label}: {len(members)} samples, priors {priors.min()}..{priors.max()}")

first = samples[0]  # one row, built on request
print(f"\nfirst sample: page {first.page_id}, week of {first.window_start}, "
      f"gross growth {first.gross_growth:.4f}")
chain = samples[:3]  # a sub-table
if len(chain) == 3:
    telescoped = float(np.exp(chain.log_growth.sum()))
    print(f"telescoping: exp(sum of 3 log rates) = {telescoped:.6f} "
          f"(= last/first engagement ratio)")
