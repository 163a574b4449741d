"""Generate a synthetic corpus and walk it through ingestion.

The generator writes posts/pages files in the exact formats the parsers
accept, so the whole toolkit is runnable without any platform export.
Dirty rows are quarantined into a rejection report, never silently
dropped.
"""

import io
from datetime import date

from pagegrowth.ingest import build_dataset, parse_pages, parse_posts, write_posts_csv
from pagegrowth.synth import GeneratorConfig, generate

config = GeneratorConfig(
    n_pages=8,
    start=date(2018, 1, 1),
    end=date(2018, 7, 1),
    posts_per_day=1.0,
    questionable_fraction=0.25,
)
result = generate(config, seed=42)
print(f"generated {len(result.posts)} posts across {len(result.pages)} pages")

# serialize and re-parse: the canonical CSV round-trips exactly
buf = io.StringIO()
write_posts_csv(result.posts, buf)  # the generator's table, a column per field
posts, report = parse_posts(buf.getvalue().encode())  # read back as the same kind of table
print(f"parsed back {len(posts)} posts, {len(report)} rejections")
assert posts == result.posts  # same rows in the same order; posts[i] builds row i as a record

# now feed the parser a file with two broken rows
dirty = """page_id,post_id,timestamp,likes,comments,shares,total_interactions,followers_at_posting
p1,a,2020-01-01T08:00:00Z,10,20,30,60,5000
p1,b,2020-01-01T09:00:00Z,10,20,30,61,5000
p1,c,yesterday,,,,12,
p1,d,2020-01-02T10:00:00Z,,,,45,5100
"""
posts, report = parse_posts(dirty.encode())
print(f"\ndirty file: {len(posts)} accepted, {len(report)} rejected")
for row in report.rows:
    print(f"  line {row.line}: {row.reason}")

# page metadata joins against posts; orphan posts are quarantined too
pages_csv = """page_id,name,created_at,newsguard_score,language
p1,Example Outlet,2012-06-01,72.5,en
"""
pages, _ = parse_pages(pages_csv.encode())
dataset, join_report = build_dataset(posts, pages)
cells = dataset.cells  # one cell per (page, day) with posts: all that calendar aggregation reads
print(f"\ndataset: {cells.post_count.sum()} posts in {len(cells)} (page, day) cells for {len(dataset.pages)} page(s), "
      f"ends {dataset.end_date}")
