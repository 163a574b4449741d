"""Per-layer metrics of one traced pass, from the records ``tracer.Tracer`` wrote.

A span's self time is its duration minus the time its child spans cover.
``.s`` metrics are inclusive times, ``.self_s`` self times, ``.calls`` call
counts; all are totals over the commands of one pass unless the name says
otherwise. Which end-to-end metric each one should move, on which
workload, is listed in README.md.
"""

from __future__ import annotations

from collections import defaultdict

TIMESCALES = ("D", "W", "M", "Q")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(traces: list[dict]) -> tuple[dict[str, float], list[float], set[str]]:
    """(layer metrics, coverage of each command, functions wrapped) for one pass."""
    self_s: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    probes: dict[str, float] = defaultdict(float)
    coverage = []
    wrapped: set[str] = set()
    for trace in traces:
        spans = trace["spans"]
        inner = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        covered = 0.0
        for (name, tag, start, end, parent), child_s in zip(spans, inner):
            duration = end - start
            incl[name] += duration
            self_s[name] += duration - child_s
            calls[name] += 1
            if tag is not None:
                incl[f"{name}@{tag}"] += duration
            if parent < 0:
                covered += duration
        main_start, main_end = trace["main"]
        coverage.append(_ratio(covered, main_end - main_start))
        for name, n in trace["calls"].items():
            counted[name] += n
        for name, value in trace["probes"].items():
            probes[name] += value
        wrapped.update(trace["wrapped"])

    parses = calls["ingest.parse_posts"]
    metrics = {
        "ingest.parse_posts.self_s": self_s["ingest.parse_posts"],
        "ingest.parse_posts.rows_per_s": _ratio(probes["ingest.rows_read"], incl["ingest.parse_posts"]),
        # per ingest, so the figure equals the rows of one input file
        "ingest.rows_read": _ratio(probes["ingest.rows_read"], parses),
        "ingest.rows_rejected": _ratio(probes["ingest.rows_rejected"], parses),
        "ingest.build_dataset.self_s": self_s["ingest.build_dataset"],
        "ingest.parse_timestamp.calls": counted["ingest.parse_timestamp"],
        "ingest.write_posts_csv.self_s": self_s["ingest.write_posts_csv"],
        "aggregate.aggregate_dataset.calls": calls["aggregate.aggregate_dataset"],
        **{f"aggregate.{s}.s": incl[f"aggregate.aggregate_dataset@{s}"] for s in TIMESCALES},
        "aggregate.window_of.calls": counted["aggregate.window_of"],
        "aggregate.windows_out": probes["aggregate.windows_out"],
        "aggregate.write_series_csv.self_s": self_s["aggregate.write_series_csv"],
        "growth.pooled_growth_samples.s": incl["growth.pooled_growth_samples"],
        "growth.pooled_growth_samples.calls": calls["growth.pooled_growth_samples"],
        "growth.samples_out": probes["growth.samples_out"],
        "growth.class_bins.s": incl["growth.class_bins"],
        "growth.class_bins.calls": calls["growth.class_bins"],
        "growth.write_growth_samples_csv.self_s": self_s["growth.write_growth_samples_csv"],
        "stats.mann_whitney.self_s": self_s["stats.mann_whitney"],
        "stats.mann_whitney.calls": calls["stats.mann_whitney"],
        "stats.mann_whitney.exact_calls": probes["stats.mann_whitney.exact_calls"],
        "stats.fit_burr.self_s": self_s["stats.fit_burr"],
        "stats.fit_burr.calls": calls["stats.fit_burr"],
        "stats.fit_burr.ok_ratio": _ratio(probes["stats.fit_burr.ok"], calls["stats.fit_burr"]),
        "stats.detailed_balance_check.self_s": self_s["stats.detailed_balance_check"],
        "model.simulate.self_s": self_s["model.simulate"],
        "model.simulate.steps_per_s": _ratio(probes["model.steps"], incl["model.simulate"]),
        "model.summarize_trajectories.self_s": self_s["model.summarize_trajectories"],
        "model.write_trajectories_csv.self_s": self_s["model.write_trajectories_csv"],
        "model.draws": counted["model.sample_laplace"] + counted["model.sample_burr"],
        "model.clamps": probes["model.clamps"],
        "cohort.match_cohorts.self_s": self_s["cohort.match_cohorts"],
        "cohort.pairs": probes["cohort.pairs"],
        "synth.generate.self_s": self_s["synth.generate"],
        "synth.posts_out": probes["synth.posts_out"],
    }
    return metrics, coverage, wrapped


# functions the metrics above are named after; any missing from a traced
# run is reported as absent and its metrics read 0
NAMED_FUNCTIONS = (
    "ingest.parse_posts",
    "ingest.build_dataset",
    "ingest.parse_timestamp",
    "ingest.write_posts_csv",
    "aggregate.aggregate_dataset",
    "aggregate.window_of",
    "aggregate.write_series_csv",
    "growth.pooled_growth_samples",
    "growth.class_bins",
    "growth.write_growth_samples_csv",
    "stats.mann_whitney",
    "stats.fit_burr",
    "stats.detailed_balance_check",
    "model.simulate",
    "model.summarize_trajectories",
    "model.write_trajectories_csv",
    "model.sample_laplace",
    "model.sample_burr",
    "cohort.match_cohorts",
    "synth.generate",
)
