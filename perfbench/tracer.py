"""Outside-in tracer: wraps pagegrowth's public functions from outside the package.

After ``pagegrowth.cli`` is imported, every public module-level function of
the layer modules is replaced, by object identity, in each ``pagegrowth``
module that holds a reference to it, so calls between modules and inside a
module both pass through the wrapper. Most wrappers record a span (name,
tag, start, end, parent); the per-row and per-draw functions in
``COUNT_ONLY`` only count calls, so span overhead cannot distort the self
times of their callers. A few wrappers also read counts off the return
value (``PROBES``). Everything stays in memory until ``record``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("ingest", "aggregate", "growth", "stats", "model", "cohort", "synth")
COUNT_ONLY = frozenset(
    {
        "ingest.parse_timestamp",
        "ingest.format_timestamp",
        "aggregate.window_of",
        "aggregate.select_followers",
        "growth.assign_follower_class",
        "model.eval_mu_b",
        "model.eval_c_k",
        "model.sample_laplace",
        "model.sample_burr",
        "stats.laplace_ppf",
        "stats.burr_ppf",
    }
)


def _parse_posts(result):
    posts, report = result
    return {"ingest.rows_read": len(posts) + len(report), "ingest.rows_rejected": len(report)}


def _rejections(result):
    return {"ingest.rows_rejected": len(result[1])}


def _windows(result):
    return {"aggregate.windows_out": sum(len(s.entries) for s in result.values())}


def _samples(result):
    return {"growth.samples_out": len(result[0])}


def _exact(result):
    return {"stats.mann_whitney.exact_calls": int(result.method == "exact")}


def _fit_ok(result):
    return {"stats.fit_burr.ok": 1}


def _trajectories(result):
    return {
        "model.steps": sum(len(t.states) - 1 for t in result),
        "model.clamps": sum(t.clamps.total for t in result),
    }


def _pairs(result):
    return {"cohort.pairs": len(result.pairs)}


def _posts_out(result):
    return {"synth.posts_out": len(result.posts)}


# function -> counts read off its return value (only when it returns)
PROBES = {
    "ingest.parse_posts": _parse_posts,
    "ingest.parse_pages": _rejections,
    "ingest.build_dataset": _rejections,
    "aggregate.aggregate_dataset": _windows,
    "growth.pooled_growth_samples": _samples,
    "stats.mann_whitney": _exact,
    "stats.fit_burr": _fit_ok,
    "model.simulate": _trajectories,
    "cohort.match_cohorts": _pairs,
    "cohort.greedy_match": _pairs,
    "synth.generate": _posts_out,
}


TAGGED = "aggregate.aggregate_dataset"  # its spans carry the timescale argument


def _timescale_tag(args, kwargs):
    for value in (*args, *kwargs.values()):
        tag = getattr(value, "value", None)
        if tag in ("D", "W", "M", "Q"):
            return tag
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, tag, start, end, parent index or -1]
        self._stack: list[int] = []
        self._calls: dict[str, list[int]] = {}  # count-only function -> [calls]
        self.probes: dict[str, float] = {}
        self.probe_errors: list[str] = []
        self.wrapped: list[str] = []

    def install(self) -> None:
        """Wrap every public function of the layer modules already imported."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"pagegrowth.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counter if name in COUNT_ONLY else self._span
                wrappers[id(fn)] = (fn, wrap(name, fn))
                self.wrapped.append(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "pagegrowth" or module_name.startswith("pagegrowth.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _counter(self, name, fn):
        cell = self._calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe, tagged = PROBES.get(name), name == TAGGED

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tag = _timescale_tag(args, kwargs) if tagged else None
            span = [name, tag, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                self._probe(name, probe, result)
            return result

        return spanned

    def _probe(self, name, probe, result) -> None:
        # a probe that no longer fits the function's return value is
        # reported, never allowed to break the command under test
        try:
            counts = probe(result)
        except Exception as exc:
            self.probe_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        for key, value in counts.items():
            self.probes[key] = self.probes.get(key, 0) + value

    def record(self, main_start: float, main_end: float) -> dict:
        return {
            "main": [main_start, main_end],
            "spans": self.spans,
            "calls": {name: cell[0] for name, cell in self._calls.items()},
            "probes": self.probes,
            "probe_errors": self.probe_errors,
            "wrapped": self.wrapped,
        }
