"""Span tracing of codaboot's public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function in every ``codaboot``
module namespace that holds it (``from .x import f`` makes one binding
per importing module), and the ``dfm``/``lc`` entries of
``evaluation.MODEL_FORECASTERS``, with a wrapper that records a span.
Nothing under ``src/`` is edited.  A span is ``(name, start, end,
parent, thread, attrs)``; the parent is the innermost open span of the
same thread, so backtest windows that run on worker threads are roots
of their own thread.  Spans stay in memory until the run ends.

:func:`layer_metrics` turns the spans of one traced CLI call into the
per-layer metrics.  A ``*_s`` metric is the summed duration of that
function's spans (over all threads) unless it says self time, which is a
span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time

ROOT = "cli.main"
WINDOW = "evaluation.window"

# (module, function, span name, parameters recorded on the span)
TRACED = (
    ("lifetable", "parse_lifetable", "lifetable.parse", ()),
    ("lifetable", "rebuild_deaths", "lifetable.rebuild", ()),
    ("coda", "clr", "coda.clr", ()),
    ("coda", "inverse_clr", "coda.inverse_clr", ()),
    ("dfm", "fit_dfm", "dfm.fit_dfm", ()),
    ("bootstrap", "build_error_pools", "bootstrap.error_pools", ()),
    ("bootstrap", "assemble_forecast", "bootstrap.assemble", ()),
    ("bootstrap", "bootstrap_forecast_path", "bootstrap.path", ()),
    ("leecarter", "fit_lc", "leecarter.fit_lc", ()),
    ("leecarter", "lc_bootstrap_path", "leecarter.path", ("n_samples",)),
    ("fts", "functional_kpss_pvalue", "fts.kpss", ("n_permutations",)),
    ("fts", "long_run_covariance", "fts.long_run_covariance", ()),
    ("fts", "independence_test", "fts.independence_test", ()),
    ("evaluation", "run_backtest", "evaluation.backtest", ("n_jobs",)),
)


class Tracer:
    """Collects spans from any thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, func, recorded=()):
        signature = inspect.signature(func) if recorded else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            attrs = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = {p: bound.arguments[p] for p in recorded}
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), attrs]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced function wherever a codaboot module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "codaboot" or n.startswith("codaboot.")) and m is not None]
        for module_name, func_name, span_name, recorded in TRACED:
            original = getattr(sys.modules[f"codaboot.{module_name}"], func_name)
            wrapper = self.wrap(span_name, original, recorded)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        forecasters = sys.modules["codaboot.evaluation"].MODEL_FORECASTERS
        for model in ("dfm", "lc"):
            forecasters[model] = self.wrap(WINDOW, forecasters[model])

    def records(self):
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "thread": s[4], "attrs": s[5]}
            for s in self.spans
        ]


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Duration minus child coverage, per span."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [s["end"] - s["start"] - _covered(c) for s, c in zip(spans, children)]


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced CLI call (``cli.main`` is the root).

    ``wall_s`` is the call's time measured around the root span; the
    self times of the main thread's spans, whose spans nest, must add up
    to it, and ``trace.unaccounted_s`` is what they miss.
    """
    own = self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, own):
        by_name.setdefault(span["name"], []).append((span, self_s))

    def total(name):
        return sum(s["end"] - s["start"] for s, _ in by_name.get(name, ()))

    def self_total(name):
        return sum(t for _, t in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, attr):
        return sum(int(s["attrs"][attr]) for s, _ in by_name.get(name, ()))

    fits = sorted(by_name.get("dfm.fit_dfm", ()), key=lambda item: item[0]["start"])
    windows = [s["end"] - s["start"] for s, _ in by_name.get(WINDOW, ())]
    backtests = [s for s, _ in by_name.get("evaluation.backtest", ())]
    window_ends = [s["end"] for s, _ in by_name.get(WINDOW, ())]
    job_time = sum(int(s["attrs"]["n_jobs"]) * (s["end"] - s["start"]) for s in backtests)
    lc_time = total("leecarter.path")
    main_thread = by_name[ROOT][0][0]["thread"]
    return {
        "lifetable.parse_s": total("lifetable.parse"),
        "lifetable.rebuild_s": total("lifetable.rebuild"),
        "coda.clr_s": total("coda.clr"),
        "dfm.fit_dfm_s": total("dfm.fit_dfm"),
        "dfm.fit_dfm_calls": calls("dfm.fit_dfm"),
        "dfm.fit_dfm_first_s": fits[0][0]["end"] - fits[0][0]["start"] if fits else 0.0,
        "bootstrap.error_pools_s": total("bootstrap.error_pools"),
        "bootstrap.error_pools_calls": calls("bootstrap.error_pools"),
        "bootstrap.assemble_s": self_total("bootstrap.assemble"),
        "bootstrap.assemble_calls": calls("bootstrap.assemble"),
        "bootstrap.path_s": total("bootstrap.path"),
        "coda.inverse_clr_s": total("coda.inverse_clr"),
        "coda.inverse_clr_calls": calls("coda.inverse_clr"),
        "leecarter.fit_lc_s": total("leecarter.fit_lc"),
        "leecarter.path_s": lc_time,
        "leecarter.replicates_per_s": (
            attr_sum("leecarter.path", "n_samples") / lc_time if lc_time else 0.0
        ),
        "fts.kpss_s": total("fts.kpss"),
        "fts.kpss_permutations": attr_sum("fts.kpss", "n_permutations"),
        "fts.long_run_covariance_calls": calls("fts.long_run_covariance"),
        "fts.independence_test_s": total("fts.independence_test"),
        "evaluation.windows": len(windows),
        "evaluation.window_s_p50": statistics.median(windows) if windows else 0.0,
        "evaluation.window_s_max": max(windows) if windows else 0.0,
        # Scoring starts once the last window is in.
        "evaluation.scoring_s": (
            max(s["end"] for s in backtests) - max(window_ends) if window_ends else 0.0
        ),
        "evaluation.busy_ratio": sum(windows) / job_time if job_time else 0.0,
        "cli.self_s": self_total(ROOT),
        "trace.unaccounted_s": wall_s - sum(
            t for s, t in zip(spans, own) if s["thread"] == main_thread
        ),
    }
