"""Per-layer metrics of the traced run, from spans and the program's counters.

Names and units are declared in ``BENCHMARK.json``.  Times named
``*_ms`` without a percentile are totals over the traced pass, whose
work is fixed by the seed and ``--seconds``; counts repeat exactly for
the same seed.  A metric whose layer does not run on the
workload reads 0.  The end-to-end metric each one should move is listed
in ``NOTES.md``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from percentiles import UnsupportedPercentile, median, percentile
from spans import SpanRecorder


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _quantile_ms(values: np.ndarray, q: float) -> float:
    if values.size == 0:
        return 0.0
    try:
        return 1e3 * (median(values) if q == 0.5 else percentile(values, q))
    except UnsupportedPercentile:
        return 0.0


def _resolve_durations(recorder: SpanRecorder, durations: np.ndarray,
                       self_times: np.ndarray) -> np.ndarray:
    """Per re-solving tick: the time its children (the solve and the
    snapshot's per-client evaluation) took."""
    names = recorder.names
    parents = recorder.parents
    ticks = sorted({parents[i] for i in recorder.select("qpp.solve")
                    if parents[i] >= 0 and names[parents[i]] == "serve.tick"})
    return np.array([durations[t] - self_times[t] for t in ticks])


def per_layer(recorder: SpanRecorder, traced: dict[str, Any]) -> dict[str, float]:
    durations = recorder.durations() if len(recorder) else np.zeros(0)
    self_times = recorder.self_times() if len(recorder) else np.zeros(0)
    counters = traced["counters"]
    extras = traced["extras"]

    def spans_of(name: str, *, outermost: bool = False) -> np.ndarray:
        return durations[recorder.select(name, outermost=outermost)]

    def total_ms(name: str, *, outermost: bool = False) -> float:
        return 1e3 * float(spans_of(name, outermost=outermost).sum())

    submits = spans_of("serve.submit")
    ticks = spans_of("serve.tick")
    stale = counters.get("serve.stale.reads", 0.0)
    exact = counters.get("serve.exact.reads", 0.0)
    skipped = counters.get("qpp.prune.skipped", 0.0)
    evaluated = counters.get("qpp.prune.evaluated", 0.0)
    empty = np.zeros(0)
    busy_plain = traced["busy_plain"]
    return {
        "serve.submit_us": 1e6 * float(submits.mean()) if submits.size else 0.0,
        "serve.tick_ms_p50": _quantile_ms(ticks, 0.5),
        "serve.tick_ms_p99": _quantile_ms(ticks, 0.99),
        "serve.queue_wait_ms_p99": _quantile_ms(extras.get("queue_wait", empty), 0.99),
        "serve.batch_size_mean": float(extras.get("batch_size_mean", 0.0)),
        "serve.stale_share": _share(stale, stale + exact),
        "serve.resolves": counters.get("serve.resolve.count", 0.0),
        "serve.resolve_ms_p50": _quantile_ms(
            _resolve_durations(recorder, durations, self_times), 0.5),
        "qpp.solve_ms_p50": _quantile_ms(spans_of("qpp.solve"), 0.5),
        "qpp.prune_share": _share(skipped, skipped + evaluated),
        "ssqpp.calls": float(recorder.select("ssqpp.solve").size),
        "ssqpp.self_ms": 1e3 * float(self_times[recorder.select("ssqpp.solve")].sum()),
        "lp.solves": counters.get("lp.solve.count", 0.0),
        "lp.iterations": counters.get("lp.iterations.total", 0.0),
        "lp.solve_ms": total_ms("lp.solve"),
        "gap.round_ms": total_ms("gap.round"),
        "placement.eval_ms": total_ms("placement.eval", outermost=True),
        "network.metric_builds": counters.get("metric.cache.builds", 0.0),
        "network.metric_build_ms": total_ms("network.metric"),
        "network.row_misses": counters.get("metric.cache.row_misses", 0.0),
        "network.row_evictions": counters.get("metric.cache.row_evictions", 0.0),
        "network.row_ms": total_ms("network.row", outermost=True),
        "network.landmark_ms": total_ms("network.landmarks"),
        "loadgen.lag_ms_p99": _quantile_ms(extras.get("lag", empty), 0.99),
        "loadgen.backlog_end": float(extras.get("backlog_at_end", 0)),
        "trace.overhead_pct": 100.0 * (traced["busy_traced"] - busy_plain) / busy_plain,
        "trace.spans": float(len(recorder)),
    }


def samples(recorder: SpanRecorder, traced: dict[str, Any]) -> dict[str, int]:
    """Sample count behind each per-layer percentile or mean."""
    extras = traced["extras"]
    return {
        "serve.submit_us": int(recorder.select("serve.submit").size),
        "serve.tick_ms_p50": int(recorder.select("serve.tick").size),
        "serve.tick_ms_p99": int(recorder.select("serve.tick").size),
        "serve.queue_wait_ms_p99": int(np.size(extras.get("queue_wait", ()))),
        "serve.resolve_ms_p50": int(traced["counters"].get("serve.resolve.count", 0)),
        "qpp.solve_ms_p50": int(recorder.select("qpp.solve").size),
        "loadgen.lag_ms_p99": int(np.size(extras.get("lag", ()))),
    }
