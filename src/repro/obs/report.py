"""Telemetry documents: the JSON surface of a traced run.

``repro profile`` and the CI ``profile-smoke`` step exchange one
schema-versioned document combining the span tree, the metric deltas,
and a few derived headline numbers (LP solve count, metric-cache hit
rate).  :func:`validate_telemetry_document` is the schema check; it is
deliberately strict about structure and loose about values, mirroring
``repro.experiments.bench.validate_bench_report``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from .._validation import require
from ..exceptions import ValidationError
from .metrics import MetricsRegistry
from .trace import TraceCollector, span_to_dicts

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "telemetry_document",
    "validate_telemetry_document",
    "derived_metrics",
    "metrics_table_rows",
]

TELEMETRY_SCHEMA_VERSION = 1

#: Counter names the derived headline metrics read.
LP_SOLVE_COUNTER = "lp.solve.count"
METRIC_BUILD_COUNTER = "metric.cache.builds"
METRIC_HIT_COUNTER = "metric.cache.hits"


def derived_metrics(counters: Mapping[str, float]) -> dict[str, float]:
    """Headline numbers computed from raw counters.

    ``metric_cache_hit_rate`` is hits / (hits + builds), 0 when the
    cache was never touched.
    """
    builds = float(counters.get(METRIC_BUILD_COUNTER, 0.0))
    hits = float(counters.get(METRIC_HIT_COUNTER, 0.0))
    touched = builds + hits
    return {
        "lp_solve_count": float(counters.get(LP_SOLVE_COUNTER, 0.0)),
        "metric_cache_builds": builds,
        "metric_cache_hits": hits,
        "metric_cache_hit_rate": hits / touched if touched > 0 else 0.0,
    }


def telemetry_document(
    *,
    command: Sequence[str],
    exit_code: int,
    collector: TraceCollector,
    counters: Mapping[str, float],
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Assemble the schema v1 telemetry document for one traced run.

    *counters* are the counter **deltas** of the run (see
    :func:`repro.obs.metrics.telemetry_scope`); *registry*, when given,
    contributes the gauge/histogram snapshot.
    """
    spans = [row for root in collector.roots for row in span_to_dicts(root)]
    snapshot = registry.snapshot() if registry is not None else {}
    return {
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "command": list(command),
        "exit_code": int(exit_code),
        "span_count": collector.span_count,
        "max_depth": collector.max_depth,
        "spans": spans,
        "metrics": {
            "counters": dict(sorted(counters.items())),
            "gauges": snapshot.get("gauges", {}),
            "histograms": snapshot.get("histograms", {}),
        },
        "derived": derived_metrics(counters),
    }


def validate_telemetry_document(document: Mapping[str, Any]) -> None:
    """Raise :class:`~repro.exceptions.ValidationError` unless *document*
    matches the telemetry schema (version 1)."""
    require(isinstance(document, Mapping), "telemetry document must be a mapping")
    for key in (
        "telemetry_schema_version",
        "command",
        "exit_code",
        "span_count",
        "max_depth",
        "spans",
        "metrics",
        "derived",
    ):
        if key not in document:
            raise ValidationError(f"telemetry document is missing key {key!r}")
    if document["telemetry_schema_version"] != TELEMETRY_SCHEMA_VERSION:
        raise ValidationError(
            "unsupported telemetry schema version "
            f"{document['telemetry_schema_version']!r}"
        )
    command = document["command"]
    require(
        isinstance(command, list) and all(isinstance(c, str) for c in command),
        "telemetry 'command' must be a list of strings",
    )
    spans = document["spans"]
    require(isinstance(spans, list), "telemetry 'spans' must be a list")
    for index, row in enumerate(spans):
        if not isinstance(row, Mapping):
            raise ValidationError(f"span row {index} must be a mapping")
        for key in ("id", "parent", "name", "started", "duration", "error"):
            if key not in row:
                raise ValidationError(f"span row {index} is missing key {key!r}")
    metrics = document["metrics"]
    require(isinstance(metrics, Mapping), "telemetry 'metrics' must be a mapping")
    for key in ("counters", "gauges", "histograms"):
        if key not in metrics:
            raise ValidationError(f"telemetry metrics are missing key {key!r}")
    derived = document["derived"]
    require(isinstance(derived, Mapping), "telemetry 'derived' must be a mapping")
    for key in (
        "lp_solve_count",
        "metric_cache_builds",
        "metric_cache_hits",
        "metric_cache_hit_rate",
    ):
        if key not in derived:
            raise ValidationError(f"telemetry derived block is missing key {key!r}")


def metrics_table_rows(
    counters: Mapping[str, float], *, wall_seconds: float | None = None
) -> list[tuple[str, str]]:
    """(metric, value) rows for the human-readable metrics table.

    Leads with the derived headline numbers (LP solve count, metric
    cache hit rate), then every non-zero raw counter.
    """
    derived = derived_metrics(counters)
    rows: list[tuple[str, str]] = [
        ("LP solve count", f"{derived['lp_solve_count']:.0f}"),
        (
            "metric cache hit rate",
            f"{derived['metric_cache_hit_rate']:.3f} "
            f"({derived['metric_cache_hits']:.0f} hits / "
            f"{derived['metric_cache_builds']:.0f} builds)",
        ),
    ]
    if wall_seconds is not None:
        rows.append(("wall seconds", f"{wall_seconds:.4f}"))
    for name, value in sorted(counters.items()):
        if value != 0:
            rows.append((name, f"{value:g}"))
    return rows
