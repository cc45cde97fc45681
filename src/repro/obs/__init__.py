"""Observability: metrics registry, event log, and snapshots.

See :mod:`repro.obs.metrics` for the registry, metric kinds and the
per-request event log.  Per-stage request timing (the Fig 9 spans) is
recorded into ``*.span.*`` histograms.  The snapshot schema is
documented in ``docs/architecture.md`` (Observability section).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    render_events,
    request_timeline,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "render_events",
    "request_timeline",
]
