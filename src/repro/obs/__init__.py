"""Observability: metrics registry, spans, event log, and snapshots.

See :mod:`repro.obs.metrics` for the registry, metric kinds and the
per-request event log, and :mod:`repro.obs.span` for per-stage request
timing.  The snapshot schema
is documented in ``docs/architecture.md`` (Observability section).
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
from repro.obs.span import Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "render_events",
    "request_timeline",
]
