"""Unified observability: metrics registry, request tracing, exposition.

The paper's results are measurements (Table 1 wall clocks, Figure 7's
224 → 29,038 req/min spread); this package is the measurement substrate
the reproduction runs on.  One :class:`Observability` bundle per
deployment owns:

* a :class:`MetricsRegistry` of thread-safe counters, gauges, and
  mergeable fixed-bucket latency histograms (p50/p90/p99) that every
  :class:`CounterView` table (``RuntimeStats``, ``CacheStats``,
  ``ProxyCounters``, ``PoolStats``) registers its instruments into,
* request-scoped :class:`Trace` objects with the named-span taxonomy
  ``session / detect / filter / adapt / render / cache / serialize``
  threaded through the proxy pipeline via a thread-local, and
* a :class:`TraceRecorder` capturing recent and slow requests.

Exposition lives in :mod:`repro.observability.exposition`: Prometheus
text (``GET /metrics`` on the proxy, ``msite metrics``) and JSON trace
dumps (``GET /traces``, ``msite trace``).  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.observability.hub import Observability
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
)
from repro.observability.tracing import (
    Span,
    Trace,
    TraceRecorder,
    activate,
    current_trace,
    span,
)

__all__ = [
    "Counter",
    "CounterView",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "Observability",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "Trace",
    "TraceRecorder",
    "activate",
    "current_trace",
    "parse_prometheus",
    "render_prometheus",
    "span",
]
