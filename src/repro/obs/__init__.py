"""``repro.obs`` — dependency-free telemetry: metrics, spans, exposition.

Three pieces, all stdlib:

* :mod:`repro.obs.metrics` — thread-safe counters / gauges / histograms
  in get-or-create registries; a process-wide default registry plus
  per-component private ones (the serve tier isolates per service).
* :mod:`repro.obs.trace` — ``obs.span("evaluate", attrs=...)`` context
  managers with ``perf_counter`` timing, parent/child nesting, and JSONL
  export; off by default, enabled by ``serve --trace`` / ``REPRO_TRACE``.
* :mod:`repro.obs.prometheus` — text exposition render + strict parse.

The hard invariant (lint rule **RL006**): telemetry is out-of-band.
No value originating here may flow into canonical result payloads or
``canonical_body`` bytes — every differential bit-identity suite passes
unchanged with tracing enabled, and ``set_enabled(False)`` reduces every
instrument mutation to one attribute check.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    set_enabled,
    snapshot,
)
from repro.obs.prometheus import parse_prometheus_text, render_prometheus
from repro.obs.trace import (
    Tracer,
    current_span_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)
from repro.obs.trace import _init_from_env as _trace_init_from_env

__all__ = [
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "counter",
    "current_span_id",
    "disable_tracing",
    "enable_tracing",
    "enabled",
    "gauge",
    "get_tracer",
    "histogram",
    "parse_prometheus_text",
    "render_prometheus",
    "set_enabled",
    "snapshot",
    "span",
    "tracing_enabled",
]

_trace_init_from_env()
