"""Observability for the BRMI stack: tracing, metrics, exports.

The paper's core claim is about *where time and bytes go* — n round
trips under naive RMI collapsing into one batched exchange.  This
package makes that observable on every transport, not just the
simulator:

- **trace-context propagation** — an optional ``trace_id``/``span_id``/
  ``parent_id`` triple rides :class:`~repro.rmi.protocol.CallRequest`
  (wire-compatible when absent), so one batch flush produces a single
  connected span tree spanning client and server;
- **span model** (:mod:`repro.obs.tracer`) — a lock-cheap per-process
  :class:`Tracer` with head sampling; retry attempts, shed requests and
  injected faults force-sample so failures are never invisible;
- **unified metrics** (:mod:`repro.obs.metrics`) — a
  :class:`MetricsRegistry` of named counters/gauges/histograms that the
  existing fragmented telemetry (``TrafficStats``, ``ServerMetrics``,
  plan-cache, dedup, scheduler) publishes into via
  :mod:`repro.obs.bridge`, with one text exposition and mergeable
  per-process dumps;
- **export and rendering** (:mod:`repro.obs.export`) — JSON-lines trace
  files, span-tree and message-chart renderers, and a well-formedness
  checker behind ``python -m repro.obs``;
- **live introspection** (:mod:`repro.obs.live`) — a JSON-over-frames
  admin endpoint per serving process (health, live metrics, the
  tracer's always-on :class:`FlightRecorder`, a slow log with trace-id
  exemplars) plus cluster aggregation across supervised shards, polled
  by ``python -m repro.obs top|health|snapshot``.

There is one instrumented path: hot paths open their spans on whatever
:func:`current_tracer` returns, and with no tracer installed that is
:data:`NULL_TRACER`, whose spans are one shared do-nothing object — the
statements that run traced are the statements that run in production.
"""

from repro.obs.context import TraceContext, current_span
from repro.obs.export import (
    build_trace_trees,
    check_spans,
    read_jsonl,
    render_message_chart,
    render_span_tree,
)
from repro.obs.live import (
    AdminClient,
    AdminError,
    AdminServer,
    admin_request,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsKindError,
    MetricsRegistry,
    percentile,
)
from repro.obs.tracer import (
    NULL_TRACER,
    FlightRecorder,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)

__all__ = [
    "AdminClient",
    "AdminError",
    "AdminServer",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsKindError",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "TraceContext",
    "Tracer",
    "admin_request",
    "build_trace_trees",
    "check_spans",
    "current_span",
    "current_tracer",
    "install_tracer",
    "percentile",
    "read_jsonl",
    "render_message_chart",
    "render_span_tree",
    "uninstall_tracer",
]
