"""Unified observability: tracing and heartbeats, fork-safe metrics, flight.

Stdlib-only and lock-free by design -- the whole package sits inside the
fork-safety lint scope, because its module-global state (the active
:class:`~repro.obs.trace.ObsCollector`, the open capture, the process
:class:`~repro.obs.metrics.MetricsRegistry`) is inherited by every forked
cube/campaign/serve worker exactly like :data:`repro.faults._INJECTOR`.

The three pieces:

* :mod:`repro.obs.trace` -- trace contexts, spans, span events and solver
  heartbeats (a span-event kind sampled off the solver's cold branches:
  conflicts, propagations/s, trail depth, LBD histogram, restart
  cadence), the capture/absorb protocol, and the server-side per-job
  :class:`~repro.obs.trace.TraceStore` behind ``GET /jobs/<id>/trace``
  and its heartbeat view ``GET /jobs/<id>/telemetry``;
* :mod:`repro.obs.metrics` -- counters/gauges/histograms with explicit
  delta merge and Prometheus text rendering;
* :mod:`repro.obs.flight` -- the failure flight recorder (bounded JSON
  artifacts for failed/quarantined/deadline-expired jobs).

The capture/absorb contract: every fork entry runs its work inside
:func:`capture`, which yields one JSON-safe ``ObsBatch`` -- completed
spans, events (heartbeats included), a ``dropped`` count and the
process-metrics delta recorded inside it -- and the receiving side takes
it in with :func:`absorb` (or, on the server,
:meth:`~repro.obs.trace.TraceStore.absorb` plus one metrics merge).  A
capture uses the collector it inherited and never creates one (only
trace roots do); ``capture(ship=...)`` also ships new events while the
work runs, and only from the process that opened it.

Spans are the one duration API: every ``*_seconds`` field is read off the
:func:`span` that times its work, even with observability off, where a
span costs two clock reads and one small object; :func:`active` and
:func:`event` then cost one global load and an ``is None`` branch.  None
of the helpers (:func:`process_metrics` included) sits in
``# hot-loop`` regions ever (solver counters and heartbeats are sampled
at the existing per-call, per-bound and cold-branch boundaries only).
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus,
    process_metrics,
    reset_process_metrics,
)
from repro.obs.trace import (
    ObsBatch,
    ObsCollector,
    SpanHandle,
    TraceStore,
    absorb,
    active,
    capture,
    clear,
    enabled,
    event,
    install,
    last_trace,
    new_trace_id,
    set_enabled,
    span,
    start_trace,
    sum_self_seconds,
)

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "ObsBatch",
    "ObsCollector",
    "SpanHandle",
    "TraceStore",
    "absorb",
    "active",
    "capture",
    "clear",
    "enabled",
    "event",
    "install",
    "last_trace",
    "new_trace_id",
    "parse_prometheus",
    "process_metrics",
    "reset_process_metrics",
    "set_enabled",
    "span",
    "start_trace",
    "sum_self_seconds",
]
