"""End-to-end tracing: spans, span events, heartbeats, capture, trace stores.

The tracing layer follows the :mod:`repro.deadline` / :mod:`repro.faults`
threading model exactly: one module-global :class:`ObsCollector` (or
``None``), installed at a trace root -- queued job execution
(:func:`repro.serve.queue.execute_job_spec`, for served and campaign jobs
alike), :func:`repro.eval.campaign.detect_bug` or
:func:`~repro.eval.campaign.run_campaign` for direct runs -- and inherited
by forked workers through the copy-on-write memory snapshot.

**Spans are the one duration API.**  Every ``*_seconds`` field is read
off the :func:`span` that times its work: it stamps ``time.monotonic()``
at open and at close, collector or not, and the recorded span gets those
same stamps, so the field equals the span's ``end - start`` exactly.
With tracing off a span costs two clock reads and one small object (none
sits in a ``# hot-loop`` region); :func:`active` and :func:`event` cost a
module-global load and an ``is None`` branch.

Solver heartbeats are one more span-event kind (:data:`HEARTBEAT`),
sampled off the solver's cold branches through the active collector, so
they share its bounded event ring, its drop counter and its shipping.

**The capture/absorb contract.**  Every fork entry (a cube worker's loop,
the queue's job entry) runs its work inside
:func:`capture`, which yields one JSON-safe :data:`ObsBatch` -- completed
spans, events, a ``dropped`` count and the process-metrics delta recorded
inside it -- shipped home over whatever channel the worker already reports
on and taken in with :func:`absorb` (on the queue: :meth:`TraceStore.absorb`
plus one metrics merge).  Span ids are the recording pid plus one
process-wide sequence, so batches from any number of children, and any
number of jobs of one child, merge without collisions.  A child's spans
parent under the span that was open at fork time; spans that arrive
without a parent (a job traced by a collector of its own, as a campaign
takes its jobs' traces in) attach under the span open at absorb time.
``capture(ship=...)`` also ships new events while the work runs, which
keeps a served job's heartbeats live; only the process that opened a
capture ever ships from it.

No locks anywhere: collectors are single-writer by construction (one
process, one logical job at a time), which is what lets this module sit
inside the fork-safety lint scope.  The one caveat is serve workers that
solve on threads (``use_processes=False``) when more than one runs in a
process: concurrent jobs share the module globals (collector, capture,
process registry), so their spans, events and metric deltas may land in
the wrong job's batch or be lost.  The default, one solver child per
worker, is exact.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

__all__ = [
    "HEARTBEAT",
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
    "set_enabled",
    "span",
    "start_trace",
]

#: One recorded span: ids, name, monotonic start/end, free-form attributes.
SpanDict = Dict[str, object]
#: One span event: monotonic timestamp, name, owning span id, attributes.
EventDict = Dict[str, object]
#: What a capture yields and :func:`absorb` takes: completed ``spans``,
#: ``events``, the ``dropped`` event count and the ``metrics`` delta (a
#: :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; final batch only).
ObsBatch = Dict[str, object]

#: Event name of a solver heartbeat; its attrs are the flat heartbeat dict.
HEARTBEAT = "heartbeat"
#: Minimum seconds between sampled heartbeats (:meth:`ObsCollector.heartbeat_due`).
HEARTBEAT_INTERVAL_SECONDS = 0.05
#: Minimum seconds between live shipments of a ``capture(ship=...)``.
SHIP_INTERVAL_SECONDS = 0.25
#: Samples kept in the propagations/s sliding window.
_PPS_WINDOW = 16

_TRACE_SEQ = 0
#: The one span-id sequence of this process (every collector and store).
_SPAN_SEQ = 0


def new_trace_id() -> str:
    """A process-unique trace id (pid + per-process sequence, no RNG)."""
    global _TRACE_SEQ
    _TRACE_SEQ += 1
    return f"t{os.getpid():08x}{_TRACE_SEQ:06d}"


def _next_span_seq() -> int:
    global _SPAN_SEQ
    _SPAN_SEQ += 1
    return _SPAN_SEQ


class ObsCollector:
    """Per-trace span/event sink; one per process per logical job.

    Spans and events are bounded (oldest events are dropped ring-style,
    span recording stops at the cap) so a pathological run cannot grow
    memory without bound.  Span ids embed ``os.getpid()`` *at record
    time* and the process-wide span sequence, so spans recorded by a
    forked child never collide with spans the parent records after the
    fork, nor with the child's spans of an earlier job.
    """

    __slots__ = (
        "trace_id",
        "base_epoch",
        "spans",
        "events",
        "max_spans",
        "max_events",
        "events_total",
        "dropped_events",
        "heartbeats",
        "_stack",
        "_beat_seq",
        "_last_beat",
        "_pps_window",
        "_beat_context",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        *,
        max_spans: int = 4096,
        max_events: int = 2048,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.trace_id: str = trace_id or new_trace_id()
        self.base_epoch: float = time.time() - time.monotonic()
        self.spans: List[SpanDict] = []
        self.events: List[EventDict] = []
        self.max_spans = max_spans
        self.max_events = max_events
        #: Events ever appended to the ring (the capture cursor).
        self.events_total = 0
        #: Events lost: evicted from this ring, or reported dropped by an
        #: absorbed batch (the one drop counter).
        self.dropped_events = 0
        #: :data:`HEARTBEAT` events ever appended (the ``/telemetry`` cursor).
        self.heartbeats = 0
        self._stack: List[str] = []
        self._beat_seq = 0
        # -inf, not 0.0: ``time.monotonic()`` counts from boot, so a zero
        # start would refuse every sample on a host up for less than the
        # throttle interval.
        self._last_beat = float("-inf")
        self._pps_window: List[Tuple[float, int]] = []
        self._beat_context: Dict[str, object] = {}

    # -- recording ------------------------------------------------------
    def begin(
        self,
        name: str,
        attrs: Optional[Dict[str, object]] = None,
        start: Optional[float] = None,
    ) -> SpanDict:
        """Open a span as a child of the innermost open span, stamped
        *start* (default: now)."""
        span_id = f"{os.getpid():x}.{_next_span_seq()}"
        record: SpanDict = {
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "attrs": dict(attrs) if attrs else {},
        }
        self._stack.append(span_id)
        if len(self.spans) < self.max_spans:
            self.spans.append(record)
        return record

    def end(self, record: SpanDict, at: Optional[float] = None) -> None:
        """Close *record* at *at* (default: now), and anything left open
        beneath it."""
        record["end"] = time.monotonic() if at is None else at
        span_id = record["span_id"]
        if span_id in self._stack:
            while self._stack:
                popped = self._stack.pop()
                if popped == span_id:
                    break

    def _append_event(self, entry: EventDict) -> None:
        if len(self.events) >= self.max_events:
            del self.events[0]
            self.dropped_events += 1
        self.events.append(entry)
        self.events_total += 1
        if entry.get("name") == HEARTBEAT:
            self.heartbeats += 1

    def event(self, name: str, attrs: Optional[Dict[str, object]] = None) -> None:
        """Record a point-in-time event under the innermost open span."""
        self._append_event(
            {
                "t": time.monotonic(),
                "name": name,
                "span_id": self._stack[-1] if self._stack else None,
                "attrs": dict(attrs) if attrs else {},
            }
        )

    # -- heartbeats -----------------------------------------------------
    def heartbeat_due(self) -> bool:
        """Whether enough wall clock passed to sample another heartbeat
        (so a restart storm samples at a bounded rate)."""
        return time.monotonic() - self._last_beat >= HEARTBEAT_INTERVAL_SECONDS

    def set_heartbeat_context(self, **fields: object) -> None:
        """Merge *fields* (the bound searched, the cube worker) into every
        later heartbeat; ``None`` drops a key."""
        for key, value in fields.items():
            if value is None:
                self._beat_context.pop(key, None)
            else:
                self._beat_context[key] = value

    def heartbeat(self, site: str, **fields: object) -> Dict[str, object]:
        """Record one heartbeat sampled at *site* and return it.

        ``fields`` are raw solver counters (``conflicts``, ``propagations``,
        ``trail_depth``, ...), stamped with a sequence number, pid, wall
        time and the heartbeat context, plus ``pps``: propagations/s over
        a sliding window that resets when ``propagations`` decreases (a
        fresh solver).  The result is the attrs of a :data:`HEARTBEAT`
        event, which an open ``capture(ship=...)`` may ship at once.
        """
        now = time.monotonic()
        beat: Dict[str, object] = {
            "seq": self._beat_seq,
            "pid": os.getpid(),
            "t": time.time(),
            "site": site,
        }
        beat.update(self._beat_context)
        beat.update(fields)
        propagations = fields.get("propagations")
        if isinstance(propagations, int):
            window = self._pps_window
            if window and propagations < window[-1][1]:
                del window[:]
            window.append((now, propagations))
            if len(window) > _PPS_WINDOW:
                del window[0]
            elapsed = window[-1][0] - window[0][0]
            if elapsed > 0:
                beat["pps"] = (window[-1][1] - window[0][1]) / elapsed
        self._beat_seq += 1
        self._last_beat = now
        self.event(HEARTBEAT, beat)
        if _CAPTURE is not None:
            _CAPTURE.maybe_ship()
        return beat

    # -- merging --------------------------------------------------------
    def absorb(self, batch: ObsBatch) -> None:
        """Merge a child's shipped batch into this collector.

        Child span ids are pid-prefixed and child parent ids point either
        at the child's own spans or at spans inherited from this very
        collector, so a plain append reconstructs the tree.  A span with
        no parent attaches under the innermost open span.
        """
        spans = batch.get("spans")
        if isinstance(spans, list):
            room = self.max_spans - len(self.spans)
            if room > 0:
                anchor = self._stack[-1] if self._stack else None
                self.spans.extend(
                    span if span.get("parent_id") is not None
                    else dict(span, parent_id=anchor)
                    for span in spans[:room]
                )
        events = batch.get("events")
        if isinstance(events, list):
            for entry in events:
                self._append_event(entry)
        dropped = batch.get("dropped")
        if isinstance(dropped, int) and dropped > 0:
            self.dropped_events += dropped

    # -- views ----------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "base_epoch": self.base_epoch,
            "spans": list(self.spans),
            "events": list(self.events),
            "dropped_events": self.dropped_events,
        }


# ----------------------------------------------------------------------
# Module-global installation (the faults._INJECTOR pattern).

_COLLECTOR: Optional[ObsCollector] = None
_LAST: Optional[ObsCollector] = None
_ENABLED = True


def install(collector: ObsCollector) -> ObsCollector:
    """Install *collector* as the process's active trace sink."""
    global _COLLECTOR
    _COLLECTOR = collector
    return collector


def clear() -> Optional[ObsCollector]:
    """Uninstall and stash the collector; :func:`last_trace` keeps it."""
    global _COLLECTOR, _LAST
    collector, _COLLECTOR = _COLLECTOR, None
    if collector is not None:
        _LAST = collector
    return collector


def active() -> Optional[ObsCollector]:
    """The installed collector, or ``None`` when tracing is off."""
    return _COLLECTOR


def last_trace() -> Optional[ObsCollector]:
    """The most recently cleared collector (how direct runs read back)."""
    return _LAST


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable trace creation (:func:`start_trace`).

    Disabling does *not* tear down an installed collector; it only makes
    the trace roots (`detect_bug`, `run_campaign`, job execution) skip
    creating one -- which also switches heartbeats off, since they are
    recorded through the collector.  This is the observability-off mode
    the byte-identical record guarantee is tested against.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = flag
    return previous


def enabled() -> bool:
    """Whether trace creation is globally enabled (see :func:`set_enabled`)."""
    return _ENABLED


def start_trace(trace_id: Optional[str] = None) -> Optional[ObsCollector]:
    """Create and install a collector unless tracing is disabled."""
    if not _ENABLED:
        return None
    return install(ObsCollector(trace_id))


class SpanHandle:
    """A timed span: ``start``/``end`` are the monotonic stamps taken at
    open and close, and also the recorded span's; see :func:`span`."""

    __slots__ = ("_collector", "_record", "start", "end")

    def __init__(
        self,
        collector: Optional[ObsCollector],
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._collector = collector
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self._record: Optional[SpanDict] = None
        if collector is not None:
            self._record = collector.begin(name, attrs or None, self.start)

    @property
    def seconds(self) -> float:
        """The closed span's duration, ``end - start``."""
        assert self.end is not None, "span is still open"
        return self.end - self.start

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span (no-op when tracing is off)."""
        if self._record is not None:
            merged = self._record["attrs"]
            if isinstance(merged, dict):
                merged.update(attrs)

    def close(self, **attrs: object) -> None:
        """Close the span now (idempotent; for non-``with`` call sites)."""
        if self.end is not None:
            return
        self.end = time.monotonic()
        if self._collector is not None and self._record is not None:
            self.set(**attrs)
            self._collector.end(self._record, self.end)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def span(name: str, **attrs: object) -> SpanHandle:
    """Open a span: it always times its work, and it is recorded on the
    active collector when there is one."""
    return SpanHandle(_COLLECTOR, name, attrs)


def event(name: str, **attrs: object) -> None:
    """Record a span event on the active collector, if any."""
    collector = _COLLECTOR
    if collector is not None:
        collector.event(name, attrs or None)


# ----------------------------------------------------------------------
# The capture protocol: one batch per fork boundary.


class _Capture:
    """State of one open :func:`capture`: cursors, metric swap, shipper."""

    __slots__ = (
        "collector",
        "ship",
        "pid",
        "previous",
        "saved_metrics",
        "delta",
        "spans_mark",
        "events_mark",
        "upstream_mark",
        "unsent",
        "last_ship",
    )

    def __init__(self, ship: Optional[Callable[[ObsBatch], None]]) -> None:
        collector = self.collector = _COLLECTOR
        self.ship = ship
        self.pid = os.getpid()
        self.previous = _CAPTURE
        self.delta = obs_metrics.MetricsRegistry()
        self.saved_metrics = obs_metrics.swap_process_metrics(self.delta)
        self.spans_mark, self.events_mark, self.upstream_mark = (
            (0, 0, 0)
            if collector is None
            else (len(collector.spans), collector.events_total, _upstream(collector))
        )
        #: Events a failing shipper lost (shipped on as dropped).
        self.unsent = 0
        self.last_ship = float("-inf")

    def take(self, *, final: bool) -> ObsBatch:
        """What was recorded since the last take (spans only if final)."""
        spans: List[SpanDict] = []
        events: List[EventDict] = []
        dropped, self.unsent = self.unsent, 0
        collector = self.collector
        if collector is not None:
            new = collector.events_total - self.events_mark
            kept = min(new, len(collector.events))
            upstream = _upstream(collector)
            events = collector.events[len(collector.events) - kept :]
            dropped += new - kept + upstream - self.upstream_mark
            self.events_mark, self.upstream_mark = collector.events_total, upstream
            if final:
                spans = [
                    s for s in collector.spans[self.spans_mark :]
                    if s["end"] is not None
                ]
        return {"spans": spans, "events": events, "dropped": dropped}

    def send(self, batch: ObsBatch) -> None:
        """Ship *batch*; a failing shipper loses its events, never the run."""
        assert self.ship is not None
        try:
            self.ship(batch)
        except Exception:
            self.unsent += len(batch["events"]) + batch["dropped"]

    def maybe_ship(self) -> None:
        """Ship the new events if a shipment is due (opening pid only)."""
        if self.ship is None or self.pid != os.getpid():
            return
        now = time.monotonic()
        if now - self.last_ship < SHIP_INTERVAL_SECONDS:
            return
        self.last_ship = now
        batch = self.take(final=False)
        if batch["events"] or batch["dropped"]:
            self.send(batch)

    def close(self) -> ObsBatch:
        """Restore the metric registry and build (and ship) the final batch."""
        global _CAPTURE
        _CAPTURE = self.previous
        obs_metrics.swap_process_metrics(self.saved_metrics)
        delta = self.delta.snapshot()
        self.saved_metrics.merge(delta)
        batch = self.take(final=True)
        batch["metrics"] = delta
        if self.ship is not None and self.pid == os.getpid():
            self.send(batch)
        return batch


def _upstream(collector: ObsCollector) -> int:
    """Drops *reported by* absorbed batches (all drops minus evictions)."""
    return collector.dropped_events - (
        collector.events_total - len(collector.events)
    )


_CAPTURE: Optional[_Capture] = None


@contextmanager
def capture(
    ship: Optional[Callable[[ObsBatch], None]] = None,
) -> Iterator[ObsBatch]:
    """Capture what the enclosed work records, as one :data:`ObsBatch`.

    The yielded dict is filled in on exit: the spans completed inside the
    capture (open ones are withheld), the events recorded inside it that
    the ring still holds, how many were lost (``dropped``: evicted before
    shipping, reported by absorbed batches, or lost to a failing
    shipper), and the process-metrics delta -- a fresh process registry
    is swapped in for the duration and merged back on exit.

    The capture uses the installed collector and never creates one (only
    trace roots do); with none it ships just the metric delta.  *ship*,
    when given, receives batches of new events at most every
    :data:`SHIP_INTERVAL_SECONDS` while the work runs, then the final
    batch -- and only ever in the process that opened the capture, so a
    forked child never ships on its parent's channel.
    """
    global _CAPTURE
    state = _Capture(ship)
    _CAPTURE = state
    batch: ObsBatch = {}
    try:
        yield batch
    finally:
        batch.update(state.close())


def absorb(batch: Optional[ObsBatch]) -> None:
    """Take a child's batch in: spans and events, drops, metric delta.

    The active collector (if any) absorbs the spans, events and drop
    count, the process registry merges the metric delta, and an open
    ``capture(ship=...)`` ships the news onward when a shipment is due.
    """
    if not batch:
        return
    collector = _COLLECTOR
    if collector is not None:
        collector.absorb(batch)
    delta = batch.get("metrics")
    if isinstance(delta, dict):
        obs_metrics.process_metrics().merge(delta)
    if _CAPTURE is not None:
        _CAPTURE.maybe_ship()


# ----------------------------------------------------------------------
class TraceStore:
    """Server-side per-job trace aggregation (the ``/jobs/<id>/trace`` view).

    Each job's trace is an :class:`ObsCollector` -- the same bounded span
    list, event ring and drop counter a worker records into.  The serve
    queue records its own spans (queue-wait, lint, cache read/write,
    attempts) directly into the store and *re-roots* batches shipped up
    from worker processes: a shipped span whose parent is unknown to the
    store attaches under the span the batch arrived for (the running
    attempt), which is what stitches a forked worker's subtree into the
    job's trace under the job's trace id.  A job's heartbeats are its
    :data:`HEARTBEAT` events (:meth:`heartbeats`).

    Bounded twice over -- per-job span/event caps, and at most
    ``max_jobs`` traces of *finished* jobs (oldest-finished evicted
    first; a queued or running job's trace is never evicted) -- so a
    long-lived server cannot grow without bound.  Only ever touched from
    the queue's event-loop thread.
    """

    def __init__(
        self,
        *,
        max_jobs: int = 256,
        max_spans: int = 2048,
        max_events: int = 1024,
    ) -> None:
        self.max_jobs = max_jobs
        self.max_spans = max_spans
        self.max_events = max_events
        self._jobs: Dict[str, ObsCollector] = {}
        #: Finished job ids, oldest-finished first (an ordered set).
        self._finished: Dict[str, None] = {}

    def ensure(self, job_id: str, trace_id: str) -> None:
        if job_id not in self._jobs:
            self._jobs[job_id] = ObsCollector(
                trace_id, max_spans=self.max_spans, max_events=self.max_events
            )

    def finish(self, job_id: str) -> None:
        """Mark *job_id* finished: past ``max_jobs`` finished traces, the
        oldest-finished one is evicted."""
        if job_id not in self._jobs or job_id in self._finished:
            return
        self._finished[job_id] = None
        while len(self._finished) > self.max_jobs:
            oldest = next(iter(self._finished))
            del self._finished[oldest]
            del self._jobs[oldest]

    def known(self, job_id: str) -> bool:
        return job_id in self._jobs

    # -- queue-side spans ----------------------------------------------
    def add_span(
        self,
        job_id: str,
        name: str,
        start: float,
        end: Optional[float],
        *,
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> Optional[str]:
        """Record a queue-side span; returns its id.

        Pass ``end=None`` to open the span (e.g. a dispatch attempt whose
        worker batches must attach to it while it is still running) and
        settle it later with :meth:`close_span`.
        """
        entry = self._jobs.get(job_id)
        if entry is None or len(entry.spans) >= self.max_spans:
            return None
        span_id = f"q.{_next_span_seq()}"
        entry.spans.append(
            {
                "span_id": span_id,
                "parent_id": parent_id,
                "name": name,
                "start": start,
                "end": end,
                "attrs": dict(attrs),
            }
        )
        return span_id

    def close_span(
        self,
        job_id: str,
        span_id: Optional[str],
        end: float,
        **attrs: object,
    ) -> None:
        """Settle an open span recorded with ``add_span(..., end=None)``."""
        entry = self._jobs.get(job_id)
        if entry is None or span_id is None:
            return
        for record in reversed(entry.spans):
            if record.get("span_id") == span_id:
                record["end"] = end
                if attrs:
                    merged = record.get("attrs")
                    if isinstance(merged, dict):
                        merged.update(attrs)
                return

    def add_event(self, job_id: str, name: str, **attrs: object) -> None:
        entry = self._jobs.get(job_id)
        if entry is not None:
            entry.event(name, attrs)

    # -- worker batches -------------------------------------------------
    def absorb(
        self,
        job_id: str,
        batch: ObsBatch,
        *,
        attach_to: Optional[str] = None,
    ) -> None:
        """Merge a worker-shipped batch into the job's trace.

        Spans whose parent id is not present (neither in the batch nor
        already stored) are re-rooted under *attach_to* -- the worker's
        own root becomes a child of the queue's attempt span, and the
        worker subtree below it comes along untouched.  The batch's
        ``dropped`` count adds to the job's ``dropped_events``.
        """
        entry = self._jobs.get(job_id)
        if entry is None:
            return
        known_ids = {s["span_id"] for s in entry.spans}
        spans = [s for s in _as_list(batch.get("spans")) if isinstance(s, dict)]
        batch_ids = {s.get("span_id") for s in spans}
        rerooted = []
        for raw in spans:
            record = dict(raw)
            parent = record.get("parent_id")
            if parent is None or (
                parent not in batch_ids and parent not in known_ids
            ):
                record["parent_id"] = attach_to
            rerooted.append(record)
        events = [
            dict(e) for e in _as_list(batch.get("events")) if isinstance(e, dict)
        ]
        entry.absorb(
            {"spans": rerooted, "events": events, "dropped": batch.get("dropped")}
        )

    # -- views ----------------------------------------------------------
    def to_json_dict(self, job_id: str) -> Optional[Dict[str, object]]:
        entry = self._jobs.get(job_id)
        if entry is None:
            return None
        return {"job_id": job_id, **entry.to_json_dict()}

    def batch(self, job_id: str) -> Optional[ObsBatch]:
        """The job's whole trace as one :data:`ObsBatch` for
        :func:`absorb` (``None`` when untraced)."""
        entry = self._jobs.get(job_id)
        if entry is None:
            return None
        return {
            "spans": list(entry.spans),
            "events": list(entry.events),
            "dropped": entry.dropped_events,
        }

    def heartbeat_count(self, job_id: str) -> int:
        """Heartbeats the job's trace has received (0 when untraced)."""
        entry = self._jobs.get(job_id)
        return 0 if entry is None else entry.heartbeats

    def heartbeats(self, job_id: str) -> List[Dict[str, object]]:
        """The job's retained heartbeats, oldest first (flat dicts).

        The event ring evicts oldest first, so these are the newest of
        the :meth:`heartbeat_count` received; the rest were evicted.
        """
        entry = self._jobs.get(job_id)
        if entry is None:
            return []
        return [
            e["attrs"]
            for e in entry.events
            if e.get("name") == HEARTBEAT and isinstance(e.get("attrs"), dict)
        ]

    def job_ids(self) -> List[str]:
        return list(self._jobs)


def _as_list(value: object) -> List[object]:
    return value if isinstance(value, list) else []


def sum_self_seconds(spans: Iterable[SpanDict]) -> Dict[str, List[float]]:
    """Aggregate per-name [count, total, self] seconds over *spans*.

    Self time is a span's duration minus the durations of its direct
    children -- the "where did the time go" decomposition the trace
    renderer prints.  Open spans (no end) are skipped.
    """
    closed = [s for s in spans if isinstance(s.get("end"), float)]
    child_seconds: Dict[object, float] = {}
    for record in closed:
        parent = record.get("parent_id")
        if parent is not None:
            start = record["start"]
            end = record["end"]
            assert isinstance(start, float) and isinstance(end, float)
            child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start)
    table: Dict[str, List[float]] = {}
    for record in closed:
        start = record["start"]
        end = record["end"]
        assert isinstance(start, float) and isinstance(end, float)
        total = end - start
        own = max(0.0, total - child_seconds.get(record["span_id"], 0.0))
        name = str(record.get("name"))
        row = table.setdefault(name, [0.0, 0.0, 0.0])
        row[0] += 1.0
        row[1] += total
        row[2] += own
    return table
