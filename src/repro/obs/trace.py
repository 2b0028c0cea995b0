"""End-to-end tracing: trace contexts, spans, span events, trace stores.

The tracing layer follows the :mod:`repro.deadline` / :mod:`repro.faults`
threading model exactly: one module-global :class:`ObsCollector` (or
``None``), installed at a trace root -- ``POST /jobs`` job execution,
:func:`repro.eval.campaign.detect_bug` or
:func:`~repro.eval.campaign.run_campaign` for direct runs -- and inherited
by forked workers through the copy-on-write memory snapshot.  Every
instrumented layer (BMC engine, work scheduler, CDCL solver, fault
injector) asks :func:`active` and does nothing when it returns ``None``,
so the disabled cost is a single module-global load and an ``is None``
branch.

Fork propagation falls out of the memory model: a cube worker forked while
a ``dist.solve`` span is open inherits the collector *with that span on
the stack*, so the worker's first span parents under it and carries the
parent's trace id.  The worker then ships its completed spans back over
whatever pipe it already reports results on (the scheduler's results
queue, the campaign pool's return value, a serve worker's solver-child
pipe) and the parent absorbs them with :meth:`ObsCollector.absorb` --
span ids are prefixed with the recording pid, so batches from any number
of children merge without collisions.

No locks anywhere: collectors are single-writer by construction (one
process, one logical job at a time), which is what lets this module sit
inside the fork-safety lint scope.  The one caveat is serve workers that
solve on threads (``use_processes=False``) when more than one runs in a
process: concurrent jobs share the module global, so spans still render
but may attribute to the wrong job's batch.  The default, one solver
child per worker, is exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ObsCollector",
    "SpanHandle",
    "TraceContext",
    "TraceStore",
    "active",
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

_TRACE_SEQ = 0


def new_trace_id() -> str:
    """A process-unique trace id (pid + per-process sequence, no RNG)."""
    global _TRACE_SEQ
    _TRACE_SEQ += 1
    return f"t{os.getpid():08x}{_TRACE_SEQ:06d}"


@dataclass(frozen=True)
class TraceContext:
    """The wire-safe identity of a trace position: trace id + parent span.

    This is what crosses explicit process boundaries (job rows, shipped
    batches); the richer :class:`ObsCollector` crosses *fork* boundaries
    implicitly via the memory snapshot.
    """

    trace_id: str
    parent_span_id: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id, "parent_span_id": self.parent_span_id}


class ObsCollector:
    """Per-trace span/event sink; one per process per logical job.

    Spans and events are bounded (oldest events are dropped ring-style,
    span recording stops at the cap) so a pathological run cannot grow
    memory without bound.  Span ids embed ``os.getpid()`` *at record
    time*, so spans recorded by a forked child never collide with spans
    the parent records after the fork.
    """

    __slots__ = (
        "trace_id",
        "base_epoch",
        "spans",
        "events",
        "max_spans",
        "max_events",
        "dropped_events",
        "_stack",
        "_seq",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        *,
        max_spans: int = 4096,
        max_events: int = 2048,
    ) -> None:
        self.trace_id: str = trace_id or new_trace_id()
        self.base_epoch: float = time.time() - time.monotonic()
        self.spans: List[SpanDict] = []
        self.events: List[EventDict] = []
        self.max_spans = max_spans
        self.max_events = max_events
        self.dropped_events = 0
        self._stack: List[str] = []
        self._seq = 0

    # -- recording ------------------------------------------------------
    def begin(
        self, name: str, attrs: Optional[Dict[str, object]] = None
    ) -> SpanDict:
        """Open a span as a child of the innermost open span."""
        self._seq += 1
        span_id = f"{os.getpid():x}.{self._seq}"
        record: SpanDict = {
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "attrs": dict(attrs) if attrs else {},
        }
        self._stack.append(span_id)
        if len(self.spans) < self.max_spans:
            self.spans.append(record)
        return record

    def end(self, record: SpanDict, **attrs: object) -> None:
        """Close *record* (and anything left open beneath it)."""
        record["end"] = time.monotonic()
        if attrs:
            merged = record["attrs"]
            if isinstance(merged, dict):
                merged.update(attrs)
        span_id = record["span_id"]
        if span_id in self._stack:
            while self._stack:
                popped = self._stack.pop()
                if popped == span_id:
                    break

    def event(self, name: str, attrs: Optional[Dict[str, object]] = None) -> None:
        """Record a point-in-time event under the innermost open span."""
        if len(self.events) >= self.max_events:
            del self.events[0]
            self.dropped_events += 1
        self.events.append(
            {
                "t": time.monotonic(),
                "name": name,
                "span_id": self._stack[-1] if self._stack else None,
                "attrs": dict(attrs) if attrs else {},
            }
        )

    # -- shipping -------------------------------------------------------
    def mark(self) -> Tuple[int, int]:
        """Snapshot (span, event) counts; pair with :meth:`batch_since`."""
        return (len(self.spans), len(self.events))

    def batch_since(self, mark: Tuple[int, int]) -> Dict[str, object]:
        """Completed spans and events recorded since *mark*, JSON-safe.

        Open spans are withheld (their closing end will ship with a later
        batch once the parent closes them), so a batch is always a set of
        finished measurements.
        """
        spans = [s for s in self.spans[mark[0] :] if s["end"] is not None]
        return {
            "trace_id": self.trace_id,
            "spans": spans,
            "events": self.events[mark[1] :],
        }

    def absorb(self, batch: Dict[str, object]) -> None:
        """Merge a child's shipped batch into this collector.

        Child span ids are pid-prefixed and child parent ids point either
        at the child's own spans or at spans inherited from this very
        collector, so a plain append reconstructs the tree.
        """
        spans = batch.get("spans")
        if isinstance(spans, list):
            room = self.max_spans - len(self.spans)
            if room > 0:
                self.spans.extend(spans[:room])
        events = batch.get("events")
        if isinstance(events, list):
            for entry in events:
                if len(self.events) >= self.max_events:
                    del self.events[0]
                    self.dropped_events += 1
                self.events.append(entry)

    # -- views ----------------------------------------------------------
    def context(self) -> TraceContext:
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=self._stack[-1] if self._stack else None,
        )

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
    the entry points (`detect_bug`, `run_campaign`, job execution) skip
    creating one, which is the observability-off mode the byte-identical
    record guarantee is tested against.
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
    """Context manager that closes its span on exit; see :func:`span`."""

    __slots__ = ("_collector", "_span")

    def __init__(
        self, collector: Optional[ObsCollector], record: Optional[SpanDict]
    ) -> None:
        self._collector = collector
        self._span = record

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span (no-op when tracing is off)."""
        if self._span is not None:
            merged = self._span["attrs"]
            if isinstance(merged, dict):
                merged.update(attrs)

    def close(self, **attrs: object) -> None:
        """Close the span now (idempotent; for non-``with`` call sites)."""
        if attrs:
            self.set(**attrs)
        if self._collector is not None and self._span is not None:
            self._collector.end(self._span)
            self._span = None

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_NULL_SPAN = SpanHandle(None, None)


def span(name: str, **attrs: object) -> SpanHandle:
    """Open a span on the active collector; a shared no-op when off."""
    collector = _COLLECTOR
    if collector is None:
        return _NULL_SPAN
    return SpanHandle(collector, collector.begin(name, attrs or None))


def event(name: str, **attrs: object) -> None:
    """Record a span event on the active collector, if any."""
    collector = _COLLECTOR
    if collector is not None:
        collector.event(name, attrs or None)


# ----------------------------------------------------------------------
class TraceStore:
    """Server-side per-job trace aggregation (the ``/jobs/<id>/trace`` view).

    The serve queue records its own spans (queue-wait, lint, cache
    read/write, attempts) directly into the store and *re-roots* batches
    shipped up from worker processes: a shipped span whose parent is
    unknown to the store attaches under the span the batch arrived for
    (the running attempt), which is what stitches a forked worker's
    subtree into the job's trace under the job's trace id.

    Bounded twice over -- per-job span/event caps plus a job cap with
    oldest-first eviction -- so a long-lived server cannot grow without
    bound.  Only ever touched from the queue's event-loop thread.
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
        self._jobs: Dict[str, Dict[str, object]] = {}
        self._seq = 0

    def ensure(self, job_id: str, trace_id: str) -> None:
        if job_id in self._jobs:
            return
        while len(self._jobs) >= self.max_jobs:
            oldest = next(iter(self._jobs))
            del self._jobs[oldest]
        self._jobs[job_id] = {
            "trace_id": trace_id,
            "base_epoch": time.time() - time.monotonic(),
            "spans": [],
            "events": [],
            "dropped_events": 0,
        }

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
        if entry is None:
            return None
        spans = entry["spans"]
        assert isinstance(spans, list)
        if len(spans) >= self.max_spans:
            return None
        self._seq += 1
        span_id = f"q.{self._seq}"
        spans.append(
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
        spans = entry["spans"]
        assert isinstance(spans, list)
        for record in reversed(spans):
            if record.get("span_id") == span_id:
                record["end"] = end
                if attrs:
                    merged = record.get("attrs")
                    if isinstance(merged, dict):
                        merged.update(attrs)
                return

    def add_event(
        self,
        job_id: str,
        name: str,
        *,
        span_id: Optional[str] = None,
        **attrs: object,
    ) -> None:
        entry = self._jobs.get(job_id)
        if entry is None:
            return
        events = entry["events"]
        assert isinstance(events, list)
        if len(events) >= self.max_events:
            del events[0]
            dropped = entry.get("dropped_events", 0)
            entry["dropped_events"] = int(dropped) + 1 if isinstance(dropped, int) else 1
        events.append(
            {
                "t": time.monotonic(),
                "name": name,
                "span_id": span_id,
                "attrs": dict(attrs),
            }
        )

    # -- worker batches -------------------------------------------------
    def absorb(
        self,
        job_id: str,
        batch: Dict[str, object],
        *,
        attach_to: Optional[str] = None,
    ) -> None:
        """Merge a worker-shipped batch into the job's trace.

        Spans whose parent id is not present (neither in the batch nor
        already stored) are re-rooted under *attach_to* -- the worker's
        own root becomes a child of the queue's attempt span, and the
        worker subtree below it comes along untouched.
        """
        entry = self._jobs.get(job_id)
        if entry is None:
            return
        spans = entry["spans"]
        events = entry["events"]
        assert isinstance(spans, list) and isinstance(events, list)
        known_ids = {s["span_id"] for s in spans}
        incoming = batch.get("spans")
        if isinstance(incoming, list):
            batch_ids = {
                s.get("span_id") for s in incoming if isinstance(s, dict)
            }
            for raw in incoming:
                if not isinstance(raw, dict) or len(spans) >= self.max_spans:
                    continue
                record = dict(raw)
                parent = record.get("parent_id")
                if parent is None or (
                    parent not in batch_ids and parent not in known_ids
                ):
                    record["parent_id"] = attach_to
                spans.append(record)
        incoming_events = batch.get("events")
        if isinstance(incoming_events, list):
            for raw in incoming_events:
                if not isinstance(raw, dict):
                    continue
                if len(events) >= self.max_events:
                    del events[0]
                events.append(dict(raw))

    # -- views ----------------------------------------------------------
    def to_json_dict(self, job_id: str) -> Optional[Dict[str, object]]:
        entry = self._jobs.get(job_id)
        if entry is None:
            return None
        spans = entry["spans"]
        events = entry["events"]
        assert isinstance(spans, list) and isinstance(events, list)
        return {
            "job_id": job_id,
            "trace_id": entry["trace_id"],
            "base_epoch": entry["base_epoch"],
            "spans": list(spans),
            "events": list(events),
            "dropped_events": entry.get("dropped_events", 0),
        }

    def job_ids(self) -> List[str]:
        return list(self._jobs)


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
