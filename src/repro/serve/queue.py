"""Asyncio job queue: priority scheduling, coalescing, lease-based dispatch.

One :class:`JobQueue` owns the serving state: a registry of jobs, a priority
heap of queued work and the in-flight map used for deduplication.  Every
solve is a lease granted by its :class:`~repro.serve.fleet.FleetCoordinator`
-- to one of the queue's own ``workers`` (threads of this process) or to a
remote ``serve_qed.py worker``.

Lifecycle of a submission
=========================

1. The spec is resolved (design fingerprint filled in) and keyed
   (:meth:`~repro.serve.keys.JobSpec.cache_key`).
2. **Cache hit** -- the job is born ``DONE`` with the cached record
   (provenance: ``served_from_cache=True``); no solver runs.
3. **Coalesce** -- an identical spec already queued or running returns the
   *same* job: N submitters, one solve, everyone long-polls the same id.
4. Otherwise the job is queued by ``(priority, arrival)``, waking idle
   workers' lease requests.  The first to pop it (:meth:`fleet_lease_pop`)
   runs :func:`execute_job_spec` in its solver child, whose observability
   batches ride the worker's heartbeats into the job's trace -- among
   them the engine's per-bound ``bound`` heartbeats (``GET
   /jobs/<id>/telemetry``).
5. The fenced commit applies the solve's last events, then the one success
   path (:meth:`_finish_success`) admits the record to the result cache
   under monotone upgrade semantics.  A lease that never commits (crashed
   solver, expired lease, dead worker) goes back through
   :meth:`fleet_requeue`: **retried** with capped exponential backoff, and
   a spec that keeps killing its solver is quarantined (``force=True``
   clears it); only then does the job end ``FAILED`` (never hung).

Fault tolerance
===============

* A submission may carry a wall-clock ``deadline_seconds`` budget.  The
  deadline is *not* part of the cache key (it is a property of the
  submission, not of the problem); a job whose deadline expires while
  queued completes ``DONE`` with a synthetic non-definitive UNKNOWN record
  that is **not** cached, and a running job hands its remaining budget to
  the worker, which propagates it down to the solver.
* :meth:`JobQueue.drain` is the graceful-shutdown path: stop granting
  leases, let leased solves finish (a lease lost meanwhile goes back to the
  queue without spending an attempt), snapshot still-queued specs to a
  JSON-able dict that :meth:`JobQueue.restore_state` resubmits after a
  restart.

Observability
=============

One trace, one metrics registry, one event stream -- no side channels:

* Every job owns a trace (:class:`repro.obs.trace.TraceStore` entry keyed
  by job id): the queue records its own spans (cache read/write,
  queue-wait, each lease attempt), and each solve is a trace root whose
  :func:`~repro.obs.trace.capture` ships every event as an
  :data:`~repro.obs.trace.ObsBatch` -- new events (heartbeats included)
  every 0.25 s while it runs, then the completed spans and the
  process-metrics delta.  Each shipped batch carries a ``batch_id`` (the
  shipping pid, the entry call's number in that process, the batch's
  number in the call); :meth:`JobQueue._on_progress` absorbs each batch
  once into the store (re-rooted under the attempt span) and merges its
  delta into the queue's registry, and drops a re-delivered one.
  ``GET /jobs/<id>/telemetry`` is the heartbeat view of the trace, so a
  job's per-bound progress is its engine's ``bound`` heartbeats there;
  after the solve each bound's verdict and duration also stay in its
  ``bmc.bound`` span.  The trace's event ring holds
  :attr:`TraceStore.max_events` (1,024) events, so a job that solves for
  minutes can lose its early heartbeats; the ring counts them in
  ``dropped``.
* Every queue, coordinator and HTTP event is one ``inc`` (or
  ``observe``) on the queue's :class:`~repro.obs.metrics.MetricsRegistry`,
  which ``GET /metrics`` renders and :meth:`JobQueue.stats_dict` (``GET
  /stats``) reads back: the two views cannot drift.

Traces of queued and running jobs are never evicted; finished ones age
out oldest-finished first.  Jobs that FAIL, are quarantined, or expire
their deadline dump a flight-recorder JSON artifact
(:class:`repro.obs.flight.FlightRecorder`) with the trace attached.

``use_processes=False`` runs each local solve on a thread instead of the
worker's solver child -- same contract, no fork -- which in-process demos
(``examples/serve_quickstart.py``) use.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.deadline import Deadline
from repro.eval.campaign import detect_bug, record_to_json_dict
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.serve.cache import ResultCache
from repro.serve.keys import JobSpec

__all__ = [
    "Job",
    "JobQueue",
    "JobState",
    "QueueDraining",
    "QueueFull",
    "execute_job_spec",
]


class QueueDraining(RuntimeError):
    """Submission rejected: the queue is draining for shutdown (HTTP 503)."""


class QueueFull(RuntimeError):
    """Submission rejected: queue depth at its admission bound (HTTP 429).

    ``retry_after`` is the server's own estimate of when retrying is
    worthwhile (derived from observed queue latency); the HTTP layer
    surfaces it as the 429 response's ``Retry-After``.
    """

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobState(str, Enum):
    """Lifecycle of one served job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One submission's view of the world (shared when coalesced)."""

    job_id: str
    spec: JobSpec
    cache_key: str
    priority: int = 0
    state: JobState = JobState.QUEUED
    cache_hit: bool = False
    #: Additional submissions that attached to this job (N waiters, 1 solve).
    coalesced: int = 0
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: Wall-clock budget (absolute monotonic expiry).  NOT part of the
    #: cache key: the deadline describes the submission, not the problem.
    deadline: Optional[Deadline] = None
    #: Leases handed back so far (crash, expiry, dead worker); the retry
    #: budget counts these.
    attempts: int = 0
    #: Bumped on every observable change; long-poll waits for it to move.
    version: int = 0
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    cancel_requested: bool = False
    #: Trace identity for ``GET /jobs/<id>/trace`` (None when tracing off).
    trace_id: Optional[str] = None
    #: Monotonic submit instant (queue-wait span start); not serialized.
    _queued_mono: float = field(default=0.0, repr=False)
    #: Open ``queue.attempt`` span worker batches re-root under.
    _attempt_span_id: Optional[str] = field(default=None, repr=False)
    #: ``batch_id`` of every shipped batch already absorbed.
    _batch_ids: Set[str] = field(default_factory=set, repr=False)
    _event: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def to_json_dict(self) -> Dict[str, object]:
        """Wire form for ``GET /jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "cache_key": self.cache_key,
            "spec": self.spec.canonical_dict(),
            "priority": self.priority,
            "state": self.state.value,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "record": self.record,
            "error": self.error,
            "attempts": self.attempts,
            "version": self.version,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "trace_id": self.trace_id,
        }


def execute_job_spec(  # fork-entry: runs in a fleet worker's solver child
    spec_dict: Dict[str, object],
    job_id: str = "",
    progress: Optional[Callable[[obs_trace.ObsBatch], None]] = None,
    *,
    deadline_seconds: Optional[float] = None,
) -> Dict[str, object]:
    """Worker entry point: run one campaign job described by *spec_dict*.

    Returns ``{"record": <record json dict>, "definitive": bool}``.  Runs
    in a fleet worker's solver child (``progress`` then writes to the
    child's pipe) or on a thread (``progress`` buffers for the next
    heartbeat); either way every event ships through ``progress`` as an
    :data:`~repro.obs.trace.ObsBatch`.  The design fingerprint is
    re-verified against the current content so a stale spec fails loudly
    instead of caching a result under the wrong key.

    ``deadline_seconds`` is the budget *remaining* at dispatch time; it is
    rebased onto this process's monotonic clock and propagated through
    ``detect_bug`` into the BMC engine and the SAT solver, so an expiring
    deadline degrades the verdict to a non-definitive UNKNOWN rather than
    truncating it silently.
    """
    from repro.uarch.versions import version_by_name

    faults.crash_point("serve.queue.worker")
    spec = JobSpec.from_dict(spec_dict)
    config = spec.campaign_config()
    spec.validate_derived()  # a lying spec must fail, not cache mislabeled
    if spec.fingerprint:
        current = version_by_name(spec.version).fingerprint(config.arch)
        if current != spec.fingerprint:
            raise ValueError(
                f"design content changed under {spec.version}: spec has "
                f"fingerprint {spec.fingerprint[:12]}.., current is "
                f"{current[:12]}.."
            )
    # The job is a trace root with its own collector (solver children are
    # long-lived, so a fork-inherited one would mix jobs).  Its capture
    # ships new events -- heartbeats included -- while the solve runs,
    # which is what makes GET /jobs/<id>/telemetry live rather than a
    # post-mortem, and the final batch (spans, metric delta) on exit; the
    # queue re-roots the spans under this dispatch's attempt span.
    collector = obs_trace.start_trace()
    try:
        with obs_trace.capture(_shipper(progress)):
            record = detect_bug(
                spec.bug_id,
                config,
                deadline=Deadline.from_seconds(deadline_seconds),
            )
    finally:
        if collector is not None:
            obs_trace.clear()
    return {
        "record": record_to_json_dict(record),
        "definitive": record.qed_definitive,
    }


#: Entry calls in this process that shipped batches (see :func:`_shipper`).
_ENTRY_CALLS = itertools.count(1)


def _shipper(
    progress: Optional[Callable[[obs_trace.ObsBatch], None]],
) -> Optional[Callable[[obs_trace.ObsBatch], None]]:
    """An entry's batch sender: ``progress`` behind the chaos message site.

    Batches are best-effort, so a seeded ``drop`` on
    ``serve.queue.progress`` must be invisible to the verdict and a seeded
    ``duplicate`` must be tolerated by the queue.  Each batch is stamped
    with a ``batch_id`` unique to this call, so the queue takes a
    re-delivered batch in once; a retried attempt in the same solver
    child is a new call, so its ids differ from the first attempt's.
    """
    if progress is None:
        return None
    call = f"{os.getpid()}.{next(_ENTRY_CALLS)}"
    numbers = itertools.count(1)

    def ship(batch: obs_trace.ObsBatch) -> None:
        batch = dict(batch, batch_id=f"{call}.{next(numbers)}")
        fate = faults.message_fate("serve.queue.progress")
        if fate == "drop":
            return
        progress(batch)
        if fate == "duplicate":
            progress(batch)

    return ship


def _selftest_entry(  # fork-entry: runs in a fleet worker's solver child
    spec_dict: Dict[str, object],
    job_id: str = "",
    progress: Optional[Callable[[obs_trace.ObsBatch], None]] = None,
    *,
    deadline_seconds: Optional[float] = None,
) -> Dict[str, object]:
    """Deterministic test double for :func:`execute_job_spec`.

    Behaviour is keyed on the (synthetic) ``bug_id``: ``__crash__`` kills
    the solver process outright (the ``FAILED``-not-hung regression hook),
    ``__sleep:S__`` holds the slot for ``S`` seconds (the coalescing hook);
    anything else echoes a canned record.  Like a real solve it ships one
    batch with one ``bound`` heartbeat (bound 1, ``unsat``).  A received
    ``deadline_seconds`` is echoed into the record so tests can assert
    budget propagation.
    """
    faults.crash_point("serve.queue.worker")
    bug_id = str(spec_dict.get("bug_id", ""))
    if bug_id == "__crash__":
        os._exit(1)
    if bug_id.startswith("__sleep:"):
        time.sleep(float(bug_id[len("__sleep:"):].rstrip("_")))
    ship = _shipper(progress)
    if ship is not None:
        # A private collector: thread-mode workers share the module-global
        # one, so the double neither installs nor captures.
        beats = obs_trace.ObsCollector()
        beats.heartbeat("bound", bound=1, verdict="unsat", selftest=True)
        ship({"spans": [], "events": beats.events, "dropped": 0})
    record: Dict[str, object] = {
        "bug_id": bug_id,
        "version_name": str(spec_dict.get("version", "X")),
        "detected_by": {"eddiv": True},
        "qed_definitive": True,
    }
    if deadline_seconds is not None:
        record["deadline_seconds"] = deadline_seconds
    return {"record": record, "definitive": True}


# ----------------------------------------------------------------------
class JobQueue:
    """Priority scheduler + dedup/coalescing front over lease-based workers.

    All public methods must be called from the owning event loop's thread
    (the HTTP server, the fleet coordinator and the in-process helpers
    guarantee that).  Cache lookups/admissions run synchronously on it by
    design: they are one seek+readline / one append on a local log, dwarfed
    by the solves they avoid.  A multi-node cache tier would move them
    behind an executor.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        entry: Callable = execute_job_spec,
        use_processes: bool = True,
        max_tracked_jobs: int = 4096,
        max_retries: int = 2,
        retry_backoff_base: float = 0.05,
        retry_backoff_cap: float = 2.0,
        backoff_seed: int = 0,
        max_queue_depth: Optional[int] = None,
        flight_dir: Optional[str] = None,
    ) -> None:
        # ``workers=0`` is the fleet-only deployment: no local workers,
        # every solve pulled by remote workers through the coordinator.
        if workers < 0:
            raise ValueError("workers must be at least 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if max_tracked_jobs < 1:
            raise ValueError("max_tracked_jobs must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        self.cache = cache
        #: Local workers: in-process fleet workers started by :meth:`start`.
        self.workers = workers
        self.entry = entry
        self.use_processes = use_processes
        #: Retry policy: a job whose lease never commits (crashed solver,
        #: expired lease) is re-queued up to ``max_retries`` times with
        #: capped exponential backoff (``base * 2**(attempt-1)``, never
        #: above ``cap`` seconds).
        self.max_retries = max_retries
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        #: Retry backoffs are jittered by a factor in [0.5, 1.0] drawn from
        #: a seeded RNG keyed on (seed, cache key, attempt): deterministic
        #: for tests, decorrelated across jobs so a crash storm's retries
        #: do not land in lockstep.
        self.backoff_seed = backoff_seed
        #: Admission bound on QUEUED depth; ``None`` means unbounded.
        #: Exceeding it raises :class:`QueueFull` (HTTP 429 + Retry-After).
        self.max_queue_depth = max_queue_depth
        #: The :class:`repro.serve.fleet.FleetCoordinator` granting every
        #: lease, with default lease/heartbeat intervals; constructing
        #: another one over this queue before :meth:`start` replaces it.
        from repro.serve.fleet import FleetCoordinator  # imports this module

        self.fleet = FleetCoordinator(self)
        #: Terminal jobs beyond this count are evicted oldest-first, so a
        #: long-running server's registry stays bounded (results live on in
        #: the cache; only the per-job views age out).
        self.max_tracked_jobs = max_tracked_jobs
        self.jobs: Dict[str, Job] = {}
        self._terminal: "deque[str]" = deque()
        self._inflight: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._sequence = itertools.count()
        #: Set (and replaced) whenever work may have become leasable; an
        #: idle lease request captures it before popping, then waits on it.
        self._wake = asyncio.Event()
        #: Keys whose spec exhausted its crash retries; value is a
        #: structured reason dict.  Resubmissions fail fast until an
        #: operator clears the key with ``force=True``.
        self.quarantined: Dict[str, Dict[str, object]] = {}
        self._draining = False
        # Observability: the queue-owned registry (the one counter store:
        # queue, coordinator and HTTP events plus merged worker deltas;
        # GET /metrics renders it and GET /stats reads it back), the
        # per-job trace store, and the failure flight recorder.  The
        # flight directory defaults to living next to the result cache.
        self.metrics = MetricsRegistry()
        self.traces = TraceStore()
        if flight_dir is None and cache is not None and cache.directory:
            flight_dir = os.path.join(cache.directory, "flight")
        self.flight = FlightRecorder(flight_dir)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the coordinator's reaper and the ``workers`` local pull
        loops on the running loop (idempotent)."""
        self.fleet.start()

    async def stop(self) -> None:
        """Stop the local workers (solves in flight are killed, their
        children reaped) and the coordinator's reaper."""
        await self.fleet.stop()

    def _notify(self) -> None:
        """Wake every waiting lease request (work queued, drain, stop)."""
        wake, self._wake = self._wake, asyncio.Event()
        wake.set()

    def _on_progress(self, job_id: str, batch: obs_trace.ObsBatch) -> None:
        """Absorb one batch an entry shipped: worker spans re-root under
        the dispatch attempt, events (heartbeats included) join the job's
        trace, the metrics delta merges into the queue registry.  Never
        bumps the long-poll version (telemetry is a plain poll).  A batch
        whose ``batch_id`` the job already took is a re-delivery and is
        dropped."""
        job = self.jobs.get(job_id)
        batch_id = batch.get("batch_id")
        if job is not None and isinstance(batch_id, str):
            if batch_id in job._batch_ids:
                return
            job._batch_ids.add(batch_id)
        self.traces.absorb(
            job_id,
            batch,
            attach_to=None if job is None else job._attempt_span_id,
        )
        delta = batch.get("metrics")
        if isinstance(delta, dict):
            self.metrics.merge(delta)

    # ------------------------------------------------------------------
    def _bump(self, job: Job) -> None:
        """Publish a change: advance the version, wake every waiter."""
        job.version += 1
        event, job._event = job._event, asyncio.Event()
        event.set()

    def _retire(self, job: Job) -> None:
        """Record a terminal transition and bound the job registry (and,
        by the same rule, the trace store: finished traces age out)."""
        self.traces.finish(job.job_id)
        self._terminal.append(job.job_id)
        while len(self._terminal) > self.max_tracked_jobs:
            old_id = self._terminal.popleft()
            old = self.jobs.get(old_id)
            if old is not None and old.state.terminal:
                del self.jobs[old_id]

    def _new_job(
        self, spec: JobSpec, key: str, priority: int, **fields: object
    ) -> Job:
        """Register a new job view and open its trace-store entry."""
        job = Job(
            job_id=f"job-{next(self._sequence):06d}",
            spec=spec,
            cache_key=key,
            priority=priority,
            **fields,
        )
        self.jobs[job.job_id] = job
        if obs_trace.enabled():
            job.trace_id = obs_trace.new_trace_id()
            self.traces.ensure(job.job_id, job.trace_id)
        return job

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        priority: int = 0,
        force: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> Job:
        """Submit a job; returns immediately with its (possibly shared) Job.

        Cache hits come back ``DONE``; identical in-flight specs coalesce
        onto the existing job; everything else queues by priority (larger
        first, FIFO within a priority).  ``force`` skips the cache lookup
        and re-solves (it still coalesces with an in-flight twin); the
        fresh result re-enters the cache under the monotone-upgrade rule,
        which is how a non-definitive cached verdict gets refreshed.
        ``force`` also clears a quarantine on the key -- the operator's
        explicit override of the poison-spec circuit breaker.

        ``deadline_seconds`` bounds the job by wall clock.  It is not part
        of the cache key; submitters that coalesce onto an in-flight job
        inherit *its* budget (the first submitter's deadline stands).  A
        deadline that expires while the job is still queued completes it
        ``DONE`` with a synthetic, uncached UNKNOWN record.
        """
        if self._draining:
            raise QueueDraining(
                "job queue is draining for shutdown; resubmit after restart"
            )
        spec = spec.resolved()
        key = spec.cache_key()
        self.metrics.inc("qed_jobs_submitted_total")

        cache_read: Optional[Tuple[float, float]] = None
        if self.cache is not None and not force:
            read_start = time.monotonic()
            entry = self.cache.get(key, fingerprint=spec.fingerprint)
            cache_read = (read_start, time.monotonic())
            if entry is not None:
                self.metrics.inc("qed_cache_hits_total")
                record = dict(entry.record)
                record["served_from_cache"] = True
                record["cache_key"] = key
                now = time.time()
                job = self._new_job(
                    spec,
                    key,
                    priority,
                    state=JobState.DONE,
                    cache_hit=True,
                    record=record,
                    submitted_at=now,
                    started_at=now,
                    finished_at=now,
                    version=1,
                )
                self.traces.add_span(
                    job.job_id, "cache.read", *cache_read, hit=True
                )
                self._retire(job)
                return job
            self.metrics.inc("qed_cache_misses_total")

        quarantine = self.quarantined.get(key)
        if quarantine is not None:
            if force:
                del self.quarantined[key]  # operator override: try again
            else:
                self.metrics.inc("qed_quarantine_rejections_total")
                now = time.time()
                job = self._new_job(
                    spec,
                    key,
                    priority,
                    state=JobState.FAILED,
                    error=(
                        f"quarantined ({quarantine.get('reason')} after "
                        f"{quarantine.get('attempts')} attempts): "
                        f"{quarantine.get('error')}; resubmit with force=true "
                        f"to clear"
                    ),
                    submitted_at=now,
                    finished_at=now,
                    version=1,
                )
                self.traces.add_event(
                    job.job_id, "queue.quarantine_rejected", key=key
                )
                self.flight.dump(
                    job.job_id,
                    reason="quarantine_rejected",
                    state=job.state.value,
                    trace=self.traces.to_json_dict(job.job_id),
                    error=job.error,
                    extra={"quarantine": dict(quarantine)},
                )
                self._retire(job)
                return job

        existing = self._inflight.get(key)
        if existing is not None:
            existing.coalesced += 1
            self.metrics.inc("qed_jobs_coalesced_total")
            self.traces.add_event(
                existing.job_id, "queue.coalesced", priority=priority
            )
            if priority > existing.priority and existing.state is JobState.QUEUED:
                # The strongest waiter sets the pace: requeue higher.
                existing.priority = priority
                heapq.heappush(
                    self._heap, (-priority, next(self._sequence), existing.job_id)
                )
            self._bump(existing)
            return existing

        # Admission bound: only submissions that would actually *queue*
        # count against the depth (cache hits, coalesces and quarantine
        # rejections above never grow the backlog).
        if self.max_queue_depth is not None:
            depth = self._count(JobState.QUEUED)
            if depth >= self.max_queue_depth:
                self.metrics.inc(
                    "qed_admission_rejections_total", reason="queue_full"
                )
                raise QueueFull(
                    f"queue depth {depth} at its bound "
                    f"{self.max_queue_depth}; retry later",
                    retry_after=self._retry_after_hint(),
                )

        job = self._new_job(
            spec,
            key,
            priority,
            deadline=Deadline.from_seconds(deadline_seconds),
            submitted_at=time.time(),
            _queued_mono=time.monotonic(),
        )
        if cache_read is not None:
            self.traces.add_span(job.job_id, "cache.read", *cache_read, hit=False)
        self._inflight[key] = job
        heapq.heappush(self._heap, (-priority, next(self._sequence), job.job_id))
        self._notify()
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns ``True`` iff it is now CANCELLED.

        A job other submitters coalesced onto is *not* cancelled -- one
        client must not tear down a solve its twins are still waiting on.
        A running solve is not interrupted either (its result is still
        cached for the next asker); the request is recorded on the job
        view (``cancel_requested``) so every waiter can see it, and a
        lease on it that never commits ends the job CANCELLED instead of
        retrying it (:meth:`fleet_requeue`).
        """
        job = self.jobs[job_id]
        if job.state is JobState.QUEUED and job.coalesced == 0:
            self._finish_terminal(job, JobState.CANCELLED)
            return True
        if not job.state.terminal:
            job.cancel_requested = True
            self._bump(job)
        return False

    # ------------------------------------------------------------------
    # Dispatch: the coordinator's queue-side surface.  Every solve, local
    # or remote, is a lease: popped by fleet_lease_pop, committed through
    # _finish_success or fleet_fail, and handed back through fleet_requeue
    # when it will never commit.  All of it runs on the loop.

    def fleet_lease_pop(self) -> Optional[Job]:
        """Pop the next runnable job for a lease grant (``None``: none).

        Skips stale heap entries, expires dead-on-arrival deadlines,
        transitions the job to RUNNING and opens its attempt span, which
        the worker's shipped batches re-root under.
        """
        if self._draining:
            return None
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self.jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue  # cancelled, or a stale re-priority entry
            if job.deadline is not None and job.deadline.expired():
                self._expire_queued(job)
                continue
            job.state = JobState.RUNNING
            job.started_at = time.time()
            # The latency histogram and the queue.wait span both take this
            # pop's monotonic wait, never the time since first submission.
            now_mono = time.monotonic()
            wait = max(0.0, now_mono - job._queued_mono)
            self.metrics.observe("qed_queue_wait_seconds", wait)
            self.traces.add_span(
                job.job_id, "queue.wait", job._queued_mono, now_mono
            )
            job._attempt_span_id = self.traces.add_span(
                job.job_id,
                "queue.attempt",
                now_mono,
                None,
                attempt=job.attempts + 1,
            )
            self._bump(job)
            return job
        return None

    def _expire_queued(self, job: Job) -> None:
        """Complete a queued job whose wall-clock budget ran out.

        The verdict is an honest, zero-work UNKNOWN: ``DONE`` (the service
        answered the question it was asked within the budget it was given),
        non-definitive, ``deadline_expired`` marked -- and **not** cached,
        so it can never shadow a real solve of the same key.
        """
        job.record = {
            "bug_id": job.spec.bug_id,
            "version_name": job.spec.version,
            "qed_definitive": False,
            "deadline_expired": True,
            "served_from_cache": False,
            "cache_key": job.cache_key,
        }
        job.started_at = time.time()
        self._finish_terminal(job, JobState.DONE)
        self._note_deadline_expiry(job, "queue", "queued", job.attempts)

    def _note_deadline_expiry(
        self, job: Job, scope: str, phase: str, attempts: int
    ) -> None:
        """Count, trace and flight-dump a job that ended on its deadline
        (*scope* labels the metric, *phase* the trace event)."""
        self.metrics.inc("qed_deadline_expiries_total", scope=scope)
        self.traces.add_event(job.job_id, "deadline.expired", scope=phase)
        self.flight.dump(
            job.job_id,
            reason="deadline_expired",
            state=job.state.value,
            trace=self.traces.to_json_dict(job.job_id),
            attempts=attempts,
        )

    def _finish_success(self, job: Job, result: Dict[str, object]) -> None:
        """The one success path: apply a fenced commit's entry result.

        Record post-processing, cache admission under monotone-upgrade
        semantics, counters, attempt-span close and the deadline-expiry
        flight dump.  Every solve commits through here, which is what
        makes a served record byte-identical regardless of which worker
        solved it.
        """
        record = dict(result["record"])
        record["cache_key"] = job.cache_key
        record.setdefault("served_from_cache", False)
        if self.cache is not None:
            write_start = time.monotonic()
            self.cache.put(
                job.cache_key,
                record,
                fingerprint=job.spec.fingerprint,
                definitive=bool(result.get("definitive", True)),
                spec=job.spec.canonical_dict(),
            )
            self.traces.add_span(
                job.job_id, "cache.write", write_start, time.monotonic()
            )
        job.record = record
        self.metrics.inc("qed_jobs_executed_total")
        self.traces.close_span(
            job.job_id, job._attempt_span_id, time.monotonic(),
            outcome="done",
        )
        self._finish_terminal(job, JobState.DONE)
        if record.get("deadline_expired"):
            # The worker's budget ran out mid-solve: an honest UNKNOWN,
            # but still a deadline ending worth a flight record.
            self._note_deadline_expiry(job, "worker", "running", job.attempts + 1)

    def fleet_fail(self, job: Job, error: str) -> None:
        """Fail a job on a deterministic entry error (no retry).

        An exception *raised by* the entry repeats on re-run, so retrying
        it would only waste a lease.
        """
        self.traces.close_span(
            job.job_id, job._attempt_span_id, time.monotonic(),
            outcome="error",
        )
        self._fail(job, error, flight_reason="failed")

    def fleet_requeue(
        self, job: Job, *, reason: str, error: Optional[str] = None
    ) -> bool:
        """Hand back a lease that will never commit; ``True``: queued again.

        *reason* names the loss (``worker_crash``, ``lease_expired``,
        ``worker_dead``, ``worker_deregistered``); *error* details it.
        While draining, the job re-enters QUEUED without spending an
        attempt, so the drain snapshot persists it for the restart.  A job
        whose only submitter asked to cancel ends CANCELLED, as
        :meth:`cancel` ends a queued one.  Anything else is retried up to
        ``max_retries`` times with jittered backoff; then its spec is
        quarantined and the job FAILED.
        """
        if job.state is not JobState.RUNNING:
            return False
        self.traces.close_span(
            job.job_id, job._attempt_span_id, time.monotonic(),
            outcome=reason,
        )
        cancel = job.cancel_requested and job.coalesced == 0
        if self._draining and not cancel:
            job.state = JobState.QUEUED
            job._queued_mono = time.monotonic()
            self._bump(job)
            return True
        job.attempts += 1
        detail = error or reason
        if cancel:
            self.traces.add_event(
                job.job_id, "queue.cancelled", attempts=job.attempts
            )
            self._finish_terminal(
                job, JobState.CANCELLED, f"cancelled after {reason}: {detail}"
            )
            return False
        if job.attempts <= self.max_retries:
            self.metrics.inc("qed_job_retries_total")
            delay = self._backoff_delay(job.attempts, key=job.cache_key)
            self.traces.add_event(
                job.job_id,
                "queue.retry",
                attempt=job.attempts,
                backoff_seconds=delay,
                error=detail,
            )
            job.state = JobState.QUEUED
            job._queued_mono = time.monotonic()  # fresh queue-wait span
            self._bump(job)
            asyncio.ensure_future(self._requeue_after(job, delay))
            return True
        self.quarantined[job.cache_key] = {
            "reason": reason,
            "error": detail,
            "attempts": job.attempts,
            "bug_id": job.spec.bug_id,
            "at": time.time(),
        }
        self.metrics.inc("qed_quarantines_total")
        self.traces.add_event(
            job.job_id, "queue.quarantined", attempts=job.attempts
        )
        self._fail(
            job,
            f"{reason} after {job.attempts} attempts: {detail}",
            flight_reason="quarantined",
        )
        return False

    def _fail(self, job: Job, error: str, *, flight_reason: str) -> None:
        """The one fail path: mark *job* FAILED and dump its flight record."""
        self.metrics.inc("qed_jobs_failed_total")
        self._finish_terminal(job, JobState.FAILED, error)
        self.flight.dump(
            job.job_id,
            reason=flight_reason,
            state=job.state.value,
            trace=self.traces.to_json_dict(job.job_id),
            error=job.error,
            attempts=job.attempts,
        )

    def _finish_terminal(
        self, job: Job, state: JobState, error: Optional[str] = None
    ) -> None:
        """Every terminal transition: set *state* (and *error*), count a
        cancellation, free the key, retire the view, wake the waiters."""
        job.state = state
        if error is not None:
            job.error = error
        if state is JobState.CANCELLED:
            self.metrics.inc("qed_jobs_cancelled_total")
        job.finished_at = time.time()
        if self._inflight.get(job.cache_key) is job:
            del self._inflight[job.cache_key]
        self._retire(job)
        self._bump(job)

    def _backoff_delay(self, attempt: int, *, key: str) -> float:
        """Capped exponential backoff with seed-derived jitter.

        The jitter factor lives in [0.5, 1.0] and is drawn from an RNG
        seeded on ``(backoff_seed, key, attempt)``: the same job retries
        on the same schedule run-to-run (tests stay deterministic), while
        different jobs -- e.g. a fleet's worth of requeued leases after a
        partition -- spread out instead of retrying in lockstep.
        """
        base = min(
            self.retry_backoff_base * (2.0 ** (attempt - 1)),
            self.retry_backoff_cap,
        )
        rng = random.Random(f"{self.backoff_seed}:{key}:{attempt}")
        return base * (0.5 + 0.5 * rng.random())

    def _retry_after_hint(self) -> float:
        """Seconds a 429'd client should wait, from observed queue latency."""
        waited, total = self.metrics.histogram_count_sum("qed_queue_wait_seconds")
        avg = total / waited if waited else 1.0
        return max(0.5, min(30.0, avg))

    async def _requeue_after(self, job: Job, delay: float) -> None:
        """(Backoff) Re-queue a retried job after *delay* seconds."""
        await asyncio.sleep(delay)
        if job.state is not JobState.QUEUED:
            return  # cancelled during the backoff window
        heapq.heappush(
            self._heap, (-job.priority, next(self._sequence), job.job_id)
        )
        self._notify()

    # ------------------------------------------------------------------
    async def drain(self) -> Dict[str, object]:
        """Graceful shutdown: stop dispatching, finish running solves,
        snapshot the rest.

        Sets the draining flag (new submissions raise
        :class:`QueueDraining`, no lease is granted any more), waits for
        every outstanding lease to commit or be handed back, then
        returns the :meth:`queue_state` snapshot of still-queued jobs --
        the JSON-able payload a server persists so
        :meth:`restore_state` can resubmit the work after a restart.
        Queued jobs are then cancelled locally so their waiters unblock
        with a terminal state instead of hanging on a dead queue.
        """
        self._draining = True
        # Leases still commit during the drain; one that never will (a
        # crashed solver, a worker that dies mid-drain) is handed back by
        # fleet_requeue, which puts its job into the snapshot.
        while self.fleet.has_active_leases():
            await asyncio.sleep(0.02)
        state = self.queue_state()
        for job in list(self.jobs.values()):
            if job.state is JobState.QUEUED:
                self._finish_terminal(
                    job, JobState.CANCELLED, "drained for shutdown (state persisted)"
                )
        return state

    def queue_state(self) -> Dict[str, object]:
        """JSON-able snapshot of still-queued work (specs + priorities).

        Deadlines are persisted as *remaining* seconds -- monotonic expiry
        times are meaningless in the next process, remaining budget is
        not.  Submission order is preserved; exact heap order is not (it
        is re-derived from the priorities on restore).
        """
        queued: List[Dict[str, object]] = []
        for job in self.jobs.values():
            if job.state is not JobState.QUEUED:
                continue
            item: Dict[str, object] = {
                "spec": job.spec.canonical_dict(),
                "priority": job.priority,
            }
            if job.deadline is not None:
                item["deadline_seconds"] = job.deadline.remaining()
            queued.append(item)
        return {"format": 1, "queued": queued}

    def restore_state(self, state: Dict[str, object]) -> List[Job]:
        """Resubmit jobs persisted by :meth:`drain` (the resume path)."""
        if state.get("format") != 1:
            raise ValueError(
                f"unsupported queue-state format {state.get('format')!r}"
            )
        restored = []
        for item in state.get("queued") or []:
            if not isinstance(item, dict) or "spec" not in item:
                continue  # tolerate a hand-edited or truncated snapshot
            deadline_seconds = item.get("deadline_seconds")
            restored.append(
                self.submit(
                    JobSpec.from_dict(dict(item["spec"])),
                    priority=int(item.get("priority", 0)),
                    deadline_seconds=(
                        None
                        if deadline_seconds is None
                        else float(deadline_seconds)
                    ),
                )
            )
        return restored

    # ------------------------------------------------------------------
    async def wait(self, job: Job, *, since: int, timeout: float) -> None:
        """Long-poll primitive: return when ``job.version > since``, the
        job can no longer change, or *timeout* elapses."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while job.version <= since and not job.state.terminal:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            event = job._event
            try:
                await asyncio.wait_for(event.wait(), remaining)
            except asyncio.TimeoutError:
                break

    # ------------------------------------------------------------------
    def telemetry_dict(
        self, job_id: str, *, since: int = 0
    ) -> Optional[Dict[str, object]]:
        """Wire form for ``GET /jobs/<id>/telemetry`` (None = unknown job).

        The heartbeat events of the job's trace, flattened.  ``since`` is
        an absolute heartbeat index: a poller passes the ``total`` it
        already saw and receives only newer heartbeats.  ``dropped``
        counts heartbeats the trace's bounded event ring evicted before
        anyone read them.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        heartbeats = self.traces.heartbeats(job_id)
        total = self.traces.heartbeat_count(job_id)
        first = total - len(heartbeats)
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "heartbeats": heartbeats[max(0, since - first) :],
            "total": total,
            "dropped": first,
        }

    # ------------------------------------------------------------------
    def jobs_summary(self) -> List[Dict[str, object]]:
        """Compact per-job rows for ``GET /jobs`` (dashboard discovery).

        Deliberately small -- no records or heartbeats, just enough for a poller to find the jobs worth drilling into via
        ``GET /jobs/<id>`` and ``GET /jobs/<id>/telemetry``.
        """
        rows: List[Dict[str, object]] = []
        for job in self.jobs.values():
            rows.append(
                {
                    "job_id": job.job_id,
                    "state": job.state.value,
                    "bug_id": job.spec.bug_id,
                    "version": job.spec.version,
                    "bound": job.spec.bound,
                    "cache_hit": job.cache_hit,
                    "attempts": job.attempts,
                    "submitted_at": job.submitted_at,
                    "telemetry_total": self.traces.heartbeat_count(job.job_id),
                }
            )
        rows.sort(key=lambda row: (row["submitted_at"], row["job_id"]))
        return rows

    # ------------------------------------------------------------------
    def _count(self, state: JobState) -> int:
        return sum(1 for job in self.jobs.values() if job.state is state)

    def counter(self, name: str, **labels: str) -> int:
        """One counter series of the queue's registry, as an integer."""
        return int(self.metrics.counter_value(name, **labels))

    def stats_dict(self) -> Dict[str, object]:
        """Counters for ``GET /stats`` and
        :func:`repro.eval.report.serving_statistics`, read off the
        registry ``GET /metrics`` renders (no counter lives anywhere else)."""
        counter = self.counter
        waited, waited_seconds = self.metrics.histogram_count_sum(
            "qed_queue_wait_seconds"
        )
        return {
            "workers": self.workers,
            "use_processes": self.use_processes,
            "jobs_submitted": counter("qed_jobs_submitted_total"),
            "cache_hits": counter("qed_cache_hits_total"),
            "coalesced": counter("qed_jobs_coalesced_total"),
            "executed": counter("qed_jobs_executed_total"),
            "failed": counter("qed_jobs_failed_total"),
            "cancelled": counter("qed_jobs_cancelled_total"),
            "retried": counter("qed_job_retries_total"),
            "deadline_expired": (
                counter("qed_deadline_expiries_total", scope="queue")
                + counter("qed_deadline_expiries_total", scope="worker")
            ),
            "quarantined": len(self.quarantined),
            "quarantines": counter("qed_quarantines_total"),
            "quarantine_rejections": counter("qed_quarantine_rejections_total"),
            "queue_full_rejections": counter(
                "qed_admission_rejections_total", reason="queue_full"
            ),
            "max_queue_depth": self.max_queue_depth,
            "draining": self._draining,
            "fleet": self.fleet.stats_dict(),
            "running": self._count(JobState.RUNNING),
            "queued": self._count(JobState.QUEUED),
            "jobs_tracked": len(self.jobs),
            "queue_latency_seconds_total": waited_seconds,
            "queue_latency_jobs": waited,
            "traced_jobs": len(self.traces.job_ids()),
            "flight_dumps": self.flight.dumps,
            "flight_write_errors": self.flight.write_errors,
            "flight_evictions": self.flight.evictions,
        }

    def render_metrics(self) -> str:
        """Prometheus text for ``GET /metrics``.

        Counters accumulate as they happen (queue events inline, worker
        deltas merged from the solves' shipped obs batches); point-in-time
        state is refreshed as gauges at scrape time, including the result
        cache's own counters so the metrics endpoint and ``GET /stats``
        agree.
        """
        self.metrics.set_gauge(
            "qed_queue_depth", float(self._count(JobState.QUEUED))
        )
        self.metrics.set_gauge(
            "qed_jobs_running", float(self._count(JobState.RUNNING))
        )
        self.metrics.set_gauge(
            "qed_quarantined_keys", float(len(self.quarantined))
        )
        self.metrics.set_gauge(
            "qed_queue_draining", 1.0 if self._draining else 0.0
        )
        self.metrics.set_gauge("qed_flight_dumps", float(self.flight.dumps))
        self.metrics.set_gauge(
            "qed_flight_evictions", float(self.flight.evictions)
        )
        if self.cache is not None:
            cache_stats = self.cache.stats_dict()
            for field_name in ("hits", "misses", "puts", "upgrades"):
                value = cache_stats.get(field_name)
                if isinstance(value, (int, float)):
                    self.metrics.set_gauge(
                        f"qed_result_cache_{field_name}", float(value)
                    )
        self.fleet.refresh_gauges()
        return self.metrics.render_prometheus()
