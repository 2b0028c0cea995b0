"""The solve fabric: every solve is a lease, local or remote.

A :class:`~repro.serve.queue.JobQueue` runs no solve itself.  Its
``workers=N`` local workers are :class:`FleetWorker` pull loops on threads
of the server that call the coordinator in-process on the event loop (no
HTTP, no JSON); ``serve_qed.py worker`` runs the same loop on another host
over ``POST /fleet/*``.  Both hold the same leases under the same fence
epochs, so retry, quarantine and the flight dump live in one place
(:meth:`JobQueue.fleet_requeue`) and one invariant covers every solve --
**a fault may cost time or degrade a verdict to a non-definitive UNKNOWN,
but a definitive verdict produced under any failure schedule is
byte-identical to a fault-free direct run**.

Four pieces, all stdlib-only:

:class:`FleetCoordinator`
    Server-side. Owns the worker registry, the lease table and the
    per-job **fence epochs**.  Workers pull queued jobs under
    time-bounded leases; each grant bumps the job's fence epoch, and a
    commit is accepted only when it carries the fence of the currently
    active lease.  An idle worker's lease request waits on the queue's
    wake-up for up to one heartbeat interval (10 s at most), so new work
    starts at once.
    A worker that goes silent (partition, SIGKILL) stops renewing; its
    lease expires and the job is requeued.  When the zombie comes back
    and commits, the fence comparison rejects it -- a job is never
    double-recorded.  Heartbeat-driven failure detection runs alongside:
    ``live -> suspect -> dead`` with grace derived from the heartbeat
    interval (suspect after 2 missed beats, dead after 4); a dead worker's
    leases are expired immediately instead of waiting out the lease clock.

:class:`FleetWorker`
    Worker-side pull loop: register, lease, solve, heartbeat while
    solving (each beat renews the lease and ships the buffered events --
    the entry's observability batches, which carry its heartbeats --
    upstream), then commit with the fence token and the remaining events.
    Each worker owns one persistent solver child, forked at its first
    lease and reused (killed on revocation or stop, forked again after it
    dies); events and the outcome come back over a pipe, in order.
    ``use_processes=False`` solves on a thread.  Chaos sites ``fleet.worker.heartbeat`` (drop a beat) and
    ``fleet.worker.commit`` (delay into zombiehood, drop, duplicate) make
    the failure schedules of :mod:`tests.chaos` reproducible.

:class:`AdmissionController`
    Front-end admission: per-client token buckets (client identity from
    the ``X-Client-Id`` header, else the peer address) so one greedy
    client cannot starve the farm.  Works with the queue's bounded
    ``max_queue_depth``; both reject with HTTP 429 + ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import multiprocessing
import multiprocessing.connection
import os
import random
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.serve.client import ServeClient, ServeError
from repro.serve.queue import Job, JobState, execute_job_spec

__all__ = [
    "AdmissionController",
    "FleetCoordinator",
    "FleetWorker",
    "Lease",
    "WorkerInfo",
    "WorkerState",
]


class WorkerState(str, Enum):
    """Heartbeat-driven liveness verdict for one registered worker."""

    LIVE = "live"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class WorkerInfo:
    """Coordinator-side view of one registered worker."""

    worker_id: str
    pid: int = 0
    host: str = ""
    state: WorkerState = WorkerState.LIVE
    last_seen_mono: float = 0.0
    lease_ids: Set[str] = field(default_factory=set)
    jobs_done: int = 0
    heartbeats: int = 0

    def to_json_dict(self, now_mono: float) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "host": self.host,
            "state": self.state.value,
            "leases": len(self.lease_ids),
            "jobs_done": self.jobs_done,
            "heartbeats": self.heartbeats,
            "last_seen_seconds_ago": max(0.0, now_mono - self.last_seen_mono),
        }


@dataclass
class Lease:
    """One time-bounded grant of one job to one worker.

    ``fence`` is the job's fence epoch at grant time -- monotonically
    increasing per job, so of all leases ever granted for a job exactly
    one carries the current epoch.  Commit acceptance requires the lease
    to still be in the active table *and* its fence to equal the job's
    current epoch; expiry removes it from the table, which is what
    invalidates a zombie's token even before the job is re-granted.
    """

    lease_id: str
    job_id: str
    worker_id: str
    fence: int
    expires_mono: float


#: Completed/rejected lease ids remembered for duplicate-commit detection.
_COMPLETED_LEASES_KEPT = 1024

#: Longest an idle lease request waits, whatever the heartbeat interval:
#: well inside the 30 s a worker gives one request (``FleetWorker``'s
#: ``request_timeout``, :meth:`FleetCoordinator.fleet_call`).
_LEASE_WAIT_MAX = 10.0


class FleetCoordinator:
    """Lease/fence bookkeeping between the job queue and its workers.

    Lives on the queue's event loop (every verb runs there, whether it
    arrived over HTTP or from a local worker thread; the reaper is an
    asyncio task on the same loop), so no locking is needed -- same
    threading contract as :class:`JobQueue`.  Attaches itself as
    ``queue.fleet``.
    """

    #: The worker protocol, one method per verb.
    VERBS = ("register", "lease", "heartbeat", "complete", "deregister")

    def __init__(
        self,
        queue,
        *,
        lease_seconds: float = 15.0,
        heartbeat_seconds: float = 2.0,
    ) -> None:
        if lease_seconds <= 0 or heartbeat_seconds <= 0:
            raise ValueError("lease_seconds and heartbeat_seconds must be > 0")
        self.queue = queue
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = heartbeat_seconds
        #: Failure-detection grace, derived from the heartbeat interval:
        #: two missed beats makes a worker suspect, four makes it dead.
        self.suspect_after = 2.0 * heartbeat_seconds
        self.dead_after = 4.0 * heartbeat_seconds
        self._workers: Dict[str, WorkerInfo] = {}
        self._leases: Dict[str, Lease] = {}
        #: Per-job fence epoch (bumped on every grant); entries are pruned
        #: once the job is terminal, never while it can still be granted.
        self._fences: Dict[str, int] = {}
        self._lease_seq = itertools.count()
        self._completed: "OrderedDict[str, None]" = OrderedDict()
        self._reaper_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The server's own workers and the threads running their loops.
        self._local: List[Tuple["FleetWorker", threading.Thread]] = []
        #: Set by :meth:`stop`: no lease is granted or waited for any more.
        self._stopping = False
        queue.fleet = self

    # -- lifecycle ---------------------------------------------------
    def start(self) -> None:
        """Start the reaper and the queue's ``workers`` local pull loops.

        Requires the running event loop.  Local workers are registered
        before this returns, so the server is ready at once.
        """
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        if self._reaper_task is None:
            self._reaper_task = self._loop.create_task(self._reaper())
        for index in range(len(self._local), self.queue.workers):
            worker = FleetWorker(
                worker_id=f"local-{index}",
                entry=self.queue.entry,
                use_processes=self.queue.use_processes,
                client=self,
            )
            self.register({"worker_id": worker.worker_id, "pid": os.getpid()})
            thread = threading.Thread(
                target=worker.run, name=f"serve-{worker.worker_id}", daemon=True
            )
            thread.start()
            self._local.append((worker, thread))

    async def stop(self) -> None:
        """Abort the local workers (solves in flight are killed, children
        reaped, leases handed back), wait for them, stop the reaper."""
        self._stopping = True
        for worker, _ in self._local:
            worker.abort()
        self.queue._notify()  # end the lease waits in progress
        for _, thread in self._local:
            # Joined off the loop: an exiting worker still deregisters on it.
            await asyncio.to_thread(thread.join, 10.0)
        self._local = []
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None

    async def _reaper(self) -> None:
        """Periodic sweep: liveness transitions + lease expiry."""
        interval = max(self.heartbeat_seconds / 2.0, 0.02)
        while True:
            await asyncio.sleep(interval)
            self.sweep(time.monotonic())

    # -- verbs (one per POST /fleet/<verb>) --------------------------
    async def call(self, verb: str, body: Dict[str, object]) -> Dict[str, object]:
        """Serve one worker verb, from HTTP or from a local worker thread.

        ``lease`` is the one verb that waits: with nothing runnable, it
        waits on the queue's wake-up for at most ``heartbeat_seconds``
        (capped at ``_LEASE_WAIT_MAX``) and tries once more, so an idle
        worker neither polls nor misses newly submitted work.
        """
        if verb not in self.VERBS:
            raise KeyError(verb)
        if verb != "lease":
            return getattr(self, verb)(body)
        wake = self.queue._wake  # captured before the pop: no lost wake-up
        answer = self.lease(body)
        if answer["lease"] is not None or answer.get("reregister") or self._stopping:
            return answer
        try:
            await asyncio.wait_for(
                wake.wait(), min(self.heartbeat_seconds, _LEASE_WAIT_MAX)
            )
        except asyncio.TimeoutError:
            pass
        return self.lease(body)

    def fleet_call(self, verb: str, body: Dict[str, object]) -> Dict[str, object]:
        """(Local worker threads) :meth:`call` on the loop: the in-process
        twin of :meth:`ServeClient.fleet_call`.  A loop that is gone or
        stuck, and an error raised by the verb itself (the twin of an
        HTTP 500), surface as a transport-level :class:`ServeError`, so
        the worker carries on."""
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.call(verb, body), self._loop
            )
            return future.result(30.0)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServeError(f"fleet {verb} timed out")
        except Exception as exc:  # a closed loop, or the verb's own error
            raise ServeError(f"fleet {verb} failed: {type(exc).__name__}: {exc}")

    def register(self, body: Dict[str, object]) -> Dict[str, object]:
        """``POST /fleet/register``: join (or rejoin) the fleet.

        The response carries the coordinator's lease/heartbeat intervals;
        workers adopt them so one server-side knob paces the whole fleet.
        """
        worker_id = self._worker_id(body)
        now = time.monotonic()
        info = self._workers.get(worker_id)
        if info is None:
            self._prune_workers()
            info = WorkerInfo(worker_id=worker_id)
            self._workers[worker_id] = info
            self.queue.metrics.inc("qed_fleet_workers_registered_total")
        info.pid = int(body.get("pid") or 0)
        info.host = str(body.get("host") or "")
        self._touch(info, now)
        return {
            "worker_id": worker_id,
            "lease_seconds": self.lease_seconds,
            "heartbeat_seconds": self.heartbeat_seconds,
            "suspect_after_seconds": self.suspect_after,
            "dead_after_seconds": self.dead_after,
        }

    def lease(self, body: Dict[str, object]) -> Dict[str, object]:
        """Grant one queued job under a fresh lease (``None``: nothing runnable).

        Never waits (:meth:`call` adds the wait of ``POST /fleet/lease``).
        Every request doubles as a liveness signal.  An unregistered
        worker (e.g. after a coordinator restart) gets ``reregister``
        instead of work so it can rejoin before pulling.  A stopping
        coordinator grants nothing.
        """
        worker_id = self._worker_id(body)
        now = time.monotonic()
        info = self._workers.get(worker_id)
        if info is None:
            return {"lease": None, "reregister": True}
        self._touch(info, now)
        job = None if self._stopping else self.queue.fleet_lease_pop()
        if job is None:
            return {"lease": None}
        fence = self._fences.get(job.job_id, 0) + 1
        self._fences[job.job_id] = fence
        lease = Lease(
            lease_id=f"lease-{next(self._lease_seq):06d}",
            job_id=job.job_id,
            worker_id=worker_id,
            fence=fence,
            expires_mono=now + self.lease_seconds,
        )
        self._leases[lease.lease_id] = lease
        info.lease_ids.add(lease.lease_id)
        self.queue.metrics.inc("qed_fleet_leases_granted_total")
        self.queue.traces.add_event(
            job.job_id,
            "fleet.lease_granted",
            worker=worker_id,
            lease_id=lease.lease_id,
            fence=fence,
        )
        payload: Dict[str, object] = {
            "lease_id": lease.lease_id,
            "job_id": job.job_id,
            "fence": fence,
            "spec": job.spec.canonical_dict(),
        }
        if job.deadline is not None:
            payload["deadline_seconds"] = job.deadline.remaining()
        return {"lease": payload}

    def heartbeat(self, body: Dict[str, object]) -> Dict[str, object]:
        """``POST /fleet/heartbeat``: renew a lease, ship buffered events.

        A valid beat pushes the lease expiry out by a full lease window,
        so a healthy-but-slow solve is never reassigned.  Events -- the
        entry's observability batches, which carry its heartbeats -- are
        absorbed into the job's trace, but only while the lease is live,
        so a zombie cannot pollute the trace of a reassigned attempt.
        """
        worker_id = self._worker_id(body)
        now = time.monotonic()
        info = self._workers.get(worker_id)
        if info is not None:
            self._touch(info, now)
            info.heartbeats += 1
        self.queue.metrics.inc("qed_fleet_heartbeats_total")
        status = "none"
        lease_id = str(body.get("lease_id") or "")
        if lease_id:
            lease = self._leases.get(lease_id)
            if lease is not None and lease.worker_id == worker_id:
                lease.expires_mono = now + self.lease_seconds
                status = "ok"
                self._forward_events(lease.job_id, body.get("events"))
            else:
                status = "revoked"
        response: Dict[str, object] = {"lease": status}
        if info is None:
            response["reregister"] = True
        return response

    def complete(self, body: Dict[str, object]) -> Dict[str, object]:
        """``POST /fleet/complete``: fenced commit of one lease's outcome.

        Accepted only for the currently active lease carrying the job's
        current fence epoch; the body's remaining events are applied
        first, then the outcome runs through the queue's one success path
        (:meth:`JobQueue._finish_success`), which is what makes a definitive
        verdict byte-identical to a direct run whichever worker solved
        it.  Everything else is rejected with a reason --
        ``stale_fence`` (the zombie case: the lease expired, and possibly
        another worker now owns a newer epoch), ``duplicate_commit`` (this
        lease already committed), or ``unknown_job``.
        """
        worker_id = self._worker_id(body)
        lease_id = str(body.get("lease_id") or "")
        job_id = str(body.get("job_id") or "")
        try:
            fence = int(body.get("fence", -1))
        except (TypeError, ValueError):
            raise ValueError("fence must be an integer")
        now = time.monotonic()
        info = self._workers.get(worker_id)
        if info is not None:
            self._touch(info, now)  # a committing zombie is at least alive
        self.queue.metrics.inc("qed_fleet_commits_total")
        lease = self._leases.get(lease_id)
        job = self.queue.jobs.get(job_id)
        current = self._fences.get(job_id)
        if (
            lease is not None
            and lease.worker_id == worker_id
            and lease.job_id == job_id
            and fence == lease.fence
            and fence == current
            and job is not None
            and job.state is JobState.RUNNING
        ):
            self._forward_events(job_id, body.get("events"))
            self._release(lease, completed=True)
            return self._apply_outcome(job, info, body)
        # -- rejection taxonomy (only stale fences count as fenced) --
        if lease_id in self._completed:
            self.queue.metrics.inc("qed_fleet_duplicate_commits_total")
            return {"accepted": False, "reason": "duplicate_commit"}
        if job is None:
            return {"accepted": False, "reason": "unknown_job"}
        self.queue.metrics.inc("qed_fleet_fenced_commits_total")
        self.queue.traces.add_event(
            job_id,
            "fleet.commit_fenced",
            worker=worker_id,
            lease_id=lease_id,
            fence=fence,
            current_fence=current,
            job_state=job.state.value,
        )
        return {"accepted": False, "reason": "stale_fence"}

    def deregister(self, body: Dict[str, object]) -> Dict[str, object]:
        """``POST /fleet/deregister``: graceful exit.

        Any leases the worker still holds are expired immediately (their
        jobs requeue without waiting out the lease clock).
        """
        worker_id = self._worker_id(body)
        info = self._workers.pop(worker_id, None)
        if info is not None:
            for lease_id in list(info.lease_ids):
                lease = self._leases.get(lease_id)
                if lease is not None:
                    self._expire(lease, reason="worker_deregistered")
        return {"worker_id": worker_id, "removed": info is not None}

    # -- internals ---------------------------------------------------
    @staticmethod
    def _worker_id(body: Dict[str, object]) -> str:
        worker_id = str(body.get("worker_id") or "") if isinstance(body, dict) else ""
        if not worker_id:
            raise ValueError("worker_id is required")
        return worker_id

    def _touch(self, info: WorkerInfo, now: float) -> None:
        if info.state is WorkerState.DEAD:
            self.queue.metrics.inc("qed_fleet_workers_revived_total")
        info.state = WorkerState.LIVE
        info.last_seen_mono = now

    def _prune_workers(self, limit: int = 256) -> None:
        """Bound the registry: drop the longest-dead entries past *limit*."""
        if len(self._workers) < limit:
            return
        dead = sorted(
            (w for w in self._workers.values() if w.state is WorkerState.DEAD),
            key=lambda w: w.last_seen_mono,
        )
        for info in dead[: max(1, len(self._workers) - limit + 1)]:
            if not info.lease_ids:
                del self._workers[info.worker_id]

    def _forward_events(self, job_id: str, events: object) -> None:
        """Absorb worker-shipped events into the job's trace.

        Each event is one :data:`~repro.obs.trace.ObsBatch` the entry
        handed its ``progress`` callable (:func:`repro.obs.trace.capture`)
        -- trace re-rooting, heartbeats and metrics merging all happen in
        :meth:`JobQueue._on_progress`.
        """
        if not isinstance(events, list):
            return
        for event in events:
            if isinstance(event, dict):
                self.queue._on_progress(job_id, event)

    def _apply_outcome(
        self,
        job: Job,
        info: Optional[WorkerInfo],
        body: Dict[str, object],
    ) -> Dict[str, object]:
        """Commit an accepted lease's outcome to the queue.

        The lease is already released, so nothing here may leave the job
        RUNNING: a result that cannot be applied on this side (say, the
        cache log is no longer writable) fails the job as an entry error
        does.  The sweep prunes the job's fence once it is terminal.
        """
        if body.get("crashed"):
            # The *solver* died under the worker: retryable, so it goes
            # back through the capped-backoff/quarantine machinery instead
            # of failing the job on a deterministic-error path.
            self.queue.metrics.inc("qed_fleet_crash_reports_total")
            requeued = self.queue.fleet_requeue(
                job,
                reason="worker_crash",
                error=str(body.get("error") or "") or None,
            )
            return {"accepted": True, "reason": "crash_reported", "requeued": requeued}
        self.queue.metrics.inc("qed_fleet_commits_accepted_total")
        error = str(body.get("error") or "worker reported no result")
        result = body.get("result")
        if isinstance(result, dict) and isinstance(result.get("record"), dict):
            try:
                self.queue._finish_success(job, result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if job.state is JobState.RUNNING:
            self.queue.fleet_fail(job, error)
        elif info is not None:
            info.jobs_done += 1
        return {"accepted": True, "reason": "accepted"}

    def _release(self, lease: Lease, *, completed: bool) -> None:
        self._leases.pop(lease.lease_id, None)
        info = self._workers.get(lease.worker_id)
        if info is not None:
            info.lease_ids.discard(lease.lease_id)
        if completed:
            self._completed[lease.lease_id] = None
            if len(self._completed) > _COMPLETED_LEASES_KEPT:
                self._completed.popitem(last=False)

    def _expire(self, lease: Lease, *, reason: str) -> None:
        """Invalidate a lease and hand its job back to the queue."""
        self._release(lease, completed=False)
        self.queue.metrics.inc("qed_fleet_leases_expired_total")
        self.queue.traces.add_event(
            lease.job_id,
            "fleet.lease_expired",
            worker=lease.worker_id,
            lease_id=lease.lease_id,
            fence=lease.fence,
            reason=reason,
        )
        job = self.queue.jobs.get(lease.job_id)
        if job is not None and job.state is JobState.RUNNING:
            self.queue.metrics.inc("qed_fleet_lease_reassignments_total")
            self.queue.fleet_requeue(job, reason=reason)

    def sweep(self, now: float) -> None:
        """One reaper pass: liveness transitions, lease expiry, GC."""
        for info in self._workers.values():
            age = now - info.last_seen_mono
            if info.state is not WorkerState.DEAD and age > self.dead_after:
                info.state = WorkerState.DEAD
                self.queue.metrics.inc("qed_fleet_worker_deaths_total")
                for lease_id in list(info.lease_ids):
                    lease = self._leases.get(lease_id)
                    if lease is not None:
                        self._expire(lease, reason="worker_dead")
            elif info.state is WorkerState.LIVE and age > self.suspect_after:
                info.state = WorkerState.SUSPECT
        for lease in list(self._leases.values()):
            if lease.expires_mono <= now:
                self._expire(lease, reason="lease_expired")
        leased_jobs = {lease.job_id for lease in self._leases.values()}
        for job_id in list(self._fences):
            if job_id in leased_jobs:
                continue
            job = self.queue.jobs.get(job_id)
            if job is None or job.state.terminal:
                del self._fences[job_id]

    # -- introspection -----------------------------------------------
    def worker_counts(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in WorkerState}
        for info in self._workers.values():
            counts[info.state.value] += 1
        return counts

    def has_active_leases(self) -> bool:
        return bool(self._leases)

    def stats_dict(self) -> Dict[str, object]:
        """Fleet section of ``GET /stats`` (and ``GET /fleet``); counters
        are read off the queue's registry."""
        now = time.monotonic()
        counts = self.worker_counts()
        counter = self.queue.counter
        return {
            "lease_seconds": self.lease_seconds,
            "heartbeat_seconds": self.heartbeat_seconds,
            "workers": counts,
            "workers_registered": counter("qed_fleet_workers_registered_total"),
            "workers_died": counter("qed_fleet_worker_deaths_total"),
            "workers_revived": counter("qed_fleet_workers_revived_total"),
            "leases_outstanding": len(self._leases),
            "leases_granted": counter("qed_fleet_leases_granted_total"),
            "leases_expired": counter("qed_fleet_leases_expired_total"),
            "lease_reassignments": counter(
                "qed_fleet_lease_reassignments_total"
            ),
            "heartbeats_received": counter("qed_fleet_heartbeats_total"),
            "commits_received": counter("qed_fleet_commits_total"),
            "commits_accepted": counter("qed_fleet_commits_accepted_total"),
            "fenced_commits_rejected": counter("qed_fleet_fenced_commits_total"),
            "duplicate_commits": counter("qed_fleet_duplicate_commits_total"),
            "crash_reports": counter("qed_fleet_crash_reports_total"),
            "workers_table": [
                info.to_json_dict(now)
                for info in sorted(
                    self._workers.values(), key=lambda w: w.worker_id
                )
            ],
        }

    def refresh_gauges(self) -> None:
        """Point-in-time fleet gauges for ``GET /metrics`` scrape time."""
        metrics = self.queue.metrics
        for state, count in self.worker_counts().items():
            metrics.set_gauge(f"qed_fleet_workers_{state}", float(count))
        metrics.set_gauge(
            "qed_fleet_leases_outstanding", float(len(self._leases))
        )


# ----------------------------------------------------------------------
# Worker side.
def _run_entry(
    entry: Callable,
    spec_dict: Dict[str, object],
    job_id: str,
    progress: Callable[[Dict[str, object]], None],
    deadline_seconds: Optional[float],
) -> Dict[str, object]:
    """One entry call as an outcome: ``{"result": ...}`` or ``{"error": ...}``
    (``deadline_seconds`` is passed only when set: old 3-argument entries)."""
    kwargs: Dict[str, object] = {}
    if deadline_seconds is not None:
        kwargs["deadline_seconds"] = deadline_seconds
    try:
        return {"result": entry(spec_dict, job_id, progress, **kwargs)}
    except Exception as exc:  # entry exceptions are deterministic
        return {"error": f"{type(exc).__name__}: {exc}"}


def _solver_loop(  # fork-entry: a worker's persistent solver child
    conn, parent_end, entry: Callable
) -> None:
    """Body of a worker's solver child: one job per request, until EOF.

    A request is ``(spec_dict, job_id, deadline_seconds)``.  Every event
    the entry emits goes back as ``("event", payload)`` and the outcome
    last as ``("outcome", {...})``, so the pipe's order delivers a job's
    events before its outcome.  An idle child also exits once its worker
    is gone (re-parented), even if a sibling still holds the pipe.
    """
    parent_end.close()
    parent = os.getppid()
    # Started daemonic, so the server's exit never waits on it; but a solve
    # may fork a pool of its own (a spec with ``split`` does).
    multiprocessing.current_process().daemon = False

    def progress(payload: Dict[str, object]) -> None:
        conn.send(("event", payload))

    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return
            spec_dict, job_id, deadline_seconds = conn.recv()
        except (EOFError, OSError):
            return
        outcome = _run_entry(entry, spec_dict, job_id, progress, deadline_seconds)
        try:
            conn.send(("outcome", outcome))
        except OSError:
            return


#: Serializes solver-child forks: a fork racing another thread's fork could
#: inherit that child's pipe and sentinel ends and hide its death.
_FORK_LOCK = threading.Lock()


class _SolverChild:
    """A worker's persistent solver process (``use_processes=True``).

    Forked lazily at the first :meth:`start` -- so it inherits whatever
    fingerprint and lint memos the process has warmed by then -- and
    reused across leases; forked again after it dies or is killed.
    """

    def __init__(self, entry: Callable) -> None:
        self.entry = entry
        self._proc = None
        self._conn = None
        self._events: List[Dict[str, object]] = []
        self._outcome: Optional[Dict[str, object]] = None

    def start(
        self,
        spec_dict: Dict[str, object],
        job_id: str,
        deadline_seconds: Optional[float],
    ) -> None:
        if self._proc is None or not self._proc.is_alive():
            self._spawn()
        self._events, self._outcome = [], None
        try:
            self._conn.send((spec_dict, job_id, deadline_seconds))
        except OSError:
            self._died()

    def _spawn(self) -> None:
        self.close()
        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe()
        with _FORK_LOCK:
            proc = ctx.Process(
                target=_solver_loop,
                args=(child_end, parent_end, self.entry),
                name="serve-solver",
                daemon=True,
            )
            proc.start()
            child_end.close()
        self._proc, self._conn = proc, parent_end

    def wait(self, timeout: float) -> bool:
        """Collect events until the outcome is in (True) or *timeout*."""
        deadline = time.monotonic() + timeout
        while self._outcome is None:
            remaining = deadline - time.monotonic()
            ready = multiprocessing.connection.wait(
                [self._conn, self._proc.sentinel], max(0.0, remaining)
            )
            if self._conn in ready:
                try:
                    kind, payload = self._conn.recv()
                except (EOFError, OSError):
                    self._died()
                    break
                if kind == "event":
                    self._events.append(payload)
                else:
                    self._outcome = payload
            elif ready:
                self._died()  # the sentinel alone: nothing left to read
            elif remaining <= 0:
                return False
        return True

    def _died(self) -> None:
        proc = self._proc
        proc.join(1.0)
        self._outcome = {
            "crashed": True,
            "error": f"solver process exited with code {proc.exitcode}",
        }
        self.close()

    def drain_events(self) -> List[Dict[str, object]]:
        events, self._events = self._events, []
        return events

    def outcome(self) -> Dict[str, object]:
        return self._outcome or {"crashed": True}

    def interrupt(self) -> None:
        """(Any thread) SIGKILL the child so a pending :meth:`wait` returns."""
        proc = self._proc
        if proc is not None and proc.exitcode is None:
            proc.kill()

    def close(self) -> None:
        """Kill the child (if any) and reap it."""
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.exitcode is None:
                proc.kill()
            proc.join()
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class _ThreadRunner:
    """Each solve on a daemon thread (``use_processes=False``).

    A thread cannot be killed: revocation and stop abandon it, and its
    late events and outcome land in that lease's own buffers, never in
    the next one's.
    """

    def __init__(self, entry: Callable) -> None:
        self.entry = entry
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        self._outcome: Dict[str, object] = {}
        self._finished = threading.Event()

    def start(
        self,
        spec_dict: Dict[str, object],
        job_id: str,
        deadline_seconds: Optional[float],
    ) -> None:
        events: List[Dict[str, object]] = []
        outcome: Dict[str, object] = {}
        finished = threading.Event()
        self._events, self._outcome, self._finished = events, outcome, finished
        lock = self._lock

        def progress(payload: Dict[str, object]) -> None:
            with lock:
                events.append(payload)

        def main() -> None:
            try:
                outcome.update(
                    _run_entry(
                        self.entry, spec_dict, job_id, progress, deadline_seconds
                    )
                )
            finally:
                finished.set()  # no outcome at all reads as a crash

        threading.Thread(target=main, name="fleet-solve", daemon=True).start()

    def wait(self, timeout: float) -> bool:
        return self._finished.wait(timeout)

    def drain_events(self) -> List[Dict[str, object]]:
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def outcome(self) -> Dict[str, object]:
        return dict(self._outcome) or {"crashed": True}

    def interrupt(self) -> None:
        self._finished.set()  # wake the wait; the thread itself runs on

    def close(self) -> None:
        pass


class FleetWorker:
    """Pull-loop worker: register -> lease -> solve+heartbeat -> commit.

    ``use_processes=True`` (the deployment mode) solves in the worker's
    persistent solver child, which it SIGKILLs when the coordinator
    revokes the lease; ``use_processes=False`` solves on a daemon thread.
    *client* defaults to a :class:`ServeClient` for *server_url*; the
    server's own workers pass the coordinator itself (its in-process
    :meth:`FleetCoordinator.fleet_call`).  Retries after a transport error
    are paced on the heartbeat interval, jittered with a seed derived from
    the worker id, so a fleet that lost its server retries decorrelated
    instead of in lockstep.
    """

    def __init__(
        self,
        server_url: Optional[str] = None,
        *,
        worker_id: Optional[str] = None,
        entry: Callable = execute_job_spec,
        use_processes: bool = True,
        max_jobs: Optional[int] = None,
        request_timeout: float = 30.0,
        client=None,
        stop_event: Optional[threading.Event] = None,
    ) -> None:
        self.worker_id = worker_id or (
            f"w-{socket.gethostname()}-{os.getpid()}"
        )
        if client is None:
            if server_url is None:
                raise ValueError("FleetWorker needs a server_url or a client")
            client = ServeClient(
                server_url, timeout=request_timeout, jitter_seed=self.worker_id
            )
        self.client = client
        self.max_jobs = max_jobs
        self._stop = stop_event or threading.Event()
        self._abort = threading.Event()
        self._runner = (_SolverChild if use_processes else _ThreadRunner)(entry)
        self._rng = random.Random(f"fleet:{self.worker_id}")
        # Paced by the coordinator's answer at registration time.
        self.heartbeat_seconds = 2.0
        # Counters (returned by run(), printed by the worker subcommand).
        self.jobs_leased = 0
        self.commits_accepted = 0
        self.commits_rejected = 0
        self.commits_redundant = 0
        self.commits_dropped = 0
        self.heartbeats_sent = 0
        self.heartbeats_dropped = 0
        self.heartbeat_errors = 0
        self.leases_revoked = 0
        self.transport_errors = 0

    def stop(self) -> None:
        """Ask the pull loop to exit after the current lease."""
        self._stop.set()

    def abort(self) -> None:
        """(Any thread) Exit now: the solve in flight is killed and its
        lease handed back uncommitted; the loop then deregisters."""
        self._abort.set()
        self._stop.set()
        self._runner.interrupt()

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Run the pull loop until stopped (or ``max_jobs`` served)."""
        if not self._register():
            return self.stats_dict()
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None and self.jobs_leased >= self.max_jobs:
                    break
                lease = self._acquire_lease()
                if lease is None:
                    continue
                self.jobs_leased += 1
                self._run_lease(lease)
        finally:
            self._runner.close()
            try:
                self.client.fleet_call(
                    "deregister", {"worker_id": self.worker_id}
                )
            except ServeError:
                pass
        return self.stats_dict()

    def _register(self) -> bool:
        while not self._stop.is_set():
            try:
                resp = self.client.fleet_call(
                    "register",
                    {
                        "worker_id": self.worker_id,
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                    },
                )
            except ServeError:
                # Server not up yet (or partitioned): wait and retry.
                self._transport_error()
                continue
            self.heartbeat_seconds = float(
                resp.get("heartbeat_seconds", self.heartbeat_seconds)
            )
            return True
        return False

    def _transport_error(self) -> None:
        self.transport_errors += 1
        self._stop.wait(self.heartbeat_seconds * (0.5 + 0.5 * self._rng.random()))

    def _acquire_lease(self) -> Optional[Dict[str, object]]:
        """One lease request; the coordinator waits while nothing is
        runnable, so an empty answer is retried at once."""
        try:
            resp = self.client.fleet_call(
                "lease", {"worker_id": self.worker_id}
            )
        except ServeError:
            self._transport_error()
            return None
        if resp.get("reregister"):
            self._register()
            return None
        lease = resp.get("lease")
        return lease if isinstance(lease, dict) else None

    # ------------------------------------------------------------------
    def _run_lease(self, lease: Dict[str, object]) -> None:
        if self._abort.is_set():
            return
        job_id = str(lease["job_id"])
        # Every heartbeat and the commit name the worker, lease and job.
        ident = {
            "worker_id": self.worker_id,
            "lease_id": str(lease["lease_id"]),
            "job_id": job_id,
        }
        deadline_seconds = lease.get("deadline_seconds")
        runner = self._runner
        runner.start(
            dict(lease["spec"]),
            job_id,
            None if deadline_seconds is None else float(deadline_seconds),
        )
        pending: List[Dict[str, object]] = []
        while True:
            done = runner.wait(self.heartbeat_seconds)
            pending.extend(runner.drain_events())
            if self._abort.is_set():
                runner.close()  # leave the lease to expire on deregister
                return
            if done:
                break
            # Chaos-harness message site: a seeded drop silences this beat
            # (buffered events survive for the next one) -- enough dropped
            # beats and the coordinator declares us dead.
            fate = faults.message_fate("fleet.worker.heartbeat")
            if fate == "drop":
                self.heartbeats_dropped += 1
                continue
            body = {**ident, "events": pending}
            try:
                resp = self.client.fleet_call("heartbeat", body)
                self.heartbeats_sent += 1
                pending = []
                if fate == "duplicate":
                    self.client.fleet_call("heartbeat", {**body, "events": []})
                if resp.get("lease") == "revoked":
                    self.leases_revoked += 1
                    runner.close()  # the lease is gone; stop burning CPU on it
                    return
            except ServeError:
                # Partitioned mid-solve: keep solving.  If the partition
                # outlives the lease the coordinator reassigns the job and
                # our eventual commit is fence-rejected -- correct either
                # way, so there is nothing to abort here.
                self.heartbeat_errors += 1
        body = {
            **ident,
            "fence": int(lease["fence"]),
            "events": pending + runner.drain_events(),
            **runner.outcome(),
        }
        # Chaos-harness commit site (one hit per commit: message_fate also
        # applies inline actions): a seeded ``delay`` here longer than the
        # lease turns this worker into the canonical zombie (solved,
        # paused, resumed after reassignment); ``kill`` dies with the
        # result computed but unsent; ``drop`` loses the commit outright
        # (lease expiry recovers); ``duplicate`` sends it twice (the
        # second must be rejected as duplicate_commit).
        fate = faults.message_fate("fleet.worker.commit")
        if fate == "drop":
            self.commits_dropped += 1
            return
        try:
            resp = self.client.fleet_call("complete", body)
            if fate == "duplicate":
                self.client.fleet_call("complete", body)
        except ServeError as exc:
            if exc.status is not None:
                raise
            self.transport_errors += 1
            return
        reason = str(resp.get("reason", ""))
        if resp.get("accepted"):
            self.commits_accepted += 1
        elif reason == "duplicate_commit":
            self.commits_redundant += 1
        else:
            self.commits_rejected += 1

    def stats_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "jobs_leased": self.jobs_leased,
            "commits_accepted": self.commits_accepted,
            "commits_rejected": self.commits_rejected,
            "commits_redundant": self.commits_redundant,
            "commits_dropped": self.commits_dropped,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_dropped": self.heartbeats_dropped,
            "heartbeat_errors": self.heartbeat_errors,
            "leases_revoked": self.leases_revoked,
            "transport_errors": self.transport_errors,
        }


# ----------------------------------------------------------------------
class AdmissionController:
    """Per-client token-bucket fairness in front of ``POST /jobs``.

    Loop-confined like the queue (called only from server coroutines), so
    no locking.  Each client accrues ``rate`` tokens/second up to
    ``burst``; a submission spends one token, and an empty bucket answers
    with the seconds until the next token accrues -- the 429 response's
    ``Retry-After``.  The bucket table is LRU-bounded so an open endpoint
    cannot be memory-exhausted by client-id churn.
    """

    def __init__(
        self,
        *,
        rate: float = 20.0,
        burst: float = 40.0,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._clock = clock
        #: client id -> [tokens, last refill instant]
        self._buckets: "OrderedDict[str, List[float]]" = OrderedDict()
        self.admitted = 0
        self.rejected = 0

    def admit(self, client_id: str) -> Optional[float]:
        """Spend one token; ``None`` admits, a float is the Retry-After."""
        now = self._clock()
        bucket = self._buckets.get(client_id)
        if bucket is None:
            while len(self._buckets) >= self.max_clients:
                self._buckets.popitem(last=False)
            bucket = [float(self.burst), now]
            self._buckets[client_id] = bucket
        else:
            tokens, last = bucket
            bucket[0] = min(self.burst, tokens + (now - last) * self.rate)
            bucket[1] = now
            self._buckets.move_to_end(client_id)
        if bucket[0] >= 1.0:
            bucket[0] -= 1.0
            self.admitted += 1
            return None
        self.rejected += 1
        return max((1.0 - bucket[0]) / self.rate, 0.001)

    def stats_dict(self) -> Dict[str, object]:
        return {
            "rate_per_second": self.rate,
            "burst": self.burst,
            "clients_tracked": len(self._buckets),
            "admitted": self.admitted,
            "rejected": self.rejected,
        }
