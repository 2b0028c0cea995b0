"""Stdlib-only asyncio HTTP front end over the job queue.

One :class:`QEDServer` binds a :class:`~repro.serve.queue.JobQueue` (and its
result cache) to a TCP port.  The protocol is deliberately small --
HTTP/1.1, one request per connection, JSON bodies -- so the whole server
fits in the standard library and survives hostile input: any parse error or
handler exception turns into a 4xx/5xx response (or a dropped connection)
on *that* connection only; the accept loop never dies.

Endpoints
=========

``POST /jobs``
    Submit a job.  Body: ``{"bug_id": ..., "config": <CampaignConfig json>,
    "priority": N}`` or ``{"spec": <JobSpec canonical dict>}``.  Responds
    ``202`` with the job view (``200`` when answered from cache).
``GET /jobs/<id>[?wait=SECS&since=VERSION]``
    Job view.  With ``wait``, long-polls until the job's version counter
    passes ``since`` (a state change, a coalesced submitter, a cancel
    request) or the timeout lapses.
``DELETE /jobs/<id>``
    Cancel (queued jobs only; running solves finish and are cached).
``GET /results/<cache-key>``
    Raw cache entry for a content-addressed key, 404 when absent.
``GET /jobs/<id>/trace``
    The job's span tree (queue-side spans plus re-rooted worker batches)
    as JSON -- the :class:`repro.obs.trace.TraceStore` view rendered by
    ``scripts/trace_qed.py``; each solved bound is a ``bmc.bound`` span.
``GET /jobs/<id>/telemetry[?since=N]``
    The heartbeat view of the same trace: solver heartbeats and the
    engine's per-bound ``bound`` heartbeats, live while the job runs.
``GET /stats``
    Queue, fleet and HTTP counters -- read off the same registry
    ``GET /metrics`` renders -- plus the cache's own (input of
    :func:`repro.eval.report.serving_statistics`).
``GET /metrics``
    Prometheus text exposition: queue/fleet/HTTP counters, solver work
    counters merged up from worker processes, stage-seconds histograms.
``GET /healthz``
    Liveness + readiness probe: ``200`` when at least one worker, local
    or remote, is live, the cache log is writable and the queue is not
    draining; ``503`` (with the same payload) otherwise.  The payload
    carries the individual signals (``no_executors`` when no worker is
    live) plus the live/suspect/dead worker counts and outstanding leases.
``POST /fleet/register|lease|heartbeat|complete|deregister``
    The remote-worker protocol (:mod:`repro.serve.fleet`): pull jobs
    under time-bounded, fence-epoch leases, heartbeat to renew them and
    ship observability batches, commit with the fence token -- the same
    verbs the server's own workers call in-process.
    404 unless the server accepts remote workers (``fleet=True``).
    ``GET /fleet`` is the coordinator's worker/lease table, local workers
    included.

Admission control (when configured) answers ``POST /jobs`` with **429 +
Retry-After** instead of queueing without bound: the queue's
``max_queue_depth`` caps backlog depth, and a per-client token bucket
(:class:`repro.serve.fleet.AdmissionController`, identity from the
``X-Client-Id`` header or the peer address) keeps one greedy client from
starving the farm.

:class:`LocalServer` runs the full stack (loop, queue, server) on a
background thread -- the in-process deployment used by tests, the CLI's
``campaign`` subcommand and the quickstart example.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import threading
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.analysis.findings import DesignLintError
from repro.serve.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.serve.fleet import AdmissionController, FleetCoordinator
from repro.serve.keys import JobSpec
from repro.serve.queue import (
    JobQueue,
    QueueDraining,
    QueueFull,
    execute_job_spec,
)

__all__ = ["QEDServer", "LocalServer"]


def _lint_spec_design(spec: JobSpec) -> None:
    """Structural lint of the design version a job spec names.

    Runs in the executor (design building is CPU work).  Raises
    :class:`DesignLintError` on a malformed netlist and ``KeyError`` on an
    unknown version name; memoized per (version, arch) in the lint layer,
    so repeat submissions of a known-good version are free.  A spec that
    arrives already resolved is not re-linted: its fingerprint was computed
    by structurally hashing the elaborated design, which a malformed
    netlist cannot survive.
    """
    if spec.fingerprint:
        return
    from repro.analysis.netlist_lint import check_version_design
    from repro.uarch.versions import version_by_name

    version = version_by_name(spec.version)
    check_version_design(version, spec.campaign_config().arch)

#: Hard request limits -- a malformed or hostile client exhausts these and
#: gets a 4xx, not a wedged server.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1024 * 1024
#: Long-poll ceiling; clients re-issue the request to keep streaming.
MAX_WAIT_SECONDS = 60.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Raised by parsing/handling; mapped to a 400 response."""


class QEDServer:
    """The asyncio HTTP server; owns nothing but the listening socket."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        fleet: bool = False,
    ) -> None:
        self.queue = queue
        self.host = host
        self.port = port
        #: Serve ``POST /fleet/*`` to remote workers.
        self.fleet = fleet
        #: Per-client token buckets in front of POST /jobs; ``None``
        #: disables the fairness layer (depth bounding stays with the
        #: queue's own ``max_queue_depth``).
        self.admission = admission
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the queue (if idle) and begin accepting connections."""
        await self.queue.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.stop()

    async def drain(self, state_path: Optional[str] = None) -> dict:
        """Graceful shutdown: drain the queue and persist its state.

        In-flight long-polls keep streaming while running solves finish
        (the listener stays up so ``GET /jobs/<id>`` and ``/healthz``
        still answer; new ``POST /jobs`` get 503).  The queued-work
        snapshot is written atomically to *state_path* (when given) and
        returned; pass it to :meth:`JobQueue.restore_state` -- or start
        the server with the same path -- to resume after a restart.
        """
        state = await self.queue.drain()
        if state_path is not None:
            tmp_path = state_path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as stream:
                json.dump(state, stream, sort_keys=True, indent=2)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_path, state_path)
        return state

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except _BadRequest as exc:
                self._rejected()
                await self._respond(writer, 400, {"error": str(exc)})
                return
            client_id = headers.get("x-client-id")
            if not client_id:
                peer = writer.get_extra_info("peername")
                client_id = peer[0] if isinstance(peer, tuple) else "unknown"
            extra_headers: Optional[Dict[str, str]] = None
            try:
                result = await self._route(method, path, body, client_id)
                if len(result) == 3:
                    status, payload, extra_headers = result
                else:
                    status, payload = result
            except _BadRequest as exc:
                self._rejected()
                status, payload = 400, {"error": str(exc)}
            except KeyError as exc:
                status, payload = 404, {"error": f"not found: {exc}"}
            except Exception as exc:  # handler bug: report, keep serving
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            self.queue.metrics.inc("qed_http_requests_total")
            await self._respond(writer, status, payload, extra_headers)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], Optional[dict]]:
        try:
            request_line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request line too long")
        except asyncio.IncompleteReadError:
            raise _BadRequest("truncated request line")
        if len(request_line) > MAX_REQUEST_LINE:
            raise _BadRequest("request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1]

        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except (asyncio.LimitOverrunError, asyncio.IncompleteReadError):
                raise _BadRequest("malformed headers")
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _BadRequest("headers too large")
            if line in (b"\r\n", b"\n"):
                break
            text = line.decode("latin-1").strip()
            if ":" not in text:
                raise _BadRequest(f"malformed header line {text!r}")
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()

        body: Optional[dict] = None
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise _BadRequest("malformed Content-Length")
            if length < 0 or length > MAX_BODY_BYTES:
                raise _BadRequest("body too large")
            if length:
                try:
                    raw = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    raise _BadRequest("truncated body")
                try:
                    body = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    raise _BadRequest("body is not valid JSON")
                if not isinstance(body, dict):
                    raise _BadRequest("body must be a JSON object")
        return method, path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # A str payload is pre-rendered plain text (the Prometheus
        # exposition of GET /metrics); everything else is a JSON body.
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode()
            content_type = "application/json"
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extras}"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: Optional[dict], client_id: str
    ) -> Tuple[int, object]:
        url = urlsplit(target)
        segments = [s for s in url.path.split("/") if s]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}

        if segments == ["healthz"] and method == "GET":
            return self._healthz()
        if segments == ["stats"] and method == "GET":
            return 200, self._stats()
        if segments == ["metrics"] and method == "GET":
            return 200, self.queue.render_metrics()
        if segments and segments[0] == "fleet":
            return await self._fleet(method, segments, body)
        if segments == ["jobs"]:
            if method == "GET":
                return 200, {"jobs": self.queue.jobs_summary()}
            if method != "POST":
                return 405, {"error": "POST /jobs or GET /jobs"}
            return await self._submit(body or {}, client_id)
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "trace"
        ):
            if method != "GET":
                return 405, {"error": "GET /jobs/<id>/trace"}
            return self._get_trace(segments[1])
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "telemetry"
        ):
            if method != "GET":
                return 405, {"error": "GET /jobs/<id>/telemetry"}
            return self._get_telemetry(segments[1], query)
        if len(segments) == 2 and segments[0] == "jobs":
            if method == "GET":
                return await self._get_job(segments[1], query)
            if method == "DELETE":
                return self._cancel_job(segments[1])
            return 405, {"error": "GET or DELETE /jobs/<id>"}
        if len(segments) == 2 and segments[0] == "results" and method == "GET":
            return self._get_result(segments[1])
        return 404, {"error": f"no route for {method} {url.path}"}

    async def _fleet(
        self, method: str, segments: list, body: Optional[dict]
    ) -> Tuple[int, dict]:
        """The worker protocol: dispatch to the coordinator."""
        fleet = self.queue.fleet
        if segments == ["fleet"]:
            if method != "GET":
                return 405, {"error": "GET /fleet"}
            return 200, {"fleet": fleet.stats_dict()}
        if not self.fleet:
            return 404, {"error": "fleet mode is not enabled"}
        if len(segments) != 2 or segments[1] not in fleet.VERBS:
            return 404, {"error": f"no fleet route {'/'.join(segments)!r}"}
        if method != "POST":
            return 405, {"error": f"POST /fleet/{segments[1]}"}
        try:
            return 200, await fleet.call(segments[1], body or {})
        except ValueError as exc:
            raise _BadRequest(str(exc))

    async def _submit(self, body: dict, client_id: str) -> Tuple[int, object]:
        if self.admission is not None:
            retry_after = self.admission.admit(client_id)
            if retry_after is not None:
                self._rejected()
                self.queue.metrics.inc(
                    "qed_admission_rejections_total", reason="client_rate"
                )
                return (
                    429,
                    {
                        "error": "client rate limit exceeded",
                        "retry_after": retry_after,
                    },
                    {"Retry-After": str(max(1, math.ceil(retry_after)))},
                )
        try:
            if "spec" in body:
                if not isinstance(body["spec"], dict):
                    raise _BadRequest("'spec' must be a JSON object")
                spec = JobSpec.from_dict(body["spec"])
            elif "bug_id" in body:
                from repro.eval.campaign import CampaignConfig

                config = (
                    CampaignConfig.from_json_dict(body["config"])
                    if body.get("config")
                    else None
                )
                spec = JobSpec.from_campaign(
                    str(body["bug_id"]), config, resolve_fingerprint=False
                )
            else:
                raise _BadRequest("body needs 'spec' or 'bug_id'")
            priority = int(body.get("priority", 0))
            force = bool(body.get("force", False))
            deadline_seconds = body.get("deadline_seconds")
            if deadline_seconds is not None:
                deadline_seconds = float(deadline_seconds)
                if deadline_seconds <= 0:
                    raise _BadRequest("deadline_seconds must be positive")
        except _BadRequest:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _BadRequest(f"invalid job spec: {exc}")
        # Structural lint BEFORE fingerprint resolution: resolving hashes
        # the elaborated netlist, and a malformed design (e.g. a forged
        # combinational cycle) would hang that walk.  A lint failure is a
        # client error -- return the structured report, not a solve.
        # Fingerprint resolution may elaborate a netlist (~100 ms on a
        # cold memo); both run off-loop so long-polls keep streaming.
        loop = asyncio.get_running_loop()
        lint_start = time.monotonic()
        try:
            await loop.run_in_executor(None, _lint_spec_design, spec)
        except DesignLintError as exc:
            self._rejected()
            return 400, {"error": str(exc), "lint": exc.report.to_json_dict()}
        except (KeyError, ValueError) as exc:
            raise _BadRequest(f"invalid job spec: {exc}")
        lint_end = time.monotonic()
        try:
            spec = await loop.run_in_executor(None, spec.resolved)
        except (KeyError, ValueError) as exc:
            raise _BadRequest(f"invalid job spec: {exc}")
        resolve_end = time.monotonic()
        try:
            job = self.queue.submit(
                spec,
                priority=priority,
                force=force,
                deadline_seconds=deadline_seconds,
            )
        except QueueDraining as exc:
            self._rejected()
            return 503, {"error": str(exc), "draining": True}
        except QueueFull as exc:
            self._rejected()
            return (
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": str(max(1, math.ceil(exc.retry_after)))},
            )
        # The lint/resolve spans happen before the job exists, so they are
        # captured here and recorded once its trace entry is open.
        self.queue.traces.add_span(job.job_id, "serve.lint", lint_start, lint_end)
        self.queue.traces.add_span(
            job.job_id, "serve.resolve", lint_end, resolve_end
        )
        return (200 if job.cache_hit else 202), {"job": job.to_json_dict()}

    async def _get_job(self, job_id: str, query: Dict[str, str]) -> Tuple[int, dict]:
        job = self.queue.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if "wait" in query:
            try:
                timeout = min(float(query["wait"]), MAX_WAIT_SECONDS)
                since = int(query.get("since", job.version))
            except ValueError:
                raise _BadRequest("wait/since must be numeric")
            await self.queue.wait(job, since=since, timeout=timeout)
        return 200, {"job": job.to_json_dict()}

    def _get_trace(self, job_id: str) -> Tuple[int, dict]:
        """``GET /jobs/<id>/trace``: the job's aggregated span tree."""
        job = self.queue.jobs.get(job_id)
        trace = self.queue.traces.to_json_dict(job_id)
        if trace is None:
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            return 404, {
                "error": f"no trace recorded for {job_id!r} (tracing off?)"
            }
        if job is not None:
            trace["state"] = job.state.value
            trace["attempts"] = job.attempts
        return 200, {"trace": trace}

    def _get_telemetry(
        self, job_id: str, query: Dict[str, str]
    ) -> Tuple[int, dict]:
        """``GET /jobs/<id>/telemetry[?since=N]``: live solver heartbeats.

        Heartbeats stream up from the solver's cold branches while the
        job runs, as events of its trace; a poller passes the ``total`` it
        already holds as ``since`` and receives only newer entries from
        the trace's bounded event ring.
        """
        try:
            since = int(query.get("since", 0))
        except ValueError:
            raise _BadRequest("since must be an integer")
        telemetry = self.queue.telemetry_dict(job_id, since=since)
        if telemetry is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {"telemetry": telemetry}

    def _cancel_job(self, job_id: str) -> Tuple[int, dict]:
        try:
            cancelled = self.queue.cancel(job_id)
        except KeyError:
            return 404, {"error": f"unknown job {job_id!r}"}
        job = self.queue.jobs[job_id]
        return 200, {"cancelled": cancelled, "job": job.to_json_dict()}

    def _healthz(self) -> Tuple[int, dict]:
        """Readiness probe: 200 when the service can take work, else 503.

        Ready means: at least one worker, local or remote, is live; the
        result-cache log is writable (not a full disk or a detached
        volume); and the queue is not draining for shutdown.  The payload
        carries the individual signals either way, so an operator sees
        *why* from the probe itself.
        """
        stats = self.queue.stats_dict()
        cache_writable = self.queue.cache is None or self.queue.cache.writable()
        fleet = stats["fleet"]
        no_executors = fleet["workers"]["live"] == 0
        ready = not no_executors and cache_writable and not stats["draining"]
        payload = {
            "ok": ready,
            "queued": stats["queued"],
            "running": stats["running"],
            "draining": stats["draining"],
            "cache_writable": cache_writable,
            "no_executors": no_executors,
            "fleet": dict(fleet["workers"], leases_outstanding=fleet["leases_outstanding"]),
        }
        return (200 if ready else 503), payload

    def _get_result(self, key: str) -> Tuple[int, dict]:
        cache = self.queue.cache
        entry = cache.get(key) if cache is not None else None
        if entry is None:
            return 404, {"error": f"no cached result for {key!r}"}
        return 200, {"result": entry.to_json_dict(), "hits": entry.hits}

    def _rejected(self) -> None:
        self.queue.metrics.inc("qed_http_requests_rejected_total")

    def _stats(self) -> dict:
        return {
            "queue": self.queue.stats_dict(),
            "cache": (
                self.queue.cache.stats_dict()
                if self.queue.cache is not None
                else None
            ),
            "http": {
                "requests_served": self.queue.counter("qed_http_requests_total"),
                "requests_rejected": self.queue.counter(
                    "qed_http_requests_rejected_total"
                ),
                "admission": (
                    self.admission.stats_dict()
                    if self.admission is not None
                    else None
                ),
            },
        }


# ----------------------------------------------------------------------
class LocalServer:
    """Run the whole serving stack on a background thread.

    ``with LocalServer(...) as url:`` yields a ready ``http://host:port``
    and tears everything down (server, queue, local workers and their
    solver children) on exit.  This is the in-process deployment: tests,
    the CLI's spawn-a-server modes and the quickstart example all use it.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        entry=execute_job_spec,
        use_processes: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        state_path: Optional[str] = None,
        fleet: bool = False,
        fleet_kwargs: Optional[dict] = None,
        admission: Optional[dict] = None,
        **queue_kwargs,
    ) -> None:
        self.cache = cache if cache is not None else (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self._queue_args = dict(
            cache=self.cache,
            workers=workers,
            entry=entry,
            use_processes=use_processes,
            **queue_kwargs,
        )
        self._host = host
        self._port = port
        #: ``fleet=True`` opens ``POST /fleet/*`` to remote workers
        #: (``serve_qed.py worker``); ``fleet_kwargs`` configure the
        #: :class:`FleetCoordinator`, which paces local and remote workers
        #: alike; ``admission`` is the kwargs for an AdmissionController.
        self._fleet = fleet
        self._fleet_kwargs = dict(fleet_kwargs or {})
        self._admission_kwargs = admission
        #: Where :meth:`drain` persists queued work, and where start-up
        #: looks for a previous drain's snapshot to resume (the file is
        #: consumed -- deleted once its jobs are resubmitted).
        self.state_path = state_path
        self.server: Optional[QEDServer] = None
        self.queue: Optional[JobQueue] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def start(self) -> str:
        """Start the stack; returns the base URL once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("LocalServer already started")
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.base_url

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.queue = JobQueue(**self._queue_args)
        # Replaces the queue's default coordinator with a configured one.
        FleetCoordinator(self.queue, **self._fleet_kwargs)
        admission = (
            AdmissionController(**self._admission_kwargs)
            if self._admission_kwargs is not None
            else None
        )
        self.server = QEDServer(
            self.queue,
            host=self._host,
            port=self._port,
            admission=admission,
            fleet=self._fleet,
        )
        try:
            loop.run_until_complete(self.server.start())
            self._restore_persisted_state()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.run_until_complete(self.server.stop())
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def _restore_persisted_state(self) -> None:
        """Resubmit work a previous drain persisted (runs on the loop)."""
        path = self.state_path
        if path is None or not os.path.exists(path):
            return
        assert self.queue is not None
        try:
            with open(path, "r", encoding="utf-8") as stream:
                state = json.load(stream)
            self.queue.restore_state(state)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return  # corrupt snapshot: leave it on disk for inspection
        os.remove(path)

    def drain(self, state_path: Optional[str] = None, *, timeout: float = 60.0) -> dict:
        """Drain the queue from any thread; returns the persisted state.

        Running solves finish, queued work is snapshotted to
        ``state_path`` (default: the server's configured ``state_path``)
        and new submissions get 503 until the process restarts.
        """
        loop = self._loop
        assert loop is not None and self.server is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(state_path or self.state_path), loop
        )
        return future.result(timeout=timeout)

    def stop(self) -> None:
        """Stop the stack; returns once the solver children are reaped."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    @property
    def base_url(self) -> str:
        assert self.server is not None
        return self.server.base_url

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
