"""Typed stdlib HTTP client for the verification service.

:class:`ServeClient` wraps the wire protocol of
:mod:`repro.serve.server` -- submit, long-poll, cache lookup, stats --
behind typed calls, and :func:`run_campaign_via_server` rebuilds a full
:class:`~repro.eval.campaign.CampaignResult` from served jobs, which is how
the 16-version campaign runs through the service (``scripts/serve_qed.py
campaign``).

Only ``http.client`` is used (one connection per request, matching the
server's connection-per-request protocol); there are no third-party
dependencies anywhere in the serving stack.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, TypedDict, cast
from urllib.parse import urlencode, urlsplit

from repro import faults
from repro.eval.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignResult,
    campaign_job_record,
    selected_bug_ids,
)
from repro.obs import trace as obs_trace
from repro.serve.keys import JobSpec

__all__ = [
    "JobView",
    "QueueStats",
    "ServeClient",
    "ServeError",
    "StatsPayload",
    "run_campaign_via_server",
]


class QueueStats(TypedDict, total=False):
    """Typed mirror of :meth:`repro.serve.queue.JobQueue.stats_dict`."""

    workers: int
    jobs_submitted: int
    cache_hits: int
    coalesced: int
    executed: int
    failed: int
    cancelled: int
    retried: int
    deadline_expired: int
    quarantined: int
    quarantines: int
    quarantine_rejections: int
    queue_full_rejections: int
    max_queue_depth: Optional[int]
    draining: bool
    fleet: Optional[Dict[str, object]]
    running: int
    queued: int
    jobs_tracked: int
    queue_latency_seconds_total: float
    queue_latency_jobs: int
    traced_jobs: int
    flight_dumps: int
    flight_write_errors: int
    flight_evictions: int


class StatsPayload(TypedDict, total=False):
    """Typed mirror of ``GET /stats``."""

    queue: QueueStats
    cache: Optional[Dict[str, object]]
    http: Dict[str, int]


class ServeError(RuntimeError):
    """A request failed: transport error, non-2xx status, or a FAILED job.

    ``retry_after`` is populated from a 429 response's payload -- the
    server's own estimate of when resubmitting is worthwhile (admission
    control: queue depth bound or per-client token bucket).
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
        payload: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        #: The decoded JSON error body, when the server sent one -- e.g.
        #: the /healthz not-ready payload behind a 503.
        self.payload = payload


@dataclass
class JobView:
    """Client-side snapshot of one job (mirror of ``GET /jobs/<id>``)."""

    job_id: str
    state: str
    cache_key: str = ""
    cache_hit: bool = False
    coalesced: int = 0
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    version: int = 0
    trace_id: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "JobView":
        return cls(
            job_id=str(data["job_id"]),
            state=str(data["state"]),
            cache_key=str(data.get("cache_key", "")),
            cache_hit=bool(data.get("cache_hit", False)),
            coalesced=int(data.get("coalesced", 0)),
            record=data.get("record"),
            error=data.get("error"),
            version=int(data.get("version", 0)),
            trace_id=(
                str(data["trace_id"])
                if data.get("trace_id") is not None
                else None
            ),
        )


class ServeClient:
    """One verification-service endpoint, e.g. ``http://127.0.0.1:8123``.

    Transport failures (connection refused/reset, a dropped socket) are
    retried up to ``retries`` times with capped exponential backoff.  That
    is safe for every call in the protocol: the server's endpoints are
    idempotent by construction -- ``POST /jobs`` is content-addressed
    (an identical resubmission coalesces onto the in-flight job or hits
    the cache, it never starts a second solve) and the reads/cancels are
    plain lookups.  An HTTP *response*, of any status, is authoritative
    and never retried.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 120.0,
        retries: int = 3,
        retry_backoff: float = 0.05,
        jitter_seed: Optional[object] = None,
        client_id: Optional[str] = None,
    ) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// endpoints are supported: {base_url}")
        if not split.hostname:
            raise ValueError(f"no host in base url {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: Sent as ``X-Client-Id`` so the server's admission controller
        #: buckets this client's submissions under a stable identity.
        self.client_id = client_id
        # Seed-derived backoff jitter: every client (and every fleet
        # worker, which seeds with its worker id) retries on its own
        # deterministic schedule, so a reconnect storm after a partition
        # spreads out instead of hammering the server in lockstep.
        if jitter_seed is None:
            jitter_seed = (self.host, self.port, os.getpid())
        self._backoff_rng = random.Random(repr(jitter_seed))

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff with jitter in [0.5, 1.0]x."""
        base = min(self.retry_backoff * (2.0 ** (attempt - 1)), 2.0)
        return base * (0.5 + 0.5 * self._backoff_rng.random())

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        text: bool = False,
    ) -> Dict[str, object]:
        """One call, transport errors retried; ``text=True`` returns a
        successful body as text instead of decoded JSON."""
        last_error: Optional[ServeError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self._backoff_delay(attempt))
            try:
                return self._request_once(method, path, body, text=text)
            except ServeError as exc:
                if exc.status is not None:
                    raise  # an HTTP answer is authoritative; don't retry
                last_error = exc
        assert last_error is not None
        raise last_error

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        text: bool = False,
    ) -> Dict[str, object]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            if self.client_id is not None:
                headers["X-Client-Id"] = self.client_id
            try:
                # Chaos-harness transport site: a seeded ``reset`` raises
                # ConnectionResetError here, exactly like a server that
                # died mid-handshake -- exercised by the retry loop above.
                faults.crash_point("serve.client.request")
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"{method} {path} failed: {type(exc).__name__}: {exc}"
                )
            if text and response.status < 400:
                return raw.decode("utf-8")
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                raise ServeError(
                    f"{method} {path}: non-JSON response ({raw[:80]!r})",
                    status=response.status,
                )
            if response.status >= 400:
                retry_after = data.get("retry_after")
                raise ServeError(
                    f"{method} {path} -> {response.status}: "
                    f"{data.get('error', raw[:200])}",
                    status=response.status,
                    retry_after=(
                        float(retry_after)
                        if isinstance(retry_after, (int, float))
                        else None
                    ),
                    payload=data if isinstance(data, dict) else None,
                )
            return data
        finally:
            connection.close()

    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except ServeError:
            return False

    def healthz(self) -> Dict[str, object]:
        """The full /healthz payload; a 503 not-ready answer is returned
        as a payload (``ok: false`` plus the individual signals), not
        raised -- the probe's whole point is explaining unreadiness."""
        try:
            return self._request("GET", "/healthz")
        except ServeError as exc:
            if exc.status == 503 and exc.payload is not None:
                return exc.payload
            raise

    def submit(
        self,
        *,
        spec: Optional[JobSpec] = None,
        bug_id: Optional[str] = None,
        config: Optional[CampaignConfig] = None,
        priority: int = 0,
        force: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> JobView:
        """Submit by full spec, or by ``bug_id`` (+ optional config).

        ``force`` asks the server to re-solve even on a cache hit (the
        refresh path for non-definitive cached verdicts, and the operator
        override that clears a quarantined spec).  ``deadline_seconds``
        bounds the job by wall clock server-side; at expiry it completes
        with a non-definitive UNKNOWN record instead of running on.
        """
        if (spec is None) == (bug_id is None):
            raise ValueError("pass exactly one of spec= or bug_id=")
        body: Dict[str, object] = {"priority": priority}
        if force:
            body["force"] = True
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        if spec is not None:
            body["spec"] = spec.canonical_dict()
        else:
            body["bug_id"] = bug_id
            if config is not None:
                body["config"] = config.to_json_dict()
        return JobView.from_payload(self._request("POST", "/jobs", body)["job"])

    def job(
        self,
        job_id: str,
        *,
        wait: Optional[float] = None,
        since: Optional[int] = None,
    ) -> JobView:
        query: Dict[str, object] = {}
        if wait is not None:
            query["wait"] = wait
        if since is not None:
            query["since"] = since
        path = f"/jobs/{job_id}"
        if query:
            path += "?" + urlencode(query)
        return JobView.from_payload(self._request("GET", path)["job"])

    def wait_done(
        self,
        job_id: str,
        *,
        timeout: float = 600.0,
        poll: float = 30.0,
    ) -> JobView:
        """Long-poll *job_id* until it is terminal (its per-bound progress
        is the ``bound`` heartbeats of :meth:`telemetry`)."""
        deadline = time.monotonic() + timeout
        version = -1
        while True:
            view = self.job(
                job_id,
                wait=min(poll, max(0.0, deadline - time.monotonic())),
                since=version,
            )
            version = view.version
            if view.done:
                return view
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {view.state} after {timeout:.0f}s"
                )

    def cancel(self, job_id: str) -> bool:
        return bool(self._request("DELETE", f"/jobs/{job_id}")["cancelled"])

    def result(self, cache_key: str) -> Optional[Dict[str, object]]:
        try:
            return self._request("GET", f"/results/{cache_key}")["result"]
        except ServeError as exc:
            if exc.status == 404:
                return None
            raise

    def trace(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/<id>/trace``: the job's aggregated span tree."""
        trace = self._request("GET", f"/jobs/{job_id}/trace")["trace"]
        assert isinstance(trace, dict)
        return trace

    def jobs(self) -> List[Dict[str, object]]:
        """``GET /jobs``: compact per-job summaries (oldest first)."""
        jobs = self._request("GET", "/jobs")["jobs"]
        assert isinstance(jobs, list)
        return jobs

    def telemetry(self, job_id: str, *, since: int = 0) -> Dict[str, object]:
        """``GET /jobs/<id>/telemetry``: live solver heartbeats.

        Pass the ``total`` of the previous payload as ``since`` to receive
        only newer heartbeats (the server keeps a bounded ring per job).
        """
        path = f"/jobs/{job_id}/telemetry"
        if since:
            path += f"?since={since}"
        telemetry = self._request("GET", path)["telemetry"]
        assert isinstance(telemetry, dict)
        return telemetry

    def metrics_text(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition.

        Parse with :func:`repro.obs.parse_prometheus` when counters are
        needed as numbers.
        """
        return cast(str, self._request("GET", "/metrics", text=True))

    def stats(self) -> StatsPayload:
        return cast(StatsPayload, self._request("GET", "/stats"))

    # -- fleet worker protocol -----------------------------------------
    def fleet_call(self, verb: str, body: Dict[str, object]) -> Dict[str, object]:
        """``POST /fleet/<verb>``: one worker-protocol call (register,
        lease, heartbeat, complete or deregister; see
        :class:`repro.serve.fleet.FleetCoordinator`)."""
        return self._request("POST", f"/fleet/{verb}", body)

    def fleet(self) -> Dict[str, object]:
        """``GET /fleet``: the coordinator's worker/lease table."""
        payload = self._request("GET", "/fleet")["fleet"]
        assert isinstance(payload, dict)
        return payload


# ----------------------------------------------------------------------
def run_campaign_via_server(
    client: ServeClient,
    config: Optional[CampaignConfig] = None,
    *,
    timeout_per_job: float = 600.0,
) -> CampaignResult:
    """Run the bug-detection campaign *through* the service.

    The HTTP twin of :func:`~repro.eval.campaign.run_campaign`, on the
    same bug selection and terminal-job check: submits one job per
    selected bug (all up front, so the server's queue and cache do the
    scheduling), waits for each in bug-selection order, and rebuilds the
    same :class:`CampaignResult` -- records match it byte-for-byte on every
    deterministic field (:func:`repro.eval.campaign.record_comparable_dict`),
    serving provenance (``served_from_cache``/``cache_key``) included.  A
    job that does not end ``done`` raises :class:`ServeError`.
    """
    config = config or CampaignConfig()
    bug_ids = selected_bug_ids(config)
    campaign = CampaignResult()
    with obs_trace.span("run_campaign_via_server", jobs=len(bug_ids)) as span:
        # Fingerprints stay unresolved client-side: the server resolves them
        # once, off-loop, against its memoized elaborations -- no point in the
        # client serially elaborating every netlist before submitting.
        submissions = [
            client.submit(
                spec=JobSpec.from_campaign(
                    bug_id, config, resolve_fingerprint=False
                )
            )
            for bug_id in bug_ids
        ]
        for bug_id, view in zip(bug_ids, submissions):
            final = (
                view
                if view.done
                else client.wait_done(view.job_id, timeout=timeout_per_job)
            )
            try:
                record = campaign_job_record(
                    bug_id, final.state, final.record, final.error
                )
            except CampaignError as exc:
                raise ServeError(f"job {final.job_id}: {exc}") from None
            campaign.records.append(record)
    campaign.wall_clock_seconds = span.seconds
    return campaign
