"""Fleet protocol: leases, fence epochs, failure detection, admission.

Coordinator tests drive :class:`FleetCoordinator` directly on the queue's
loop with synthetic sweep times (no real reaper, no sleeps for expiry);
the end-to-end test runs a real :class:`FleetWorker` in thread mode
against a fleet-only :class:`LocalServer`.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.serve import fleet as fleet_module
from repro.serve.client import ServeClient, ServeError
from repro.serve.fleet import (
    AdmissionController,
    FleetCoordinator,
    FleetWorker,
)
from repro.serve.queue import JobQueue, JobState, _selftest_entry
from repro.serve.server import LocalServer

from serve_helpers import make_spec as spec


def run(coro):
    return asyncio.run(coro)


async def with_fleet(body, *, lease_seconds=0.5, heartbeat_seconds=0.1, **kwargs):
    kwargs.setdefault("entry", _selftest_entry)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("retry_backoff_base", 0.01)
    queue = JobQueue(**kwargs)
    fleet = FleetCoordinator(
        queue,
        lease_seconds=lease_seconds,
        heartbeat_seconds=heartbeat_seconds,
    )
    await queue.start()
    try:
        return await body(queue, fleet)
    finally:
        await queue.stop()


async def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


def commit_body(lease, **extra):
    return {
        "worker_id": lease.get("worker_id", "w1"),
        "lease_id": lease["lease_id"],
        "job_id": lease["job_id"],
        "fence": lease["fence"],
        **extra,
    }


class TestLeaseFence:
    def test_remote_commit_runs_the_local_completion_path(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            assert lease["job_id"] == job.job_id
            assert lease["fence"] == 1
            assert job.state is JobState.RUNNING
            result = _selftest_entry(lease["spec"], job.job_id, None)
            resp = fleet.complete(commit_body(lease, result=result))
            assert resp["accepted"] is True
            assert job.state is JobState.DONE
            assert job.record["detected_by"] == {"eddiv": True}
            assert queue.stats_dict()["executed"] == 1
            assert not fleet.has_active_leases()

        run(with_fleet(body))

    def test_duplicate_commit_is_rejected_not_double_applied(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            result = _selftest_entry(lease["spec"], job.job_id, None)
            assert fleet.complete(commit_body(lease, result=result))["accepted"]
            again = fleet.complete(commit_body(lease, result=result))
            assert again == {"accepted": False, "reason": "duplicate_commit"}
            assert queue.stats_dict()["executed"] == 1
            assert fleet.stats_dict()["duplicate_commits"] == 1

        run(with_fleet(body))

    def test_expired_lease_requeues_job_and_fences_the_zombie(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            result = _selftest_entry(lease["spec"], job.job_id, None)
            # The worker goes silent past the lease TTL: the job goes back
            # to the queue (one reassignment) and the lease token dies.
            fleet.sweep(time.monotonic() + 60.0)
            assert fleet.stats_dict()["lease_reassignments"] == 1
            assert job.state is JobState.QUEUED
            assert job.attempts == 1
            # The zombie resumes and commits its (correct!) result -- too
            # late: the fence comparison rejects it, nothing is recorded.
            late = fleet.complete(commit_body(lease, result=result))
            assert late == {"accepted": False, "reason": "stale_fence"}
            assert fleet.stats_dict()["fenced_commits_rejected"] == 1
            assert job.state is JobState.QUEUED
            assert queue.stats_dict()["executed"] == 0
            # A second worker picks the job up under a *newer* fence and
            # its commit lands normally.
            fleet.register({"worker_id": "w2"})
            assert await wait_for(
                lambda: fleet.lease({"worker_id": "w2"}).get("lease")
                is not None
                or job.state is JobState.RUNNING
            )
            # wait_for may have consumed the grant inside the predicate;
            # recover the active lease from the coordinator table.
            (lease2,) = fleet._leases.values()
            assert lease2.fence == 2
            resp = fleet.complete(
                {
                    "worker_id": "w2",
                    "lease_id": lease2.lease_id,
                    "job_id": job.job_id,
                    "fence": lease2.fence,
                    "result": result,
                }
            )
            assert resp["accepted"] is True
            assert job.state is JobState.DONE
            assert queue.stats_dict()["executed"] == 1

        run(with_fleet(body))

    def test_heartbeat_renews_lease_so_slow_solves_survive(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            # Beat well past the original TTL; each beat pushes expiry out.
            for _ in range(4):
                await asyncio.sleep(0.2)
                resp = fleet.heartbeat(commit_body(lease))
                assert resp["lease"] == "ok"
                fleet.sweep(time.monotonic())
            assert job.state is JobState.RUNNING
            assert fleet.stats_dict()["lease_reassignments"] == 0
            assert fleet.has_active_leases()

        run(with_fleet(body, lease_seconds=0.5))

    def test_heartbeat_for_expired_lease_reports_revoked(self):
        async def body(queue, fleet):
            queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            fleet.sweep(time.monotonic() + 60.0)
            resp = fleet.heartbeat(commit_body(lease))
            assert resp["lease"] == "revoked"

        run(with_fleet(body))

    def test_crash_report_requeues_through_retry_machinery(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            resp = fleet.complete(commit_body(lease, crashed=True))
            assert resp["accepted"] is True and resp["requeued"] is True
            assert job.state is JobState.QUEUED
            assert queue.stats_dict()["retried"] == 1
            assert fleet.stats_dict()["crash_reports"] == 1

        run(with_fleet(body))

    def test_crash_on_cancel_requested_job_cancels_it_unquarantined(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            assert queue.cancel(job.job_id) is False  # running: a request
            resp = fleet.complete(commit_body(lease, crashed=True))
            assert resp["requeued"] is False
            # Its only submitter asked to cancel: it ends as cancel() ends
            # a queued job, and the spec stays servable.
            assert job.state is JobState.CANCELLED
            assert job.attempts == 1
            assert not queue.quarantined
            stats = queue.stats_dict()
            assert stats["cancelled"] == 1 and stats["failed"] == 0
            again = queue.submit(spec())
            assert again is not job and again.state is JobState.QUEUED

        run(with_fleet(body))

    def test_crash_on_cancel_requested_coalesced_job_retries(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            assert queue.submit(spec()) is job and job.coalesced == 1
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            assert queue.cancel(job.job_id) is False
            assert job.cancel_requested
            resp = fleet.complete(commit_body(lease, crashed=True))
            # A coalesced twin still waits on the answer: retry as usual.
            assert resp["requeued"] is True
            assert job.state is JobState.QUEUED
            assert queue.stats_dict()["retried"] == 1
            assert not queue.quarantined

        run(with_fleet(body))

    def test_repeated_remote_crashes_quarantine_the_spec(self):
        async def body(queue, fleet):
            job = queue.submit(spec("__crash__"))
            fleet.register({"worker_id": "w1"})
            for attempt in range(queue.max_retries + 1):
                assert await wait_for(
                    lambda: fleet.lease({"worker_id": "w1"}).get("lease")
                    is not None
                    or bool(fleet._leases)
                )
                (lease,) = fleet._leases.values()
                fleet.complete(
                    {
                        "worker_id": "w1",
                        "lease_id": lease.lease_id,
                        "job_id": job.job_id,
                        "fence": lease.fence,
                        "crashed": True,
                    }
                )
            assert job.state is JobState.FAILED
            assert queue.quarantined
            # The quarantined spec now fails fast on resubmission.
            rejected = queue.submit(spec("__crash__"))
            assert rejected.state is JobState.FAILED

        run(with_fleet(body))

    def test_commit_that_cannot_be_applied_fails_the_job(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            lease = fleet.lease({"worker_id": "w1"})["lease"]
            result = _selftest_entry(lease["spec"], job.job_id, None)
            resp = fleet.complete(commit_body(lease, result=result))
            # The lease is released before the outcome is applied, so a
            # failing cache write must end the job, not orphan it.
            assert resp["accepted"] is True
            assert job.state is JobState.FAILED
            assert "PermissionError" in job.error
            assert not fleet.has_active_leases()
            assert queue.submit(spec()) is not job

        run(with_fleet(body, cache=_ReadOnlyCache()))


class _ReadOnlyCache:
    """A result cache whose every write fails (a read-only volume)."""

    directory = None

    def get(self, key, **kwargs):
        return None

    def put(self, key, record, **kwargs):
        raise PermissionError("read-only file system")


class TestLocalCalls:
    def test_idle_lease_wait_is_capped(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "_LEASE_WAIT_MAX", 0.1)

        async def body(queue, fleet):
            fleet.register({"worker_id": "w1"})
            start = time.monotonic()
            answer = await fleet.call("lease", {"worker_id": "w1"})
            assert answer == {"lease": None}
            # Not the 30 s heartbeat: a request timeout must never fire.
            assert time.monotonic() - start < 5.0

        run(with_fleet(body, heartbeat_seconds=30.0, lease_seconds=60.0))

    def test_stopping_coordinator_grants_no_lease(self):
        async def body(queue, fleet):
            fleet.register({"worker_id": "w1"})
            waiting = asyncio.ensure_future(
                fleet.call("lease", {"worker_id": "w1"})
            )
            await asyncio.sleep(0.05)  # the request now waits for work
            job = queue.submit(spec())  # wakes it ...
            await queue.stop()  # ... but the stop comes first
            assert await waiting == {"lease": None}
            assert job.state is JobState.QUEUED and job.attempts == 0
            assert fleet.stats_dict()["leases_granted"] == 0

        run(with_fleet(body))

    def test_verb_errors_reach_a_local_worker_as_transport_errors(self):
        async def body(queue, fleet):
            with pytest.raises(ServeError) as info:
                await asyncio.to_thread(fleet.fleet_call, "register", {})
            assert info.value.status is None
            assert "worker_id is required" in str(info.value)

        run(with_fleet(body))


class TestFailureDetection:
    def test_live_suspect_dead_transitions_with_heartbeat_grace(self):
        async def body(queue, fleet):
            fleet.register({"worker_id": "w1"})
            now = time.monotonic()
            counts = fleet.worker_counts()
            assert counts["live"] == 1
            fleet.sweep(now + fleet.suspect_after + 0.01)
            assert fleet.worker_counts()["suspect"] == 1
            fleet.sweep(now + fleet.dead_after + 0.01)
            assert fleet.worker_counts()["dead"] == 1
            assert fleet.stats_dict()["workers_died"] == 1
            # Any request from the worker revives it.
            fleet.heartbeat({"worker_id": "w1"})
            assert fleet.worker_counts()["live"] == 1
            assert fleet.stats_dict()["workers_revived"] == 1

        run(with_fleet(body))

    def test_dead_worker_leases_expire_before_the_lease_clock(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            fleet.lease({"worker_id": "w1"})
            # Death grace (4 beats = 0.4s) is far shorter than the lease
            # TTL: the sweep must reassign via death, not lease expiry.
            fleet.sweep(time.monotonic() + fleet.dead_after + 0.01)
            assert fleet.stats_dict()["lease_reassignments"] == 1
            assert job.state is JobState.QUEUED

        run(with_fleet(body, lease_seconds=60.0))

    def test_deregister_releases_leases_immediately(self):
        async def body(queue, fleet):
            job = queue.submit(spec())
            fleet.register({"worker_id": "w1"})
            fleet.lease({"worker_id": "w1"})
            resp = fleet.deregister({"worker_id": "w1"})
            assert resp["removed"] is True
            assert job.state is JobState.QUEUED
            assert not fleet.has_active_leases()

        run(with_fleet(body))

    def test_unregistered_worker_is_told_to_reregister(self):
        async def body(queue, fleet):
            queue.submit(spec())
            resp = fleet.lease({"worker_id": "ghost"})
            assert resp == {"lease": None, "reregister": True}

        run(with_fleet(body))


class TestWorkerEndToEnd:
    def test_thread_worker_solves_jobs_over_http(self, tmp_path):
        server = LocalServer(
            cache_dir=str(tmp_path),
            workers=0,
            entry=_selftest_entry,
            use_processes=False,
            fleet=True,
            fleet_kwargs=dict(lease_seconds=5.0, heartbeat_seconds=0.2),
        )
        with server as url:
            client = ServeClient(url)
            # Fleet-only with no workers attached: not ready, and says why.
            health = client.healthz()
            assert health["ok"] is False
            assert health["no_executors"] is True
            view_a = client.submit(spec=spec())
            view_b = client.submit(spec=spec("__sleep:0.05__"))
            worker = FleetWorker(
                url,
                worker_id="wt-1",
                entry=_selftest_entry,
                use_processes=False,
                max_jobs=2,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            final_a = client.wait_done(view_a.job_id, timeout=30)
            final_b = client.wait_done(view_b.job_id, timeout=30)
            thread.join(timeout=30)
            assert final_a.state == "done"
            assert final_a.record["detected_by"] == {"eddiv": True}
            assert final_b.state == "done"
            assert worker.commits_accepted == 2
            # The per-bound heartbeat crossed the wire (heartbeat/commit
            # relay).
            (beat,) = client.telemetry(view_a.job_id)["heartbeats"]
            assert (beat["site"], beat["verdict"]) == ("bound", "unsat")
            stats = client.stats()["queue"]["fleet"]
            assert stats["commits_accepted"] == 2
            assert stats["fenced_commits_rejected"] == 0
            from repro.obs.metrics import parse_prometheus

            metrics = parse_prometheus(client.metrics_text())
            assert metrics.get("qed_fleet_commits_total") == 2

        # Resubmission after restart over the same cache dir is a warm hit.
        with LocalServer(
            cache_dir=str(tmp_path),
            workers=0,
            entry=_selftest_entry,
            use_processes=False,
            fleet=True,
        ) as url:
            again = ServeClient(url).submit(spec=spec())
            assert again.cache_hit is True

    def test_worker_error_outcome_fails_job_without_retry(self, tmp_path):
        with LocalServer(
            cache_dir=None,
            workers=0,
            entry=_selftest_entry,
            use_processes=False,
            fleet=True,
            fleet_kwargs=dict(heartbeat_seconds=0.2),
        ) as url:
            client = ServeClient(url)
            view = client.submit(spec=spec())

            def raising_entry(spec_dict, job_id="", progress=None, **kwargs):
                raise ValueError("boom")

            worker = FleetWorker(
                url,
                worker_id="wt-err",
                entry=raising_entry,
                use_processes=False,
                max_jobs=1,
            )
            worker.run()
            final = client.wait_done(view.job_id, timeout=30)
            assert final.state == "failed"
            assert "boom" in (final.error or "")
            stats = client.stats()["queue"]
            assert stats["retried"] == 0


class TestAdmission:
    def test_token_bucket_rate_and_retry_after(self):
        now = [0.0]
        ac = AdmissionController(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert ac.admit("a") is None
        assert ac.admit("a") is None
        retry_after = ac.admit("a")
        assert retry_after == pytest.approx(1.0)
        now[0] += 1.0
        assert ac.admit("a") is None
        # Buckets are per-client: "a" being drained never starves "b".
        assert ac.admit("b") is None
        stats = ac.stats_dict()
        assert stats["admitted"] == 4 and stats["rejected"] == 1

    def test_bucket_table_is_lru_bounded(self):
        ac = AdmissionController(rate=1.0, burst=1.0, max_clients=2)
        assert ac.admit("a") is None
        assert ac.admit("b") is None
        assert ac.admit("c") is None  # evicts "a"
        assert ac.stats_dict()["clients_tracked"] == 2
        # "a" comes back with a fresh (full) bucket -- eviction never
        # penalizes, it only forgets.
        assert ac.admit("a") is None

    def test_queue_depth_bound_answers_429_with_retry_after(self):
        with LocalServer(
            cache_dir=None,
            workers=1,
            entry=_selftest_entry,
            use_processes=False,
            max_queue_depth=1,
        ) as url:
            client = ServeClient(url)
            blocker = client.submit(spec=spec("__sleep:1.5__"))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.job(blocker.job_id).state == "running":
                    break
                time.sleep(0.02)
            assert client.submit(spec=spec("__sleep:0.01__", tag=1))
            with pytest.raises(ServeError) as excinfo:
                client.submit(spec=spec("__sleep:0.01__", tag=2))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 0.5
            stats = client.stats()["queue"]
            assert stats["queue_full_rejections"] == 1
            assert stats["max_queue_depth"] == 1
            # Let the blocker finish so shutdown doesn't abandon its task.
            client.wait_done(blocker.job_id, timeout=30)

    def test_client_rate_limit_answers_429_with_retry_after_header(self):
        with LocalServer(
            cache_dir=None,
            workers=1,
            entry=_selftest_entry,
            use_processes=False,
            admission=dict(rate=0.5, burst=1.0),
        ) as url:
            host, port = url.replace("http://", "").split(":")

            def post_jobs():
                conn = http.client.HTTPConnection(host, int(port), timeout=10)
                try:
                    conn.request(
                        "POST",
                        "/jobs",
                        body=json.dumps({"spec": spec().canonical_dict()}),
                        headers={
                            "Content-Type": "application/json",
                            "X-Client-Id": "greedy",
                        },
                    )
                    resp = conn.getresponse()
                    return resp.status, resp.getheader("Retry-After"), resp.read()
                finally:
                    conn.close()

            status, _, _ = post_jobs()
            assert status in (200, 202)
            status, retry_after, raw = post_jobs()
            assert status == 429
            assert retry_after is not None and int(retry_after) >= 1
            assert json.loads(raw)["retry_after"] > 0
            stats = ServeClient(url).stats()["http"]["admission"]
            assert stats["rejected"] == 1


class TestJitter:
    def test_client_backoff_jitter_is_seed_deterministic(self):
        c1 = ServeClient("127.0.0.1:9", jitter_seed="fleet-test")
        c2 = ServeClient("127.0.0.1:9", jitter_seed="fleet-test")
        c3 = ServeClient("127.0.0.1:9", jitter_seed="other")
        seq1 = [c1._backoff_delay(i) for i in range(1, 6)]
        seq2 = [c2._backoff_delay(i) for i in range(1, 6)]
        seq3 = [c3._backoff_delay(i) for i in range(1, 6)]
        assert seq1 == seq2
        assert seq1 != seq3
        for attempt, delay in enumerate(seq1, start=1):
            assert 0 < delay <= 2.0

    def test_queue_backoff_jitter_is_seeded_and_decorrelated(self):
        q1 = JobQueue(workers=1, backoff_seed=7)
        q2 = JobQueue(workers=1, backoff_seed=7)
        q3 = JobQueue(workers=1, backoff_seed=8)
        d1 = [q1._backoff_delay(a, key="k") for a in range(1, 5)]
        assert d1 == [q2._backoff_delay(a, key="k") for a in range(1, 5)]
        assert d1 != [q3._backoff_delay(a, key="k") for a in range(1, 5)]
        # Different jobs' retries land at different instants (decorrelated).
        assert d1 != [q1._backoff_delay(a, key="other") for a in range(1, 5)]
        for attempt, delay in enumerate(d1, start=1):
            assert 0 < delay <= q1.retry_backoff_cap
