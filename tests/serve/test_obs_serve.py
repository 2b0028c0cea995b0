"""Serving-layer observability: trace store, /metrics, /trace endpoint."""

import asyncio
import json
import urllib.request

import pytest

from repro.eval.campaign import CampaignConfig
from repro.obs.metrics import parse_prometheus
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.keys import JobSpec
from repro.serve.queue import (
    JobQueue,
    JobState,
    _selftest_entry,
    execute_job_spec,
)
from repro.serve.server import LocalServer

from serve_helpers import make_spec as spec


async def wait_terminal(queue, job, timeout=20.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not job.state.terminal and loop.time() < deadline:
        await queue.wait(job, since=job.version, timeout=deadline - loop.time())
    assert job.state.terminal, f"job stuck in {job.state} ({job.error})"
    return job


def run(coro):
    return asyncio.run(coro)


async def with_queue(body, **kwargs):
    kwargs.setdefault("entry", _selftest_entry)
    queue = JobQueue(**kwargs)
    await queue.start()
    try:
        return await body(queue)
    finally:
        await queue.stop()


class TestQueueTraces:
    def test_job_gets_trace_with_queue_side_spans(self):
        async def body(queue):
            job = queue.submit(spec())
            assert job.trace_id is not None
            await wait_terminal(queue, job)
            view = queue.traces.to_json_dict(job.job_id)
            assert view["trace_id"] == job.trace_id
            names = {s["name"] for s in view["spans"]}
            assert {"queue.wait", "queue.attempt"} <= names
            attempt = next(
                s for s in view["spans"] if s["name"] == "queue.attempt"
            )
            assert attempt["attrs"]["outcome"] == "done"
            assert attempt["end"] is not None

        run(with_queue(body))

    def test_running_job_trace_survives_a_submission_flood(self):
        async def body(queue):
            job = queue.submit(spec("__sleep:1.5__"))
            while job.state is JobState.QUEUED:
                await queue.wait(job, since=job.version, timeout=1.0)
            assert job.state is JobState.RUNNING
            for index in range(300):
                queue.submit(spec("__echo__", tag=f"flood-{index}"))
            # 301 live traces against a cap of 256 finished ones: the
            # running job's trace stays.
            assert queue.traces.known(job.job_id)
            await wait_terminal(queue, job)
            view = queue.traces.to_json_dict(job.job_id)
            attempt = next(
                s for s in view["spans"] if s["name"] == "queue.attempt"
            )
            assert attempt["attrs"]["outcome"] == "done"
            assert attempt["end"] is not None

        run(with_queue(body))

    def test_cache_hit_records_read_span(self):
        async def body(queue):
            first = queue.submit(spec())
            await wait_terminal(queue, first)
            hit = queue.submit(spec())
            assert hit.cache_hit
            view = queue.traces.to_json_dict(hit.job_id)
            (read,) = [s for s in view["spans"] if s["name"] == "cache.read"]
            assert read["attrs"]["hit"] is True

        run(with_queue(body, cache=ResultCache(None)))

    def test_queued_expiry_dumps_flight_record(self, tmp_path):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.3__"))
            doomed = queue.submit(
                spec("__echo__", tag="expiring"), deadline_seconds=0.05
            )
            await wait_terminal(queue, blocker)
            await wait_terminal(queue, doomed)
            assert doomed.record["deadline_expired"] is True
            path = tmp_path / f"flight-{doomed.job_id}.json"
            assert path.exists()
            payload = json.loads(path.read_text())
            assert payload["reason"] == "deadline_expired"
            events = {e["name"] for e in payload["trace"]["events"]}
            assert "deadline.expired" in events
            assert queue.flight.dumps == 1

        run(with_queue(body, flight_dir=str(tmp_path)))

    def test_worker_span_ids_differ_across_jobs_of_one_solver_child(self):
        # One worker, one persistent solver child: both jobs' spans carry
        # the same pid, so only the process-wide span sequence keeps their
        # ids apart when the two traces are merged (as a campaign does).
        config = CampaignConfig(
            run_industrial_flow=False, run_directed_tests=False
        )

        async def body(queue):
            jobs = [
                queue.submit(JobSpec.from_campaign(bug_id, config))
                for bug_id in ("sra_zero_fill", "cmpi_carry_spec")
            ]
            ids = []
            for job in jobs:
                await wait_terminal(queue, job, timeout=120.0)
                assert job.state is JobState.DONE, job.error
                spans = queue.traces.to_json_dict(job.job_id)["spans"]
                ids.append(
                    {
                        s["span_id"]
                        for s in spans
                        if not s["span_id"].startswith("q.")
                    }
                )
            return ids

        first, second = run(
            with_queue(body, entry=execute_job_spec, workers=1)
        )
        assert first and second
        assert len({i.split(".")[0] for i in first | second}) == 1
        assert first.isdisjoint(second)

    def test_tracing_disabled_leaves_no_trace(self):
        from repro.obs import trace as obs_trace

        async def body(queue):
            previous = obs_trace.set_enabled(False)
            try:
                job = queue.submit(spec())
                await wait_terminal(queue, job)
                assert job.state is JobState.DONE
                assert job.trace_id is None
                assert queue.traces.to_json_dict(job.job_id) is None
            finally:
                obs_trace.set_enabled(previous)

        run(with_queue(body))


class TestQueueMetrics:
    def test_counters_and_render(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            queue.submit(spec())  # warm hit
            text = queue.render_metrics()
            parsed = parse_prometheus(text)
            assert parsed["qed_jobs_submitted_total"] == 2
            assert parsed["qed_cache_hits_total"] == 1
            assert parsed["qed_cache_misses_total"] == 1
            assert parsed["qed_jobs_executed_total"] == 1
            assert parsed["qed_queue_wait_seconds_count"] == 1
            assert parsed["qed_queue_depth"] == 0
            assert parsed["qed_result_cache_puts"] == 1

        run(with_queue(body, cache=ResultCache(None)))


class TestHttpEndpoints:
    def test_metrics_and_trace_over_http(self, tmp_path):
        with LocalServer(
            cache=ResultCache(None),
            entry=_selftest_entry,
            flight_dir=str(tmp_path),
        ) as url:
            body = json.dumps({"spec": spec().canonical_dict()}).encode()
            req = urllib.request.Request(
                url + "/jobs",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req) as resp:
                job = json.load(resp)["job"]
            assert job["trace_id"]
            for _ in range(100):
                with urllib.request.urlopen(
                    f"{url}/jobs/{job['job_id']}?wait=1"
                ) as resp:
                    view = json.load(resp)["job"]
                if view["state"] in ("done", "failed", "cancelled"):
                    break
            assert view["state"] == "done"

            with urllib.request.urlopen(f"{url}/jobs/{job['job_id']}/trace") as resp:
                trace = json.load(resp)["trace"]
            names = {s["name"] for s in trace["spans"]}
            assert {"serve.lint", "queue.wait", "queue.attempt"} <= names
            assert trace["state"] == "done"

            with urllib.request.urlopen(url + "/metrics") as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                parsed = parse_prometheus(resp.read().decode())
            assert parsed["qed_jobs_submitted_total"] == 1
            assert parsed["qed_jobs_executed_total"] == 1

            # Unknown job -> 404, JSON error body.
            try:
                urllib.request.urlopen(url + "/jobs/job-999999/trace")
                assert False, "expected 404"
            except urllib.error.HTTPError as exc:
                assert exc.code == 404


#: Every counter ``GET /stats`` reports, by (section, key), and the
#: ``GET /metrics`` series it must equal (several series are summed).
STATS_SERIES = {
    ("queue", "jobs_submitted"): ("qed_jobs_submitted_total",),
    ("queue", "cache_hits"): ("qed_cache_hits_total",),
    ("queue", "coalesced"): ("qed_jobs_coalesced_total",),
    ("queue", "executed"): ("qed_jobs_executed_total",),
    ("queue", "failed"): ("qed_jobs_failed_total",),
    ("queue", "cancelled"): ("qed_jobs_cancelled_total",),
    ("queue", "retried"): ("qed_job_retries_total",),
    ("queue", "deadline_expired"): (
        'qed_deadline_expiries_total{scope="queue"}',
        'qed_deadline_expiries_total{scope="worker"}',
    ),
    ("queue", "quarantined"): ("qed_quarantined_keys",),
    ("queue", "quarantines"): ("qed_quarantines_total",),
    ("queue", "quarantine_rejections"): ("qed_quarantine_rejections_total",),
    ("queue", "queue_full_rejections"): (
        'qed_admission_rejections_total{reason="queue_full"}',
    ),
    ("queue", "running"): ("qed_jobs_running",),
    ("queue", "queued"): ("qed_queue_depth",),
    ("queue", "queue_latency_seconds_total"): ("qed_queue_wait_seconds_sum",),
    ("queue", "queue_latency_jobs"): ("qed_queue_wait_seconds_count",),
    ("queue", "flight_dumps"): ("qed_flight_dumps",),
    ("queue", "flight_evictions"): ("qed_flight_evictions",),
    ("fleet", "workers_registered"): ("qed_fleet_workers_registered_total",),
    ("fleet", "workers_died"): ("qed_fleet_worker_deaths_total",),
    ("fleet", "workers_revived"): ("qed_fleet_workers_revived_total",),
    ("fleet", "leases_outstanding"): ("qed_fleet_leases_outstanding",),
    ("fleet", "leases_granted"): ("qed_fleet_leases_granted_total",),
    ("fleet", "leases_expired"): ("qed_fleet_leases_expired_total",),
    ("fleet", "lease_reassignments"): ("qed_fleet_lease_reassignments_total",),
    ("fleet", "heartbeats_received"): ("qed_fleet_heartbeats_total",),
    ("fleet", "commits_received"): ("qed_fleet_commits_total",),
    ("fleet", "commits_accepted"): ("qed_fleet_commits_accepted_total",),
    ("fleet", "fenced_commits_rejected"): ("qed_fleet_fenced_commits_total",),
    ("fleet", "duplicate_commits"): ("qed_fleet_duplicate_commits_total",),
    ("fleet", "crash_reports"): ("qed_fleet_crash_reports_total",),
    ("http", "requests_served"): ("qed_http_requests_total",),
    ("http", "requests_rejected"): ("qed_http_requests_rejected_total",),
}

#: Numeric ``GET /stats`` entries that are configuration or bookkeeping,
#: not event counts.
NOT_COUNTED = {
    ("queue", "workers"),
    ("queue", "jobs_tracked"),
    ("queue", "traced_jobs"),
    ("queue", "flight_write_errors"),
    ("fleet", "lease_seconds"),
    ("fleet", "heartbeat_seconds"),
}


class TestOneRegistry:
    def test_every_stats_counter_equals_its_metrics_series(self, tmp_path):
        with LocalServer(
            cache_dir=str(tmp_path),
            entry=_selftest_entry,
            retry_backoff_base=0.01,
        ) as url:
            client = ServeClient(url)
            miss = client.submit(spec=spec("__echo__", tag="miss"))
            assert client.wait_done(miss.job_id, timeout=30).state == "done"
            assert client.submit(spec=spec("__echo__", tag="miss")).cache_hit
            blocker = client.submit(spec=spec("__sleep:0.5__"))
            assert client.submit(spec=spec("__sleep:0.5__")).coalesced == 1
            victim = client.submit(spec=spec("__echo__", tag="victim"))
            assert client.cancel(victim.job_id) is True
            client.wait_done(blocker.job_id, timeout=30)
            crash = client.submit(spec=spec("__crash__"))
            assert client.wait_done(crash.job_id, timeout=60).state == "failed"
            assert client.submit(spec=spec("__crash__")).state == "failed"
            with pytest.raises(ServeError):
                client.submit(spec=spec("__echo__", split={"strategy": "x"}))
            stats = client.stats()
            metrics = parse_prometheus(client.metrics_text())

        sections = {
            "queue": stats["queue"],
            "fleet": stats["queue"]["fleet"],
            "http": stats["http"],
        }
        for (name, key), series in STATS_SERIES.items():
            expected = sum(metrics.get(one, 0) for one in series)
            if key == "requests_served":
                expected -= 1  # the GET /stats itself, counted after it
            assert sections[name].get(key) == expected, (name, key, series)
        # ... and no counter escapes the table.
        numeric = {
            (name, key)
            for name, section in sections.items()
            for key, value in section.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        assert numeric == set(STATS_SERIES) | NOT_COUNTED
        queue = stats["queue"]
        # The scenario reached every event kind it set out to count.
        assert queue["cache_hits"] == 1 and queue["coalesced"] == 1
        assert queue["cancelled"] == 1 and queue["retried"] == 2
        assert queue["quarantines"] == 1
        assert queue["quarantine_rejections"] == 1
        assert stats["http"]["requests_rejected"] == 1
