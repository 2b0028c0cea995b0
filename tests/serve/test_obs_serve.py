"""Serving-layer observability: trace store, /metrics, /trace endpoint."""

import asyncio
import json
import urllib.request

from repro.obs.metrics import parse_prometheus
from repro.serve.cache import ResultCache
from repro.serve.queue import JobQueue, JobState, _selftest_entry
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
    kwargs.setdefault("use_processes", False)
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
            use_processes=False,
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
