"""Serving-layer telemetry: the heartbeat view of a job's trace.

The queue-level tests drive ``_on_progress`` with batches of heartbeat
events exactly as a worker's capture ships them; the HTTP tests use a
deterministic entry; the live test solves a real EDDI-V job through the
process-pool server and asserts the acceptance contract -- at least two
heartbeats with monotonically non-decreasing conflict counts, and one
per-bound heartbeat per ``bmc.bound`` span of the trace, agreeing with it.
"""

import asyncio
import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import HEARTBEAT
from repro.serve import LocalServer, ServeClient
from repro.serve.cache import ResultCache
from repro.serve.fleet import FleetCoordinator
from repro.serve.queue import JobQueue, JobState, _selftest_entry, _shipper

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


def heartbeat(seq, conflicts, site="restart", **extra):
    """One heartbeat event as a worker's capture ships it."""
    hb = {"seq": seq, "pid": 1234, "site": site, "conflicts": conflicts}
    hb.update(extra)
    return {"t": 0.0, "name": HEARTBEAT, "span_id": None, "attrs": hb}


def obs(*events, dropped=0):
    return {"spans": [], "events": list(events), "dropped": dropped}


class TestTelemetryRing:
    def test_tagged_payload_fills_ring_without_version_bump(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            version = job.version
            total = queue.telemetry_dict(job.job_id)["total"]
            queue._on_progress(job.job_id, obs(heartbeat(0, 5), heartbeat(1, 9)))
            view = queue.telemetry_dict(job.job_id)
            assert view["total"] == total + 2
            assert [hb["conflicts"] for hb in view["heartbeats"][-2:]] == [5, 9]
            # telemetry is a plain poll: no long-poll wakeup
            assert job.version == version

        run(with_queue(body))

    def test_ring_trims_to_bound_and_reports_dropped(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            ring = queue.traces.max_events
            queued_events = len(queue.traces.to_json_dict(job.job_id)["events"])
            before = queue.telemetry_dict(job.job_id)["total"]  # the entry's
            batch = [heartbeat(i, i) for i in range(ring + 50)]
            queue._on_progress(job.job_id, obs(*batch))
            view = queue.telemetry_dict(job.job_id)
            assert len(view["heartbeats"]) == ring
            assert view["dropped"] == before + 50
            assert view["total"] == before + ring + 50
            assert view["heartbeats"][0]["conflicts"] == 50
            # Heartbeats share the trace's ring (and its drop counter)
            # with the queue's own events.
            trace = queue.traces.to_json_dict(job.job_id)
            assert trace["dropped_events"] == 50 + queued_events

        run(with_queue(body))

    def test_since_filters_incrementally(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            before = queue.telemetry_dict(job.job_id)["total"]  # the entry's
            queue._on_progress(
                job.job_id, obs(*[heartbeat(i, i * 10) for i in range(5)])
            )
            first = queue.telemetry_dict(job.job_id, since=before)
            assert len(first["heartbeats"]) == 5
            later = queue.telemetry_dict(job.job_id, since=first["total"])
            assert later["heartbeats"] == []
            queue._on_progress(job.job_id, obs(heartbeat(5, 99)))
            newest = queue.telemetry_dict(job.job_id, since=first["total"])
            assert [hb["conflicts"] for hb in newest["heartbeats"]] == [99]

        run(with_queue(body))

    def test_unknown_job_returns_none(self):
        async def body(queue):
            assert queue.telemetry_dict("job-999999") is None

        run(with_queue(body))

    def test_malformed_payload_is_ignored(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            total = queue.telemetry_dict(job.job_id)["total"]
            queue._on_progress(job.job_id, {"events": "not-a-list"})
            queue._on_progress(job.job_id, obs("not-a-dict", heartbeat(0, 1)))
            assert queue.telemetry_dict(job.job_id)["total"] == total + 1

        run(with_queue(body))


class TestBatchIds:
    """A shipped batch carries an id; the queue takes each id in once."""

    def test_redelivered_batch_is_absorbed_once(self):
        delta = MetricsRegistry()
        delta.inc("qed_bounds_total")

        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            total = queue.telemetry_dict(job.job_id)["total"]
            before = queue.metrics.counter_value("qed_bounds_total")
            batch = dict(
                obs(heartbeat(0, 5)),
                metrics=delta.snapshot(),
                batch_id="1234.1.1",
            )
            queue._on_progress(job.job_id, batch)
            queue._on_progress(job.job_id, dict(batch))
            assert queue.telemetry_dict(job.job_id)["total"] == total + 1
            assert queue.metrics.counter_value("qed_bounds_total") == (
                before + 1
            )
            # The next batch of the same call is new.
            queue._on_progress(
                job.job_id, dict(obs(heartbeat(1, 9)), batch_id="1234.1.2")
            )
            assert queue.telemetry_dict(job.job_id)["total"] == total + 2

        run(with_queue(body))

    def test_every_entry_call_ships_fresh_ids(self):
        # A retried attempt in the same solver child is a new entry call;
        # an id of the first attempt reused would drop a new batch as a
        # re-delivery.
        shipped = []
        for _ in range(2):
            ship = _shipper(shipped.append)
            ship(obs(heartbeat(0, 1)))
            ship(obs(heartbeat(1, 2)))
        ids = [batch["batch_id"] for batch in shipped]
        assert len(set(ids)) == len(ids) == 4
        assert all(i.startswith(f"{os.getpid()}.") for i in ids)
        assert _shipper(None) is None


#: Released by the test once it saw the running job's heartbeat.
_RELEASE = threading.Event()


def _beating_entry(spec_dict, job_id="", progress=None, **kwargs):
    """Record one heartbeat, then hold the lease until released."""
    collector = obs_trace.start_trace()
    try:
        with obs_trace.capture(progress):
            collector.heartbeat("restart", conflicts=7)
            _RELEASE.wait(10.0)
    finally:
        obs_trace.clear()
    return {"record": {"bug_id": spec_dict["bug_id"]}, "definitive": True}


class TestHeartbeatsWhileRunning:
    def test_heartbeats_reach_the_view_before_the_commit(self):
        async def main():
            _RELEASE.clear()
            queue = JobQueue(entry=_beating_entry, use_processes=False)
            FleetCoordinator(queue, heartbeat_seconds=0.1)
            await queue.start()
            try:
                job = queue.submit(spec())
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while (
                    queue.telemetry_dict(job.job_id)["total"] == 0
                    and loop.time() < deadline
                ):
                    await asyncio.sleep(0.02)
                view = queue.telemetry_dict(job.job_id)
                assert view["state"] == "running"
                assert [hb["conflicts"] for hb in view["heartbeats"]] == [7]
                _RELEASE.set()
                await wait_terminal(queue, job)
                assert job.state is JobState.DONE
            finally:
                _RELEASE.set()
                await queue.stop()

        run(main())


class TestHttpTelemetry:
    def test_endpoint_serves_ring_since_and_404(self, tmp_path):
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
            for _ in range(100):
                with urllib.request.urlopen(
                    f"{url}/jobs/{job['job_id']}?wait=1"
                ) as resp:
                    view = json.load(resp)["job"]
                if view["state"] in ("done", "failed", "cancelled"):
                    break
            assert view["state"] == "done"

            with urllib.request.urlopen(
                f"{url}/jobs/{job['job_id']}/telemetry"
            ) as resp:
                payload = json.load(resp)["telemetry"]
            assert payload["job_id"] == job["job_id"]
            assert payload["state"] == "done"
            assert payload["dropped"] == 0

            # since= beyond the total returns an empty tail
            with urllib.request.urlopen(
                f"{url}/jobs/{job['job_id']}/telemetry?since=999999"
            ) as resp:
                tail = json.load(resp)["telemetry"]
            assert tail["heartbeats"] == []

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url + "/jobs/job-999999/telemetry")
            assert excinfo.value.code == 404

            # bad since= -> 400, non-GET -> 405
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{url}/jobs/{job['job_id']}/telemetry?since=abc"
                )
            assert excinfo.value.code == 400
            req = urllib.request.Request(
                f"{url}/jobs/{job['job_id']}/telemetry",
                data=b"{}",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req)
            assert excinfo.value.code == 405

    def test_jobs_listing_summarises_jobs(self, tmp_path):
        with LocalServer(
            cache=ResultCache(None),
            entry=_selftest_entry,
            use_processes=False,
            flight_dir=str(tmp_path),
        ) as url:
            body = json.dumps({"spec": spec().canonical_dict()}).encode()
            req = urllib.request.Request(
                url + "/jobs", data=body, method="POST"
            )
            with urllib.request.urlopen(req) as resp:
                job = json.load(resp)["job"]
            with urllib.request.urlopen(url + "/jobs") as resp:
                rows = json.load(resp)["jobs"]
            assert len(rows) == 1
            row = rows[0]
            assert row["job_id"] == job["job_id"]
            assert set(row) >= {
                "state",
                "bug_id",
                "version",
                "bound",
                "telemetry_total",
            }


class TestLiveSolveTelemetry:
    def test_real_solve_streams_monotone_heartbeats(self, tmp_path):
        """Acceptance: a live EDDI-V solve produces >=2 heartbeats whose
        conflict counts increase monotonically (per solving process), and
        its per-bound heartbeats are its ``bmc.bound`` spans: same bound,
        same verdict, ``bound_seconds`` == the span's ``end - start``."""
        with LocalServer(cache_dir=str(tmp_path), workers=2) as url:
            client = ServeClient(url)
            job = client.submit(bug_id="wrport_collision")
            done = client.wait_done(job.job_id, timeout=120.0)
            assert done.state == "done"
            payload = client.telemetry(job.job_id)
            heartbeats = payload["heartbeats"]
            assert payload["total"] >= 2
            assert len(heartbeats) >= 2
            by_pid = {}
            for hb in heartbeats:
                if hb["site"] == "bound":
                    continue  # run-cumulative totals, separate stream
                by_pid.setdefault(hb["pid"], []).append(hb["conflicts"])
            assert by_pid, "no solver-site heartbeats recorded"
            for conflicts in by_pid.values():
                assert conflicts == sorted(conflicts)
            solver_sites = {
                hb["site"] for hb in heartbeats if hb["site"] != "bound"
            }
            assert solver_sites <= {"restart", "db_reduce", "deadline_poll"}
            # incremental polling with since= composes with the ring
            tail = client.telemetry(job.job_id, since=payload["total"])
            assert tail["heartbeats"] == []
            # One per-bound heartbeat per bmc.bound span; the job runs
            # several BMC searches (QED, then the industrial flow), so
            # spans and beats pair up in order.
            assert payload["dropped"] == 0
            beats = [hb for hb in heartbeats if hb["site"] == "bound"]
            spans = sorted(
                (
                    s for s in client.trace(job.job_id)["spans"]
                    if s["name"] == "bmc.bound"
                ),
                key=lambda s: s["start"],
            )
            assert spans and len(beats) == len(spans)
            for beat, span in zip(beats, spans):
                assert beat["bound"] == span["attrs"]["bound"]
                assert beat["verdict"] == span["attrs"]["verdict"]
                assert round(beat["bound_seconds"], 6) == round(
                    span["end"] - span["start"], 6
                )
