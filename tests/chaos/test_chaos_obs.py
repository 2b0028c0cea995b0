"""Chaos x observability: traces and flight records of faulted jobs.

The acceptance contract for the flight recorder is exercised here under
the seeded fault injector: a SIGKILL-retried job's trace shows every
lease attempt, a quarantined job leaves a flight artifact carrying all
of them, and the fault injector's firings surface as span events in
workers that survive to ship them.
"""

import asyncio
import json

from repro import faults
from repro.serve.queue import JobQueue, JobState, _selftest_entry

from chaos_helpers import make_spec as spec


async def wait_terminal(queue, job, timeout=60.0):
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
    kwargs.setdefault("use_processes", True)
    kwargs.setdefault("retry_backoff_base", 0.01)
    queue = JobQueue(**kwargs)
    await queue.start()
    try:
        return await body(queue)
    finally:
        await queue.stop()


def _attempt_spans(trace):
    return [s for s in trace["spans"] if s["name"] == "queue.attempt"]


class TestKillRetryTrace:
    def test_retried_job_trace_shows_both_attempts(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="serve.queue.worker",
                        action="kill",
                        at=1,
                        once=True,
                    )
                ],
                seed=11,
                token_dir=tmp_path,
            )
        )

        async def body(queue):
            job = queue.submit(spec("__echo__", tag="kill-once-trace"))
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            assert job.attempts == 1
            trace = queue.traces.to_json_dict(job.job_id)
            attempts = _attempt_spans(trace)
            assert [a["attrs"]["attempt"] for a in attempts] == [1, 2]
            # The killed lease closed on the crash, the retry on done.
            assert attempts[0]["attrs"]["outcome"] == "worker_crash"
            assert attempts[1]["attrs"]["outcome"] == "done"
            # The retry decision itself is on the record as a span event.
            events = [e for e in trace["events"] if e["name"] == "queue.retry"]
            assert len(events) == 1 and events[0]["attrs"]["attempt"] == 1
            assert queue.metrics.counter_value("qed_job_retries_total") == 1
            assert (
                queue.metrics.counter_value("qed_fleet_crash_reports_total") == 1
            )

        run(with_queue(body))


class TestQuarantineFlightRecord:
    def test_quarantined_job_dumps_artifact_with_all_attempts(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    # No once-token: every lease dies at its first hit.
                    faults.FaultSpec(
                        site="serve.queue.worker", action="kill", at=1, count=0
                    )
                ],
                seed=3,
            )
        )

        async def body(queue):
            doomed = queue.submit(spec("__echo__", tag="poison-flight"))
            await wait_terminal(queue, doomed, timeout=120.0)
            assert doomed.state is JobState.FAILED
            assert doomed.cache_key in queue.quarantined

            path = tmp_path / f"flight-{doomed.job_id}.json"
            assert path.exists()
            payload = json.loads(path.read_text())
            assert payload["reason"] == "quarantined"
            assert payload["attempts"] == queue.max_retries + 1
            attempts = _attempt_spans(payload["trace"])
            assert len(attempts) == queue.max_retries + 1
            assert all(a["attrs"]["outcome"] == "worker_crash" for a in attempts)
            event_names = [e["name"] for e in payload["trace"]["events"]]
            assert event_names.count("queue.retry") == queue.max_retries
            assert "queue.quarantined" in event_names

            # The fast-fail rejection of a later submission dumps its own
            # artifact pointing at the quarantine.
            rejected = queue.submit(spec("__echo__", tag="poison-flight"))
            assert rejected.state is JobState.FAILED
            rejection = json.loads(
                (tmp_path / f"flight-{rejected.job_id}.json").read_text()
            )
            assert rejection["reason"] == "quarantine_rejected"
            assert rejection["quarantine"]["reason"] == "worker_crash"

        run(with_queue(body, flight_dir=str(tmp_path)))


class TestFaultFiringEvents:
    def test_surviving_worker_ships_fault_event(self, tmp_path):
        # A delay fault fires and the worker lives on to ship its spans --
        # the firing must be visible as a span event in the job's trace.
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="dist.scheduler.cube",
                        action="delay",
                        at=1,
                        delay_seconds=0.01,
                        count=1,
                    )
                ],
                seed=7,
            )
        )
        from repro.dist.cubes import binary_cubes
        from repro.dist.scheduler import SplitConfig, SplitQuery, WorkScheduler
        from repro.obs import trace as obs_trace

        collector = obs_trace.start_trace()
        try:
            query = SplitQuery(
                clauses=[[1, 2], [3, 4], [-1, -3], [-1, -4], [-2, -3], [-2, -4]],
                num_vars=4,
                cubes=binary_cubes([1, 2], 2),
            )
            WorkScheduler(SplitConfig(workers=2)).solve(query)
        finally:
            obs_trace.clear()
        fired = [e for e in collector.events if e["name"] == "fault.fired"]
        assert fired, "fault firing did not surface as a span event"
        assert fired[0]["attrs"]["site"] == "dist.scheduler.cube"
        assert fired[0]["attrs"]["action"] == "delay"
