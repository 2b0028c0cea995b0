"""Chaos scenarios against the serving job queue.

Every scenario installs a seeded :class:`repro.faults.FaultInjector`,
drives the queue through the fault, and asserts the fabric reaches a
terminal state whose *definitive* verdicts match a fault-free run --
degrade to UNKNOWN/FAILED is allowed, a wrong answer never is.
"""

import asyncio

from repro import faults
from repro.eval.campaign import CampaignConfig
from repro.serve.cache import ResultCache
from repro.serve.keys import JobSpec
from repro.serve.queue import (
    JobQueue,
    JobState,
    QueueDraining,
    _selftest_entry,
    execute_job_spec,
)

from chaos_helpers import make_spec as spec

import pytest


async def wait_terminal(queue, job, timeout=30.0):
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
    kwargs.setdefault("retry_backoff_base", 0.01)
    queue = JobQueue(**kwargs)
    await queue.start()
    try:
        return await body(queue)
    finally:
        await queue.stop()


#: The fault-free selftest verdict every recovered run must reproduce.
FAULT_FREE = {"detected_by": {"eddiv": True}, "qed_definitive": True}


def assert_fault_free_verdict(record):
    for key, value in FAULT_FREE.items():
        assert record[key] == value


class TestWorkerKillRetry:
    """Scenario: the solver process is killed once; the retry succeeds."""

    def test_kill_once_then_retry_matches_fault_free(self, tmp_path):
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
            job = queue.submit(spec("__echo__", tag="kill-once"))
            await wait_terminal(queue, job, timeout=60.0)
            assert job.state is JobState.DONE
            assert_fault_free_verdict(job.record)
            assert job.attempts == 1  # exactly one crash, one retry
            assert queue.stats_dict()["retried"] == 1
            assert queue.fleet.stats_dict()["crash_reports"] == 1
            assert queue.stats_dict()["failed"] == 0
            assert not queue.quarantined

        run(with_queue(body))


class TestPoisonQuarantine:
    """Scenario: a spec that kills every solver process is quarantined."""

    def test_persistent_killer_quarantined_then_force_clears(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    # No once-token: every lease (a fresh solver fork with
                    # a zeroed counter) dies at its first hit.
                    faults.FaultSpec(
                        site="serve.queue.worker", action="kill", at=1, count=0
                    )
                ],
                seed=3,
            )
        )

        async def body(queue):
            doomed = queue.submit(spec("__echo__", tag="poison"))
            await wait_terminal(queue, doomed, timeout=120.0)
            assert doomed.state is JobState.FAILED
            assert "worker_crash" in doomed.error
            assert doomed.attempts == queue.max_retries + 1
            assert doomed.cache_key in queue.quarantined
            reason = queue.quarantined[doomed.cache_key]
            assert reason["reason"] == "worker_crash"
            assert reason["attempts"] == doomed.attempts

            # Resubmission fails fast: no lease, no solver fork burned.
            granted = queue.fleet.stats_dict()["leases_granted"]
            rejected = queue.submit(spec("__echo__", tag="poison"))
            assert rejected.state is JobState.FAILED
            assert "quarantined" in rejected.error
            assert queue.fleet.stats_dict()["leases_granted"] == granted
            assert queue.stats_dict()["quarantine_rejections"] == 1

            # The operator override: clear the fault, force a re-run.
            faults.clear()
            forced = queue.submit(spec("__echo__", tag="poison"), force=True)
            assert doomed.cache_key not in queue.quarantined
            await wait_terminal(queue, forced, timeout=60.0)
            assert forced.state is JobState.DONE
            assert_fault_free_verdict(forced.record)

        run(with_queue(body))


class TestProgressMessageFaults:
    """Scenarios: the entry's observability batches (its one event stream,
    shipped through the ``serve.queue.progress`` site) dropped or
    duplicated in flight."""

    def test_dropped_progress_does_not_change_verdict(self):
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="serve.queue.progress", action="drop", at=1, count=0
                    )
                ],
                seed=5,
            )
        )

        async def body(queue):
            job = queue.submit(spec("__echo__", tag="dropped"))
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            assert_fault_free_verdict(job.record)
            # Lost, and that must be fine: no heartbeat from the entry.
            assert queue.telemetry_dict(job.job_id)["total"] == 0

        run(with_queue(body))

    def test_duplicated_progress_is_tolerated(self):
        # A real solve (Single-I, so it takes well under a second) whose
        # every shipped batch arrives twice must read exactly like the
        # fault-free run: each bound heartbeat once, each span id once,
        # and the same solver counters on the queue's registry.
        config = CampaignConfig(
            run_industrial_flow=False, run_directed_tests=False
        )
        solve = JobSpec.from_campaign("sra_zero_fill", config)

        async def body(queue):
            job = queue.submit(solve)
            await wait_terminal(queue, job, timeout=120.0)
            assert job.state is JobState.DONE, job.error
            spans = queue.traces.to_json_dict(job.job_id)["spans"]
            span_ids = [s["span_id"] for s in spans]
            assert len(span_ids) == len(set(span_ids))
            counters = queue.metrics.snapshot()["counters"]
            return {
                "bounds": [
                    (beat["bound"], beat["verdict"])
                    for beat in queue.telemetry_dict(job.job_id)["heartbeats"]
                    if beat.get("site") == "bound"
                ],
                "spans": sorted(s["name"] for s in spans),
                "counters": {
                    name: rows
                    for name, rows in counters.items()
                    if name.startswith(("qed_bounds", "qed_solver"))
                },
            }

        fault_free = run(with_queue(body, entry=execute_job_spec))
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="serve.queue.progress",
                        action="duplicate",
                        at=1,
                        count=0,
                    )
                ],
                seed=5,
            )
        )
        duplicated = run(with_queue(body, entry=execute_job_spec))
        assert fault_free["bounds"]
        assert fault_free["counters"]["qed_bounds_total"] == [
            [[], float(len(fault_free["bounds"]))]
        ]
        assert duplicated == fault_free


class TestDeadlines:
    """Scenarios: wall-clock budgets expire while queued / propagate down."""

    def test_queued_deadline_expiry_is_unknown_and_uncached(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.3__"))
            doomed = queue.submit(
                spec("__echo__", tag="expiring"), deadline_seconds=0.05
            )
            await wait_terminal(queue, blocker)
            await wait_terminal(queue, doomed)
            assert doomed.state is JobState.DONE
            assert doomed.record["deadline_expired"] is True
            assert doomed.record["qed_definitive"] is False
            assert queue.stats_dict()["deadline_expired"] == 1
            # The zero-work synthetic record must never enter the cache.
            assert doomed.cache_key not in queue.cache
            assert blocker.cache_key in queue.cache
            # No deadline set, none handed down.
            assert "deadline_seconds" not in blocker.record

        run(with_queue(body, cache=ResultCache(None)))

    def test_remaining_budget_reaches_the_worker(self):
        async def body(queue):
            job = queue.submit(spec("__echo__", tag="budget"), deadline_seconds=30.0)
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            handed = job.record["deadline_seconds"]
            assert 0.0 < handed <= 30.0

        run(with_queue(body))


class TestDrainAndResume:
    """Scenario: graceful shutdown persists queued work; restore resumes."""

    def test_drain_snapshots_queued_and_rejects_new(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.3__"))
            # Let the blocker take the slot so "survivor" is truly queued.
            while blocker.state is JobState.QUEUED:
                await queue.wait(blocker, since=blocker.version, timeout=1.0)
            queued = queue.submit(
                spec("__echo__", tag="survivor"),
                priority=4,
                deadline_seconds=60.0,
            )
            state = await queue.drain()
            # Running solve finished (and before the snapshot was cut).
            assert blocker.state is JobState.DONE
            [item] = state["queued"]
            assert item["spec"]["config"]["tag"] == "survivor"
            assert item["priority"] == 4
            assert 0.0 < item["deadline_seconds"] <= 60.0
            # Local waiters see a terminal state, not a hang.
            assert queued.state is JobState.CANCELLED
            with pytest.raises(QueueDraining):
                queue.submit(spec("__echo__", tag="late"))
            return state

        state = run(with_queue(body))

        async def resume(queue):
            [job] = queue.restore_state(state)
            assert job.priority == 4
            assert job.deadline is not None
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            assert_fault_free_verdict(job.record)

        run(with_queue(resume))
