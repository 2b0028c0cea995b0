"""Job queue: priority, coalescing, cancellation, crash recovery, caching.

Tests drive the queue with the deterministic
:func:`repro.serve.queue._selftest_entry` double (or a fake entry of the
same signature), solved like every job in each local worker's solver
child, so the crash-recovery and single-path tests kill real processes.
"""

import asyncio
import errno
import multiprocessing
import os
import time

import pytest

from repro.obs import trace as obs_trace
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.fleet import FleetCoordinator
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
    queue = JobQueue(**kwargs)
    await queue.start()
    try:
        return await body(queue)
    finally:
        await queue.stop()


class TestScheduling:
    def test_submit_executes_and_records(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            assert job.record["detected_by"] == {"eddiv": True}
            assert job.record["cache_key"] == job.cache_key
            assert queue.stats_dict()["executed"] == 1
            # The selftest entry ships one per-bound heartbeat.
            (beat,) = queue.telemetry_dict(job.job_id)["heartbeats"]
            assert (beat["site"], beat["verdict"]) == ("bound", "unsat")

        run(with_queue(body))

    def test_priority_order_single_worker(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.4__"))
            # Wait until the blocker actually occupies the only slot, so
            # the later submissions really contend on the heap.
            while blocker.state is JobState.QUEUED:
                await queue.wait(blocker, since=blocker.version, timeout=1.0)
            low = queue.submit(spec("__echo__", tag="low"), priority=0)
            high = queue.submit(spec("__echo__", tag="high"), priority=5)
            await wait_terminal(queue, low)
            await wait_terminal(queue, high)
            assert high.started_at < low.started_at

        run(with_queue(body))

    def test_cancel_queued_job(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.4__"))
            victim = queue.submit(spec("__echo__", tag="victim"))
            assert queue.cancel(victim.job_id) is True
            assert victim.state is JobState.CANCELLED
            await wait_terminal(queue, blocker)
            # Scheduler must skip the cancelled entry, not run it.
            await asyncio.sleep(0.05)
            assert victim.state is JobState.CANCELLED
            stats = queue.stats_dict()
            assert stats["executed"] == 1 and stats["cancelled"] == 1

        run(with_queue(body))

    def test_cancel_spares_coalesced_waiters(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.4__"))
            shared = queue.submit(spec("__echo__", tag="shared"))
            twin = queue.submit(spec("__echo__", tag="shared"))
            assert twin is shared and shared.coalesced == 1
            # One waiter must not tear down the other's solve.
            assert queue.cancel(shared.job_id) is False
            assert shared.state is JobState.QUEUED
            assert shared.cancel_requested
            await wait_terminal(queue, blocker)
            await wait_terminal(queue, shared)
            assert shared.state is JobState.DONE

        run(with_queue(body))

    def test_cancel_running_is_best_effort(self):
        async def body(queue):
            job = queue.submit(spec("__sleep:0.3__"))
            while job.state is JobState.QUEUED:
                await queue.wait(job, since=job.version, timeout=1.0)
            assert queue.cancel(job.job_id) is False
            assert job.cancel_requested
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE  # the solve still lands

        run(with_queue(body))

    def test_unknown_job_raises(self):
        async def body(queue):
            with pytest.raises(KeyError):
                queue.cancel("job-404")

        run(with_queue(body))


class TestCoalescing:
    def test_identical_inflight_specs_share_one_solve(self):
        async def body(queue):
            first = queue.submit(spec("__sleep:0.3__"))
            second = queue.submit(spec("__sleep:0.3__"))
            third = queue.submit(spec("__sleep:0.3__"))
            assert second is first and third is first
            assert first.coalesced == 2
            await wait_terminal(queue, first)
            assert queue.stats_dict()["executed"] == 1
            assert queue.stats_dict()["coalesced"] == 2
            assert queue.stats_dict()["jobs_submitted"] == 3

        run(with_queue(body))

    def test_different_specs_do_not_coalesce(self):
        async def body(queue):
            a = queue.submit(spec("__echo__", tag="a"))
            b = queue.submit(spec("__echo__", tag="b"))
            assert a is not b
            await wait_terminal(queue, a)
            await wait_terminal(queue, b)
            assert queue.stats_dict()["executed"] == 2

        run(with_queue(body, workers=2))


class TestCacheIntegration:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        async def body(queue):
            cold = queue.submit(spec())
            await wait_terminal(queue, cold)
            warm = queue.submit(spec())
            assert warm.state is JobState.DONE and warm.cache_hit
            assert warm.record["served_from_cache"] is True
            assert warm.record["cache_key"] == cold.cache_key
            stats = queue.stats_dict()
            assert stats["executed"] == 1 and stats["cache_hits"] == 1

        run(with_queue(body, cache=cache))

    def test_force_resolve_refreshes_nondefinitive_entries(self, tmp_path):
        """force=True bypasses the cache read; the fresh (definitive)
        result upgrades a non-definitive entry under the monotone rule."""
        cache = ResultCache(str(tmp_path))
        key = spec().cache_key()
        cache.put(
            key,
            {"bug_id": "__echo__", "qed_definitive": False},
            fingerprint="f" * 64,
            definitive=False,
        )

        async def body(queue):
            stale = queue.submit(spec())
            assert stale.cache_hit  # the non-definitive entry still serves
            fresh = queue.submit(spec(), force=True)
            assert not fresh.cache_hit
            await wait_terminal(queue, fresh)
            assert queue.stats_dict()["executed"] == 1
            entry = cache.get(key)
            assert entry.definitive and entry.record["detected_by"]

        run(with_queue(body, cache=cache))
        assert cache.upgrades == 1

    def test_terminal_jobs_are_evicted_beyond_the_cap(self):
        async def body(queue):
            jobs = [
                queue.submit(spec("__echo__", index=i)) for i in range(5)
            ]
            for job in jobs:
                await wait_terminal(queue, job)
            # Cap is 3: the two oldest terminal views are gone, the rest
            # (and the stats counters) survive.
            assert len(queue.jobs) == 3
            assert jobs[0].job_id not in queue.jobs
            assert jobs[-1].job_id in queue.jobs
            assert queue.stats_dict()["executed"] == 5

        run(with_queue(body, max_tracked_jobs=3))

    def test_cache_survives_queue_restart(self, tmp_path):
        directory = str(tmp_path)

        async def first(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)

        async def second(queue):
            job = queue.submit(spec())
            assert job.cache_hit and job.state is JobState.DONE
            assert queue.stats_dict()["executed"] == 0

        run(with_queue(first, cache=ResultCache(directory)))
        run(with_queue(second, cache=ResultCache(directory)))


class TestWorkerCrash:
    """A dying solver process FAILs only its job; the worker forks anew."""

    def test_crash_fails_job_then_worker_recovers(self):
        async def body(queue):
            doomed = queue.submit(spec("__crash__"))
            await wait_terminal(queue, doomed, timeout=60.0)
            assert doomed.state is JobState.FAILED
            assert "worker_crash" in doomed.error
            # The worker forked a fresh solver child: the next job runs.
            healthy = queue.submit(spec("__echo__", tag="after"))
            await wait_terminal(queue, healthy, timeout=60.0)
            assert healthy.state is JobState.DONE
            stats = queue.stats_dict()
            assert stats["failed"] == 1 and stats["executed"] == 1

        run(with_queue(body))

    def test_entry_exception_fails_job_without_a_retry(self):
        async def body(queue):
            bad = queue.submit(spec("__boom__"))
            await wait_terminal(queue, bad)
            assert bad.state is JobState.FAILED
            assert "RuntimeError" in bad.error
            # An ordinary exception (vs. a crash) is not retried, and the
            # worker that ran it stays live.
            assert queue.stats_dict()["retried"] == 0
            assert queue.fleet.worker_counts()["live"] == queue.workers

        run(with_queue(body, entry=_raising_entry))

    def test_cache_write_error_fails_job_and_worker_carries_on(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        put = cache.put
        writes = []

        def put_once_full(*args, **kwargs):
            writes.append(args[0])
            if len(writes) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return put(*args, **kwargs)

        cache.put = put_once_full

        async def body(queue):
            doomed = queue.submit(spec("__echo__", tag="full-disk"))
            await wait_terminal(queue, doomed)
            assert doomed.state is JobState.FAILED
            assert "OSError" in doomed.error
            assert doomed.cache_key not in queue.quarantined
            # The key is free again and the only worker is still there: a
            # resubmission is a fresh job, and it runs.
            again = queue.submit(spec("__echo__", tag="full-disk"))
            assert again is not doomed
            await wait_terminal(queue, again)
            assert again.state is JobState.DONE
            assert queue.fleet.worker_counts()["live"] == 1

        run(with_queue(body, cache=cache, workers=1))

    def test_system_exit_in_entry_is_a_crash(self):
        # SystemExit is no entry error: it ends the solver child with no
        # outcome, which is retried as a crash until the budget is spent.
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            assert job.state is JobState.FAILED
            assert "worker_crash" in job.error
            assert job.attempts == queue.max_retries + 1

        run(with_queue(body, entry=_exiting_entry, retry_backoff_base=0.01))


def _raising_entry(spec_dict, job_id="", progress=None, *, deadline_seconds=None):
    raise RuntimeError("entry exploded")


def _exiting_entry(spec_dict, job_id="", progress=None, *, deadline_seconds=None):
    raise SystemExit(3)  # ends the solver child without an outcome


def _sleep_then_crash(spec_dict, job_id="", progress=None, *, deadline_seconds=None):
    time.sleep(0.5)
    os._exit(1)


def _crash_once_after_a_second(
    spec_dict, job_id="", progress=None, *, deadline_seconds=None
):
    # The token file makes only the first attempt crash, a second in.
    token = spec_dict["config"]["token"]
    if not os.path.exists(token):
        open(token, "w").close()
        time.sleep(1.0)
        os._exit(1)
    return {"record": {"bug_id": spec_dict["bug_id"]}, "definitive": True}


def _forking_entry(spec_dict, job_id="", progress=None, *, deadline_seconds=None):
    # A solve may fork a pool of its own, as a spec with ``split`` does.
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(0,))
    child.start()
    child.join(10.0)
    return {
        "record": {"bug_id": spec_dict["bug_id"], "exitcode": child.exitcode},
        "definitive": True,
    }


#: Per-bound heartbeats the chatty entry records, the last right before it
#: returns.
CHATTY_BOUNDS = 8


def _chatty_entry(spec_dict, job_id="", progress=None, *, deadline_seconds=None):
    collector = obs_trace.start_trace()
    with obs_trace.capture(progress):
        for bound in range(1, CHATTY_BOUNDS + 1):
            with obs_trace.span("test.bound", bound=bound):
                pass
            collector.heartbeat("bound", bound=bound, verdict="unsat")
    obs_trace.clear()
    return {
        "record": {"bug_id": spec_dict["bug_id"], "qed_definitive": True},
        "definitive": True,
    }


class TestSinglePath:
    """Local solves are leases: what that guarantees, with real children."""

    def test_crash_costs_only_its_own_job(self):
        async def body(queue):
            healthy = queue.submit(spec("__sleep:0.8__"))
            poison = queue.submit(spec("__crash__"))
            await wait_terminal(queue, poison, timeout=60.0)
            await wait_terminal(queue, healthy, timeout=60.0)
            assert poison.state is JobState.FAILED
            assert poison.cache_key in queue.quarantined
            # The sibling on the other worker never noticed.
            assert healthy.state is JobState.DONE
            assert healthy.attempts == 0
            assert healthy.cache_key not in queue.quarantined

        run(with_queue(body, workers=2, retry_backoff_base=0.01))

    def test_crash_during_drain_lands_in_the_snapshot(self):
        async def body(queue):
            job = queue.submit(spec("__echo__", tag="drain-crash"))
            while job.state is JobState.QUEUED:
                await queue.wait(job, since=job.version, timeout=1.0)
            state = await queue.drain()
            [item] = state["queued"]
            assert item["spec"]["config"]["tag"] == "drain-crash"
            assert job.attempts == 0
            assert job.cache_key not in queue.quarantined

        run(with_queue(body, entry=_sleep_then_crash))

    def test_queue_latency_is_the_queue_wait_spans(self, tmp_path):
        # The crashed first attempt (about 1 s) is not queue wait: the
        # latency counter sums the monotonic waits the queue.wait spans
        # record, one per pop, not the wall time since submission.
        async def body(queue):
            job = queue.submit(spec("__echo__", token=str(tmp_path / "token")))
            await wait_terminal(queue, job, timeout=60.0)
            assert job.state is JobState.DONE, job.error
            assert job.attempts == 1
            trace = queue.traces.to_json_dict(job.job_id)
            waits = [
                s["end"] - s["start"]
                for s in trace["spans"]
                if s["name"] == "queue.wait"
            ]
            assert len(waits) == 2
            stats = queue.stats_dict()
            assert stats["queue_latency_jobs"] == 2
            assert stats["queue_latency_seconds_total"] == sum(waits)
            assert stats["queue_latency_seconds_total"] < 0.5

        run(
            with_queue(
                body,
                entry=_crash_once_after_a_second,
                retry_backoff_base=0.01,
            )
        )

    def test_solver_child_may_fork_its_own_pool(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE, job.error
            assert job.record["exitcode"] == 0

        run(with_queue(body, entry=_forking_entry))

    def test_idle_workers_stay_live_then_run(self):
        async def main():
            queue = JobQueue(entry=_selftest_entry, workers=2)
            FleetCoordinator(queue, heartbeat_seconds=0.1)
            await queue.start()
            try:
                for _ in range(20):  # 1 s idle, ten heartbeat intervals
                    await asyncio.sleep(0.05)
                    counts = queue.fleet.worker_counts()
                    assert counts == {"live": 2, "suspect": 0, "dead": 0}
                job = queue.submit(spec())
                await wait_terminal(queue, job)
                assert job.state is JobState.DONE
            finally:
                await queue.stop()

        run(main())

    def test_events_land_before_the_commit(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            # Events shipped after the commit have no live lease to ride,
            # so all of them must have landed before the commit did.
            beats = queue.telemetry_dict(job.job_id)["heartbeats"]
            assert [e["bound"] for e in beats] == list(
                range(1, CHATTY_BOUNDS + 1)
            )
            trace = queue.traces.to_json_dict(job.job_id)
            attempt = next(
                s for s in trace["spans"] if s["name"] == "queue.attempt"
            )
            bounds = [s for s in trace["spans"] if s["name"] == "test.bound"]
            assert len(bounds) == CHATTY_BOUNDS
            assert all(s["parent_id"] == attempt["span_id"] for s in bounds)
            granted = [
                e for e in trace["events"] if e["name"] == "fleet.lease_granted"
            ]
            assert [e["attrs"]["worker"] for e in granted] == ["local-0"]

        run(with_queue(body, entry=_chatty_entry))

    def test_stop_reaps_every_solver_child(self, tmp_path):
        before = set(multiprocessing.active_children())
        server = LocalServer(
            cache_dir=str(tmp_path), workers=2, entry=_selftest_entry
        )
        url = server.start()
        try:
            client = ServeClient(url)
            views = [
                client.submit(spec=spec("__sleep:0.3__", tag=i))
                for i in range(2)
            ]
            for view in views:
                assert client.wait_done(view.job_id, timeout=60).state == "done"
            children = set(multiprocessing.active_children()) - before
            assert len(children) == 2  # one persistent solver per worker
            table = client.stats()["queue"]["fleet"]["workers_table"]
            assert [w["worker_id"] for w in table] == ["local-0", "local-1"]
        finally:
            server.stop()
        assert set(multiprocessing.active_children()) - before == set()
        assert all(child.exitcode is not None for child in children)
