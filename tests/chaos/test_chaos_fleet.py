"""Chaos scenarios at the fleet's network boundary.

Two failure schedules the multi-host protocol must absorb without ever
changing *what* a definitive verdict says:

* a remote worker SIGKILLed mid-solve -- lease expiry reassigns the job
  and the recovered record is byte-identical to a direct run;
* a paused-then-resumed zombie whose (correct!) commit arrives after
  reassignment -- the fence comparison rejects it, nothing is recorded
  twice.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import faults
from repro.serve import LocalServer, ServeClient
from repro.serve.fleet import FleetWorker
from repro.serve.queue import _selftest_entry

from chaos_helpers import make_spec as spec

CHAOS_BUG = "wrport_collision"  # EDDI-V interaction bug, ~2 s solve


def _worker_process_main(url: str, worker_id: str) -> None:
    """Child-process body: a thread-mode worker running the REAL entry.

    Thread mode inside a dedicated OS process: SIGKILLing the process
    takes the solve down with it -- no goodbye, no deregister, exactly
    the failure the lease clock exists for.
    """
    FleetWorker(
        url, worker_id=worker_id, use_processes=False
    ).run()


def _wait_for_lease(client: ServeClient, worker_id: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        table = client.fleet().get("workers_table", [])
        if any(
            w["worker_id"] == worker_id and w["leases"] > 0 for w in table
        ):
            return True
        time.sleep(0.05)
    return False


class TestWorkerSigkill:
    """Scenario: SIGKILL a remote worker mid-solve; recovery is exact."""

    @pytest.mark.slow
    def test_reassigned_job_yields_byte_identical_record(self, tmp_path):
        from repro.eval.campaign import (
            CampaignConfig,
            detect_bug,
            record_comparable_dict,
            record_from_json_dict,
        )

        config = CampaignConfig(
            bug_ids=[CHAOS_BUG],
            run_industrial_flow=False,
            run_directed_tests=False,
        )
        ctx = multiprocessing.get_context("fork")
        proc = None
        with LocalServer(
            cache_dir=str(tmp_path / "cache"),
            workers=0,
            fleet=True,
            fleet_kwargs=dict(lease_seconds=1.5, heartbeat_seconds=0.25),
        ) as url:
            client = ServeClient(url)
            view = client.submit(bug_id=CHAOS_BUG, config=config)
            proc = ctx.Process(
                target=_worker_process_main, args=(url, "chaos-a")
            )
            proc.start()
            assert _wait_for_lease(client, "chaos-a")
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
            # Worker B recovers the job once the dead worker's lease is
            # swept (max_jobs=1: solve it, commit it, exit).
            FleetWorker(
                url,
                worker_id="chaos-b",
                use_processes=False,
                max_jobs=1,
            ).run()
            final = client.wait_done(view.job_id, timeout=120)
            assert final.state == "done"
            fleet_stats = client.fleet()
            assert fleet_stats["lease_reassignments"] == 1
            assert fleet_stats["workers"]["dead"] == 1
        direct = detect_bug(CHAOS_BUG, config)
        served = record_from_json_dict(final.record)
        assert record_comparable_dict(direct) == record_comparable_dict(served)
        assert served.detected_by.get("eddiv")


class TestZombieFencing:
    """Scenario: a worker pauses inside commit, resumes after reassignment."""

    def test_late_zombie_commit_is_fence_rejected(self, tmp_path):
        import threading

        # The first commit attempt (worker A's) stalls for longer than the
        # lease TTL + death grace: A becomes a zombie holding a finished
        # result.  The second commit (worker B's) is clean.
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="fleet.worker.commit",
                        action="delay",
                        delay_seconds=3.0,
                        at=1,
                        count=1,
                    )
                ],
                seed=11,
            )
        )
        with LocalServer(
            cache_dir=str(tmp_path / "cache"),
            workers=0,
            entry=_selftest_entry,
            use_processes=False,
            fleet=True,
            fleet_kwargs=dict(lease_seconds=0.8, heartbeat_seconds=0.2),
        ) as url:
            client = ServeClient(url)
            view = client.submit(spec=spec("__sleep:0.1__", tag="zombie"))
            worker_a = FleetWorker(
                url,
                worker_id="zombie-a",
                entry=_selftest_entry,
                use_processes=False,
                max_jobs=1,
            )
            thread_a = threading.Thread(target=worker_a.run, daemon=True)
            thread_a.start()
            # The lease must expire while A sleeps inside the commit path.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.fleet()["lease_reassignments"] >= 1:
                    break
                time.sleep(0.05)
            assert client.fleet()["lease_reassignments"] == 1
            worker_b = FleetWorker(
                url,
                worker_id="zombie-b",
                entry=_selftest_entry,
                use_processes=False,
                max_jobs=1,
            )
            worker_b.run()
            final = client.wait_done(view.job_id, timeout=30)
            thread_a.join(timeout=30)
            assert final.state == "done"
            assert final.record["qed_definitive"] is True
            stats = client.stats()["queue"]
            # Executed exactly once: B's commit landed, A's was fenced.
            assert stats["executed"] == 1
            fleet_stats = stats["fleet"]
            assert fleet_stats["fenced_commits_rejected"] == 1
            assert fleet_stats["commits_accepted"] == 1
            assert worker_a.commits_rejected == 1
            assert worker_b.commits_accepted == 1

    def test_duplicated_commit_second_send_is_redundant(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="fleet.worker.commit",
                        action="duplicate",
                        at=1,
                        count=1,
                    )
                ],
                seed=5,
            )
        )
        with LocalServer(
            cache_dir=None,
            workers=0,
            entry=_selftest_entry,
            use_processes=False,
            fleet=True,
            fleet_kwargs=dict(heartbeat_seconds=0.2),
        ) as url:
            client = ServeClient(url)
            view = client.submit(spec=spec(tag="dup-commit"))
            worker = FleetWorker(
                url,
                worker_id="dup-w",
                entry=_selftest_entry,
                use_processes=False,
                max_jobs=1,
            )
            worker.run()
            final = client.wait_done(view.job_id, timeout=30)
            assert final.state == "done"
            stats = client.stats()["queue"]
            assert stats["executed"] == 1
            assert stats["fleet"]["duplicate_commits"] == 1

    def test_dropped_heartbeats_reassign_but_verdict_survives(self, tmp_path):
        # Every heartbeat from worker A is dropped on the floor: the
        # coordinator sees silence, declares A dead mid-solve and
        # reassigns.  A's eventual commit is fenced; B's wins.
        import threading

        faults.install(
            faults.FaultInjector(
                [
                    faults.FaultSpec(
                        site="fleet.worker.heartbeat",
                        action="drop",
                        at=1,
                        count=0,  # every heartbeat
                    )
                ],
                seed=3,
            )
        )
        with LocalServer(
            cache_dir=None,
            workers=0,
            entry=_selftest_entry,
            use_processes=False,
            fleet=True,
            fleet_kwargs=dict(lease_seconds=0.6, heartbeat_seconds=0.15),
        ) as url:
            client = ServeClient(url)
            view = client.submit(spec=spec("__sleep:1.2__", tag="hb-drop"))
            worker_a = FleetWorker(
                url,
                worker_id="mute-a",
                entry=_selftest_entry,
                use_processes=False,
                max_jobs=1,
            )
            thread_a = threading.Thread(target=worker_a.run, daemon=True)
            thread_a.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.fleet()["lease_reassignments"] >= 1:
                    break
                time.sleep(0.05)
            assert client.fleet()["lease_reassignments"] == 1
            faults.clear()  # B's heartbeats go through
            worker_b = FleetWorker(
                url,
                worker_id="loud-b",
                entry=_selftest_entry,
                use_processes=False,
                max_jobs=1,
            )
            worker_b.run()
            final = client.wait_done(view.job_id, timeout=30)
            thread_a.join(timeout=30)
            assert final.state == "done"
            assert worker_a.heartbeats_dropped >= 1
            assert client.stats()["queue"]["executed"] == 1
