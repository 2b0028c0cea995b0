"""Chaos scenarios against a campaign's resume log: crash, resume, equality.

A campaign runs its jobs on the in-process job queue, and a re-run with
the same ``cache_dir`` resumes from the result cache's append-only log.
The acceptance bar from the fault-tolerance issue: a campaign SIGKILLed
mid-run resumes with the log's prefix byte-identical, serves the finished
jobs from the cache, and its records equal a fresh fault-free run on every
deterministic field.  The kill happens in a *subprocess* because
``faults`` delivers it as ``os._exit`` -- the real thing, not an
exception a ``finally`` could soften.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro import faults
from repro.eval.campaign import (
    CampaignConfig,
    record_comparable_dict,
    run_campaign,
)
from repro.obs import trace as obs_trace
from repro.serve.cache import ResultCache
from repro.serve.keys import JobSpec

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Two sub-second bugs (industrial flow and directed tests off).
BUG_IDS = ["sra_zero_fill", "cmpi_carry_spec"]


def _config():
    return CampaignConfig(
        bug_ids=BUG_IDS,
        run_industrial_flow=False,
        run_directed_tests=False,
    )


def _comparable(records):
    """Every deterministic field: wall clocks and provenance stripped."""
    return [
        json.dumps(record_comparable_dict(record), sort_keys=True)
        for record in records
    ]


def _replayed_keys(cache_dir):
    """The keys a fresh cache over *cache_dir* replays from its log, in
    bug-selection order."""
    cache = ResultCache(str(cache_dir))
    keys = [JobSpec.from_campaign(b, _config()).cache_key() for b in BUG_IDS]
    assert len(cache) == sum(key in cache for key in keys)
    return [bug_id for bug_id, key in zip(BUG_IDS, keys) if key in cache]


_KILLED_CAMPAIGN = """
import sys
from repro import faults
from repro.eval.campaign import CampaignConfig, run_campaign

faults.install(
    faults.FaultInjector(
        [faults.FaultSpec(site="serve.cache.append", action="kill", at=2)],
        seed=29,
    )
)
run_campaign(
    CampaignConfig(
        bug_ids={bug_ids!r},
        run_industrial_flow=False,
        run_directed_tests=False,
    ),
    cache_dir=sys.argv[1],
)
raise SystemExit("unreachable: the kill must fire first")
"""


class TestKilledCampaignResumes:
    def test_resume_preserves_prefix_and_matches_fault_free(self, tmp_path):
        cache_dir = tmp_path / "cache"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _KILLED_CAMPAIGN.format(bug_ids=BUG_IDS),
                str(cache_dir),
            ],
            env={
                "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
                "PYTHONDONTWRITEBYTECODE": "1",
                "PATH": "/usr/bin:/bin",
            },
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=120,
        )
        # The seeded SIGKILL fired at the second result's append, after
        # the first result was durably logged.
        assert proc.returncode == faults.KILL_EXIT_CODE, proc.stderr.decode()
        log = pathlib.Path(ResultCache(str(cache_dir)).log_path)
        prefix = log.read_bytes()
        assert _replayed_keys(cache_dir) == BUG_IDS[:1]

        # Resume in-process: the logged bug is a cache hit, only the
        # missing one is solved, appended after the untouched prefix.
        resumed = run_campaign(_config(), cache_dir=str(cache_dir))
        assert [r.bug_id for r in resumed.records] == BUG_IDS
        assert [r.served_from_cache for r in resumed.records] == [True, False]
        assert log.read_bytes().startswith(prefix)
        assert _replayed_keys(cache_dir) == BUG_IDS

        # The merged result is indistinguishable from a run that never
        # crashed, on every deterministic field.
        fresh = run_campaign(_config())
        assert _comparable(resumed.records) == _comparable(fresh.records)


class TestDeadlineTruncatedDetection:
    def test_truncated_search_is_marked_and_non_definitive(self):
        from repro.deadline import Deadline
        from repro.eval.campaign import CampaignConfig, detect_bug

        # An eddiv bug under an already-expired budget: every bound's
        # solve returns UNKNOWN immediately, nothing is claimed.
        record = detect_bug(
            "wrport_collision",
            CampaignConfig(
                run_industrial_flow=False, run_directed_tests=False
            ),
            deadline=Deadline.from_seconds(0.0),
        )
        assert record.deadline_expired is True
        assert record.qed_definitive is False
        assert not record.detected_by_symbolic_qed

    def test_detection_found_before_expiry_stays_definitive(self):
        from repro.deadline import Deadline
        from repro.eval.campaign import detect_bug

        # single_i runs to completion and finds the bug; with no
        # industrial/directed stages requested the record is complete,
        # so expiry marks it without weakening the verdict.
        record = detect_bug(
            BUG_IDS[0], _config(), deadline=Deadline.from_seconds(0.0)
        )
        assert record.deadline_expired is True
        assert record.detected_by_symbolic_qed
        assert record.qed_definitive is True

    def test_expiry_with_requested_stages_skipped_downgrades(self):
        from repro.deadline import Deadline
        from repro.eval.campaign import CampaignConfig, detect_bug

        record = detect_bug(
            BUG_IDS[0],
            CampaignConfig(
                bug_ids=BUG_IDS,
                run_industrial_flow=True,
                run_directed_tests=False,
            ),
            deadline=Deadline.from_seconds(0.0),
        )
        assert record.deadline_expired is True
        # The industrial flow was requested but skipped: incomplete.
        assert record.qed_definitive is False
        assert record.crs_detected is False


class TestTornCacheAppend:
    def test_torn_record_is_resolved_on_resume(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    # Tear the second result's append mid-line: the crash
                    # window between write() and a completed fsync.
                    faults.FaultSpec(
                        site="serve.cache.append", action="torn_write", at=2
                    )
                ],
                seed=31,
            )
        )
        first = run_campaign(_config(), cache_dir=str(tmp_path))
        faults.clear()

        # Replay drops exactly the torn entry; the healthy one survives.
        assert _replayed_keys(tmp_path) == BUG_IDS[:1]

        # Resume re-solves only the torn bug, heals the log's tail, and
        # converges on the records the faulted run returned in memory.
        resumed = run_campaign(_config(), cache_dir=str(tmp_path))
        assert [r.served_from_cache for r in resumed.records] == [True, False]
        assert _comparable(resumed.records) == _comparable(first.records)
        assert _replayed_keys(tmp_path) == BUG_IDS


class TestKilledSolverRetried:
    def test_campaign_completes_after_a_solver_crash(self, tmp_path):
        faults.install(
            faults.FaultInjector(
                [
                    # The first solve's child dies at job entry; the token
                    # keeps the retried lease's fresh child alive.
                    faults.FaultSpec(
                        site="serve.queue.worker",
                        action="kill",
                        at=1,
                        once=True,
                    )
                ],
                seed=37,
                token_dir=tmp_path,
            )
        )
        crashed = run_campaign(_config(), workers=1)
        faults.clear()

        # The lost lease was retried once, and the campaign trace says so.
        retries = [
            e for e in obs_trace.last_trace().events
            if e["name"] == "queue.retry"
        ]
        assert len(retries) == 1
        fresh = run_campaign(_config())
        assert _comparable(crashed.records) == _comparable(fresh.records)
