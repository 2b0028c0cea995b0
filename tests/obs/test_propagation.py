"""Trace-context propagation across the fork boundary.

A collector installed before a fan-out is inherited by every forked
worker (copy-on-write memory snapshot); workers record spans under the
parent's trace id and ship them back over the channel they already report
results on.  These tests assert the stitched-together trace: one trace
id, spans recorded by more than one pid, worker subtrees parented under
the span that was open at fork time.
"""

import json
import os
import random

import pytest

from repro.dist.cubes import binary_cubes
from repro.dist.scheduler import SplitConfig, SplitQuery, WorkScheduler
from repro.eval.campaign import (
    CampaignConfig,
    detect_bug,
    record_comparable_dict,
    run_campaign,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

# x1|x2 and x3|x4 but every cross pair forbidden: UNSAT (4 cubes of work).
UNSAT_CLAUSES = [[1, 2], [3, 4], [-1, -3], [-1, -4], [-2, -3], [-2, -4]]


def _pid_prefixes(spans):
    return {str(s["span_id"]).split(".")[0] for s in spans}


def _random_3cnf(num_vars, num_clauses, seed=3):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def _assert_restart_parity(collector):
    """Every worker restart shows up in the trace *and* the metrics."""
    restarts = sum(1 for e in collector.events if e["name"] == "solver.restart")
    counted = obs_metrics.process_metrics().counter_value(
        "qed_solver_restarts_total"
    )
    assert collector.dropped_events == 0
    assert restarts > 0
    assert counted == restarts


class TestSchedulerPropagation:
    def test_cube_workers_report_spans_under_parent_trace(self):
        collector = obs_trace.start_trace()
        query = SplitQuery(
            clauses=[list(c) for c in UNSAT_CLAUSES],
            num_vars=4,
            cubes=binary_cubes([1, 2], 2),
        )
        WorkScheduler(SplitConfig(workers=2)).solve(query)
        obs_trace.clear()
        by_name = {}
        for span in collector.spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["dist.solve"]) == 1
        cubes = by_name["dist.cube"]
        assert len(cubes) == 4
        # Spans were recorded by forked workers, not the parent...
        assert f"{os.getpid():x}" not in _pid_prefixes(cubes)
        # ...yet every one parents under the parent's open dist.solve span.
        solve_id = by_name["dist.solve"][0]["span_id"]
        assert all(c["parent_id"] == solve_id for c in cubes)

    def test_sequential_scheduler_records_in_parent(self):
        collector = obs_trace.start_trace()
        query = SplitQuery(
            clauses=[list(c) for c in UNSAT_CLAUSES],
            num_vars=4,
            cubes=binary_cubes([1, 2], 2),
        )
        WorkScheduler(SplitConfig(workers=1)).solve(query)
        obs_trace.clear()
        cubes = [s for s in collector.spans if s["name"] == "dist.cube"]
        assert len(cubes) == 4
        assert _pid_prefixes(cubes) == {f"{os.getpid():x}"}


class TestMetricsParity:
    """Worker metric deltas ship home with the worker's spans and events."""

    def test_cube_workers_ship_metric_deltas(self):
        obs_metrics.reset_process_metrics()
        collector = obs_trace.start_trace()
        query = SplitQuery(
            clauses=_random_3cnf(110, 470), num_vars=110,
            cubes=binary_cubes([1, 2], 2),
        )
        WorkScheduler(SplitConfig(workers=2)).solve(query)
        obs_trace.clear()
        _assert_restart_parity(collector)

    def test_campaign_workers_ship_metric_deltas(self):
        obs_metrics.reset_process_metrics()
        config = CampaignConfig(
            bug_ids=["sra_zero_fill", "wrport_collision"],
            run_industrial_flow=False,
            run_directed_tests=False,
        )
        run_campaign(config, workers=2)
        _assert_restart_parity(obs_trace.last_trace())


class TestCampaignPropagation:
    def test_campaign_workers_report_under_one_trace(self):
        config = CampaignConfig(bug_ids=["sra_zero_fill", "wrport_collision"])
        run_campaign(config, workers=2)
        collector = obs_trace.last_trace()
        assert collector is not None
        by_name = {}
        for span in collector.spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["run_campaign"]) == 1
        detects = by_name["detect_bug"]
        assert len(detects) == 2
        # Both jobs ran in the workers' solver children; their spans came
        # home.
        prefixes = _pid_prefixes(detects)
        assert f"{os.getpid():x}" not in prefixes
        # Each job reaches the campaign span through its lease attempt.
        by_id = {s["span_id"]: s for s in collector.spans}
        campaign_id = by_name["run_campaign"][0]["span_id"]
        for detect in detects:
            attempt = by_id[detect["parent_id"]]
            assert attempt["name"] == "queue.attempt"
            assert attempt["parent_id"] == campaign_id
        # BMC subtree spans survived the trip too.
        assert "bmc.bound" in by_name

    def test_serial_campaign_trace_has_unique_span_ids(self):
        # One worker solves every job in one solver child, then the jobs'
        # traces merge into the campaign's.
        config = CampaignConfig(
            bug_ids=["sra_zero_fill", "cmpi_carry_spec"],
            run_industrial_flow=False,
            run_directed_tests=False,
        )
        run_campaign(config, workers=1)
        ids = [s["span_id"] for s in obs_trace.last_trace().spans]
        assert len(ids) > 3
        assert len(ids) == len(set(ids))


class TestByteIdenticalRecords:
    def test_detection_record_identical_with_obs_on_and_off(self):
        obs_trace.start_trace()
        record_on = detect_bug("sra_zero_fill")
        obs_trace.clear()

        obs_trace.set_enabled(False)
        try:
            record_off = detect_bug("sra_zero_fill")
        finally:
            obs_trace.set_enabled(True)

        on = json.dumps(record_comparable_dict(record_on), sort_keys=True)
        off = json.dumps(record_comparable_dict(record_off), sort_keys=True)
        assert on == off
