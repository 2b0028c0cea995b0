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
from repro.dist.portfolio import solve_portfolio
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

    def test_racers_ship_metric_deltas(self):
        obs_metrics.reset_process_metrics()
        collector = obs_trace.start_trace()
        solve_portfolio(_random_3cnf(120, 516), 120, workers=2)
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


class TestPortfolioPropagation:
    def test_racers_never_call_the_parents_shipper(self, tmp_path, monkeypatch):
        monkeypatch.setattr(obs_trace, "HEARTBEAT_INTERVAL_SECONDS", 0.0)
        monkeypatch.setattr(obs_trace, "SHIP_INTERVAL_SECONDS", 0.0)
        log = tmp_path / "ship.log"

        def ship(batch):
            with open(log, "a", encoding="utf-8") as stream:
                stream.write(f"{os.getpid()} {len(batch['events'])}\n")

        collector = obs_trace.start_trace()
        with obs_trace.capture(ship=ship):
            solve_portfolio(_random_3cnf(120, 516), 120, workers=2)
        obs_trace.clear()
        # The racers sampled heartbeats (they came home in their batches)...
        assert any(
            e["name"] == "heartbeat" and e["attrs"]["pid"] != os.getpid()
            for e in collector.events
        )
        # ...but only this process ever ran the shipper.
        pids = {line.split()[0] for line in log.read_text().splitlines()}
        assert pids == {str(os.getpid())}

    def test_racers_ship_spans_back(self):
        collector = obs_trace.start_trace()
        outcome = solve_portfolio(UNSAT_CLAUSES, 4, workers=2)
        obs_trace.clear()
        racers = [s for s in collector.spans if s["name"] == "portfolio.racer"]
        # Every *finished* racer shipped its span (a cancelled loser may not).
        assert len(racers) >= len(outcome.finished) >= 1
        assert f"{os.getpid():x}" not in _pid_prefixes(racers)


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
        # Both jobs ran in forked pool workers; their spans came home.
        prefixes = _pid_prefixes(detects)
        assert f"{os.getpid():x}" not in prefixes
        campaign_id = by_name["run_campaign"][0]["span_id"]
        assert all(d["parent_id"] == campaign_id for d in detects)
        # BMC subtree spans survived the trip too.
        assert "bmc.bound" in by_name


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
