"""Solver heartbeats: a span-event kind recorded through the collector."""

import multiprocessing
import os
import random

import pytest

from repro.obs import trace as obs_trace
from repro.obs.metrics import process_metrics
from repro.obs.trace import HEARTBEAT, ObsCollector
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, SolverStatus


@pytest.fixture
def unthrottled(monkeypatch):
    """Sample every heartbeat and ship every capture at once."""
    monkeypatch.setattr(obs_trace, "HEARTBEAT_INTERVAL_SECONDS", 0.0)
    monkeypatch.setattr(obs_trace, "SHIP_INTERVAL_SECONDS", 0.0)


def beats(events):
    """The flat heartbeat dicts among *events* (a ring or a batch)."""
    return [e["attrs"] for e in events if e["name"] == HEARTBEAT]


def shipped_beats(batches):
    return [hb for batch in batches for hb in beats(batch["events"])]


class TestSinkRing:
    def test_record_stamps_seq_pid_time_and_site(self):
        collector = ObsCollector()
        heartbeat = collector.heartbeat("restart", conflicts=7)
        assert heartbeat["seq"] == 0
        assert heartbeat["site"] == "restart"
        assert heartbeat["conflicts"] == 7
        assert heartbeat["pid"] == os.getpid()
        assert heartbeat["t"] > 0
        assert collector.heartbeat("db_reduce")["seq"] == 1
        # Recorded as a span event whose attrs are the heartbeat itself.
        assert collector.events[0]["name"] == HEARTBEAT
        assert collector.events[0]["attrs"] == heartbeat

    def test_ring_bound_drops_oldest_and_counts(self):
        collector = ObsCollector(max_events=3)
        for index in range(5):
            collector.heartbeat("restart", conflicts=index)
        assert len(collector.events) == 3
        assert collector.dropped_events == 2
        assert [hb["conflicts"] for hb in beats(collector.events)] == [2, 3, 4]

    def test_max_heartbeats_must_be_positive(self):
        with pytest.raises(ValueError):
            ObsCollector(max_events=0)

    def test_due_throttles_by_min_interval(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "HEARTBEAT_INTERVAL_SECONDS", 3600.0)
        collector = ObsCollector()
        assert collector.heartbeat_due()  # nothing sampled yet
        collector.heartbeat("restart")
        assert not collector.heartbeat_due()
        monkeypatch.setattr(obs_trace, "HEARTBEAT_INTERVAL_SECONDS", 0.0)
        assert collector.heartbeat_due()

    def test_context_merges_and_none_drops(self):
        collector = ObsCollector()
        collector.set_heartbeat_context(bound=3, worker=1)
        heartbeat = collector.heartbeat("restart")
        assert heartbeat["bound"] == 3 and heartbeat["worker"] == 1
        collector.set_heartbeat_context(bound=None)
        assert "bound" not in collector.heartbeat("restart")
        # explicit fields win over ambient context
        collector.set_heartbeat_context(bound=5)
        assert collector.heartbeat("bound", bound=9)["bound"] == 9


class TestPpsWindow:
    def test_pps_derived_from_window(self):
        collector = ObsCollector()
        first = collector.heartbeat("restart", propagations=0)
        assert "pps" not in first  # single point, no span yet
        second = collector.heartbeat("restart", propagations=1000)
        assert second["pps"] > 0

    def test_window_resets_on_decreasing_propagations(self):
        collector = ObsCollector()
        collector.heartbeat("restart", propagations=5000)
        collector.heartbeat("restart", propagations=9000)
        # A fresh solver instance starts counting from scratch; the
        # window must not produce a negative or bogus rate.
        fresh = collector.heartbeat("restart", propagations=10)
        assert "pps" not in fresh
        assert collector.heartbeat("restart", propagations=500)["pps"] > 0


class TestForkShipping:
    def test_capture_ships_only_heartbeats_recorded_inside(self):
        collector = obs_trace.install(ObsCollector())
        collector.heartbeat("restart", conflicts=1)
        with obs_trace.capture() as empty:
            pass
        assert empty["events"] == [] and empty["dropped"] == 0
        with obs_trace.capture() as batch:
            collector.heartbeat("restart", conflicts=2)
            collector.heartbeat("db_reduce", conflicts=3)
        assert [hb["conflicts"] for hb in beats(batch["events"])] == [2, 3]

    def test_capture_ships_retained_tail_and_counts_the_rest(self):
        collector = obs_trace.install(ObsCollector(max_events=2))
        with obs_trace.capture() as batch:
            for index in range(5):
                collector.heartbeat("restart", conflicts=index)
        # Only the retained tail can ship; the evicted ones are counted.
        assert [hb["conflicts"] for hb in beats(batch["events"])] == [3, 4]
        assert batch["dropped"] == 3

    def test_capture_after_ring_wrap_ships_every_retained_new_event(self):
        collector = obs_trace.install(ObsCollector(max_events=10))
        for index in range(8):
            collector.event("old", {"i": index})
        with obs_trace.capture() as batch:
            for index in range(6):
                collector.event("new", {"i": index})
        # The ring wrapped (4 old events evicted), yet all 6 new events
        # are still retained, so all 6 ship and none counts as dropped.
        assert [e["attrs"]["i"] for e in batch["events"]] == list(range(6))
        assert {e["name"] for e in batch["events"]} == {"new"}
        assert batch["dropped"] == 0

    def test_absorb_merges_worker_batch(self):
        parent = ObsCollector()
        parent.heartbeat("restart", conflicts=1)
        worker = obs_trace.install(ObsCollector(parent.trace_id))
        worker.set_heartbeat_context(worker=3)
        with obs_trace.capture() as batch:
            worker.heartbeat("restart", conflicts=10)
        obs_trace.install(parent)
        obs_trace.absorb(batch)
        assert [hb["conflicts"] for hb in beats(parent.events)] == [1, 10]
        assert beats(parent.events)[-1]["worker"] == 3


class TestFlush:
    def test_flush_ships_pending_once(self, unthrottled):
        collector = obs_trace.install(ObsCollector())
        batches = []
        with obs_trace.capture(ship=batches.append) as final:
            collector.heartbeat("restart", conflicts=1)
            collector.heartbeat("restart", conflicts=2)
        assert [hb["conflicts"] for hb in shipped_beats(batches)] == [1, 2]
        # The final batch ships too (spans, metric delta) -- it is the
        # yielded one -- but holds no heartbeat a live shipment carried.
        assert batches[-1] == final
        assert beats(final["events"]) == []

    def test_flush_interval_throttles_callback(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "HEARTBEAT_INTERVAL_SECONDS", 0.0)
        monkeypatch.setattr(obs_trace, "SHIP_INTERVAL_SECONDS", 3600.0)
        collector = obs_trace.install(ObsCollector())
        batches = []
        with obs_trace.capture(ship=batches.append):
            collector.heartbeat("restart", conflicts=1)  # first ships at once
            collector.heartbeat("restart", conflicts=2)  # throttled
            assert len(shipped_beats(batches)) < 2
        # Closing the capture ships the rest.
        assert [hb["conflicts"] for hb in shipped_beats(batches)] == [1, 2]

    def test_callback_errors_are_swallowed_and_counted(self, unthrottled):
        collector = obs_trace.install(ObsCollector())
        calls = []

        def flaky(batch):
            calls.append(batch)
            if len(calls) == 1:
                raise RuntimeError("ship failed")

        with obs_trace.capture(ship=flaky):
            collector.heartbeat("restart", conflicts=1)  # lost
            collector.heartbeat("restart", conflicts=2)
        delivered = calls[1:]
        assert [hb["conflicts"] for hb in shipped_beats(delivered)] == [2]
        # The lost heartbeat is not silently gone: it counts as dropped.
        assert sum(batch["dropped"] for batch in delivered) == 1

    def test_forked_child_never_calls_inherited_shipper(self, tmp_path, unthrottled):
        log = tmp_path / "ship.log"

        def ship(batch):
            with open(log, "a", encoding="utf-8") as stream:
                stream.write(f"{os.getpid()}\n")

        def child():
            # No capture of its own: the parent's is still the open one.
            obs_trace.active().heartbeat("restart", conflicts=99)

        collector = obs_trace.install(ObsCollector())
        with obs_trace.capture(ship=ship):
            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
            process.join(10.0)
            assert process.exitcode == 0
            collector.heartbeat("restart", conflicts=1)
        pids = set(log.read_text().split())
        assert pids == {str(os.getpid())}


class TestModuleGlobals:
    def test_install_active_clear(self, unthrottled):
        """Heartbeats are recorded through whichever collector is active."""
        CDCLSolver(_hard_random_cnf()).solve()  # nothing installed: no-op
        collector = obs_trace.start_trace()
        CDCLSolver(_hard_random_cnf()).solve()
        recorded = len(beats(collector.events))
        assert recorded > 0
        obs_trace.clear()
        CDCLSolver(_hard_random_cnf()).solve()
        assert len(beats(collector.events)) == recorded


# ----------------------------------------------------------------------
def _hard_random_cnf(num_vars=120, num_clauses=516, seed=3):
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in variables)
        )
    cnf.add_clauses(clauses)
    return cnf


class TestSolverIntegration:
    def test_heartbeats_sampled_on_cold_branches(self, unthrottled):
        collector = obs_trace.start_trace()
        solver = CDCLSolver(_hard_random_cnf())
        solver.solve()
        restarts = [
            hb for hb in beats(collector.events) if hb["site"] == "restart"
        ]
        assert len(restarts) >= 2
        conflicts = [hb["conflicts"] for hb in restarts]
        assert conflicts == sorted(conflicts)
        assert all(c > 0 for c in conflicts)
        latest = restarts[-1]
        for field in (
            "decisions",
            "propagations",
            "learned",
            "trail_depth",
            "decision_level",
            "learned_live",
            "arena_len",
            "restart_interval",
        ):
            assert field in latest
        # restart-site heartbeats carry the learned-DB LBD histogram
        assert isinstance(latest["lbd_hist"], dict)
        assert sum(latest["lbd_hist"].values()) <= latest["learned_live"]

    def test_results_identical_with_telemetry_on_and_off(self, unthrottled):
        solver_off = CDCLSolver(_hard_random_cnf())
        result_off = solver_off.solve()
        stats_off = (
            solver_off.stats.conflicts,
            solver_off.stats.decisions,
            solver_off.stats.propagations,
        )
        obs_trace.start_trace()
        solver_on = CDCLSolver(_hard_random_cnf())
        result_on = solver_on.solve()
        stats_on = (
            solver_on.stats.conflicts,
            solver_on.stats.decisions,
            solver_on.stats.propagations,
        )
        assert result_on.status is result_off.status
        assert result_on.model == result_off.model
        assert stats_on == stats_off

    def test_disabled_telemetry_samples_nothing(self, unthrottled):
        # Tracing off: the trace root creates no collector, so the solver
        # samples no heartbeat -- but the capture still ships metrics.
        obs_trace.set_enabled(False)
        assert obs_trace.start_trace() is None
        with obs_trace.capture() as batch:
            CDCLSolver(_hard_random_cnf()).solve()
        assert batch["events"] == [] and batch["spans"] == []
        assert batch["metrics"]["counters"]["qed_solver_restarts_total"]
        assert process_metrics().counter_value("qed_solver_restarts_total") > 0

    def test_solver_solves_without_any_sink(self):
        solver = CDCLSolver(_hard_random_cnf())
        assert solver.solve().status in (
            SolverStatus.SAT,
            SolverStatus.UNSAT,
        )
