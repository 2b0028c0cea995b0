"""One clock: every timing field is read off the span that measures it.

With a collector installed, each ``*_seconds`` field equals its span's
``end - start`` exactly (floats compared with ``==``, never the rounded
JSON); with tracing off the same fields are still measured, because a span
always times whether or not anything records it.
"""

import pytest

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker, SafetyProperty
from repro.bmc.property import Assumption
from repro.dist.scheduler import SplitConfig
from repro.expr import BVConst, BVVar, mux
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.rtl import Circuit, elaborate


def _duration(span):
    return span["end"] - span["start"]


def _named(collector, name):
    return [s for s in collector.spans if s["name"] == name]


def _by_bound(collector, name):
    spans = {}
    for span in _named(collector, name):
        spans.setdefault(span["attrs"]["bound"], []).append(span)
    return spans


def _counters_design(width=6):
    circuit = Circuit("one_clock_counters")
    enable_a = circuit.input("enable_a", 1)
    enable_b = circuit.input("enable_b", 1)
    count_a = circuit.register("count_a", width, reset=0)
    count_b = circuit.register("count_b", width, reset=0)
    count_a.next = mux(enable_a, count_a.q + BVConst(width, 1), count_a.q)
    count_b.next = mux(enable_b, count_b.q + BVConst(width, 1), count_b.q)
    circuit.output("value_a", count_a.q)
    return elaborate(circuit)


def _in_process_problem():
    """Bounds 1-2 skipped (start cycle 2), bound 3 UNSAT, bound 4 SAT.

    The off-cone assumption on ``enable_b`` is deferred, so bound 4's
    provisional SAT answer is confirmed by a re-solve; bound 4's slab is
    large enough to be preprocessed.
    """
    prop = SafetyProperty(
        "never3", BVVar("count_a", 6).ne(BVConst(6, 3)), start_cycle=2
    )
    pinned = Assumption("b_on", BVVar("enable_b", 1).eq(BVConst(1, 1)))
    return BMCProblem(
        design=_counters_design(), prop=prop, assumptions=[pinned], max_bound=6
    )


def _split_problem(workers):
    """A six-frame UNSAT window, split into cubes."""
    prop = SafetyProperty("never63", BVVar("count_a", 6).ne(BVConst(6, 63)))
    return BMCProblem(
        design=_counters_design(),
        prop=prop,
        bound_schedule=[6],
        split=SplitConfig(workers=workers),
    )


def _traced(run):
    obs_metrics.reset_process_metrics()
    collector = obs_trace.start_trace()
    try:
        result = run()
    finally:
        obs_trace.clear()
    return result, collector


def _assert_bounds_read_off_spans(result, collector):
    bound_spans = _by_bound(collector, "bmc.bound")
    for stats in result.per_bound_stats:
        [bound_span] = bound_spans[stats.bound]
        assert stats.runtime_seconds == _duration(bound_span)
    [run_span] = _named(collector, "bmc.run")
    assert result.runtime_seconds == _duration(run_span)
    # The per-bound heartbeat reports the same two durations.
    beats = {
        e["attrs"]["bound"]: e["attrs"]
        for e in collector.events
        if e["name"] == obs_trace.HEARTBEAT and e["attrs"]["site"] == "bound"
    }
    for stats in result.per_bound_stats:
        assert beats[stats.bound]["bound_seconds"] == stats.runtime_seconds
        assert beats[stats.bound]["solve_seconds"] == stats.solve_seconds


class TestTracedFieldsEqualTheirSpans:
    def test_in_process_run(self):
        result, collector = _traced(
            lambda: BoundedModelChecker(_in_process_problem()).run()
        )
        assert result.status is BMCStatus.VIOLATION
        verdicts = [s.verdict for s in result.per_bound_stats]
        assert verdicts == ["skipped", "skipped", "unsat", "sat"]
        sat = result.per_bound_stats[-1]
        assert sat.assumptions_asserted > 0 and sat.assumptions_deferred == 0
        assert sat.preprocess is not None
        _assert_bounds_read_off_spans(result, collector)

        bound_spans = _by_bound(collector, "bmc.bound")
        coi_spans = _by_bound(collector, "bmc.coi")
        solve_spans = _by_bound(collector, "bmc.solve")
        bound_ids = {
            s["span_id"]: bound for bound, [s] in bound_spans.items()
        }
        preprocess_spans = {
            bound_ids[s["parent_id"]]: s
            for s in _named(collector, "sat.preprocess")
        }
        registry = obs_metrics.process_metrics()
        encode = preprocess = solve = 0.0
        for stats in result.per_bound_stats:
            if stats.verdict == "skipped":
                assert stats.bound not in solve_spans
                continue
            # One bmc.solve span covers the solve and the re-solve.
            [solve_span] = solve_spans[stats.bound]
            assert stats.solve_seconds == _duration(solve_span)
            # Encoding runs from the bound's start to the end of bmc.coi.
            [bound_span] = bound_spans[stats.bound]
            [coi_span] = coi_spans[stats.bound]
            encode += coi_span["end"] - bound_span["start"]
            solve += stats.solve_seconds
            if stats.preprocess is not None:
                span = preprocess_spans[stats.bound]
                assert stats.preprocess.time_seconds == _duration(span)
                preprocess += stats.preprocess.time_seconds
        # The stage counters add up the very same durations.
        assert registry.counter_value(
            "qed_stage_seconds_total", stage="encode"
        ) == encode
        assert registry.counter_value(
            "qed_stage_seconds_total", stage="preprocess"
        ) == preprocess
        assert registry.counter_value(
            "qed_stage_seconds_total", stage="solve"
        ) == solve

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_run(self, workers):
        result, collector = _traced(
            lambda: BoundedModelChecker(_split_problem(workers)).run()
        )
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        _assert_bounds_read_off_spans(result, collector)
        [stats] = result.per_bound_stats
        [dist_span] = _named(collector, "dist.solve")
        assert stats.dist.wall_seconds == _duration(dist_span)
        assert stats.solve_seconds == stats.dist.wall_seconds
        cube_spans = _named(collector, "dist.cube")
        assert len(cube_spans) == len(stats.dist.cubes) > 1
        if workers == 1:
            assert [c.runtime_seconds for c in stats.dist.cubes] == [
                _duration(s) for s in cube_spans
            ]
        else:
            # Recorded in the workers, shipped home with each cube result.
            assert sorted(
                (c.worker, c.depth, len(c.literals), c.runtime_seconds)
                for c in stats.dist.cubes
            ) == sorted(
                (
                    s["attrs"]["worker"],
                    s["attrs"]["depth"],
                    s["attrs"]["literals"],
                    _duration(s),
                )
                for s in cube_spans
            )


class TestUntracedFieldsStillTime:
    @pytest.fixture(autouse=True)
    def _tracing_off(self):
        obs_trace.set_enabled(False)
        assert obs_trace.active() is None

    def test_in_process_run(self):
        result = BoundedModelChecker(_in_process_problem()).run()
        assert result.runtime_seconds > 0.0
        for stats in result.per_bound_stats:
            assert stats.runtime_seconds > 0.0
            if stats.verdict != "skipped":
                assert stats.solve_seconds > 0.0
        assert result.per_bound_stats[-1].preprocess.time_seconds > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_run(self, workers):
        result = BoundedModelChecker(_split_problem(workers)).run()
        [stats] = result.per_bound_stats
        assert stats.runtime_seconds > 0.0
        assert stats.solve_seconds == stats.dist.wall_seconds > 0.0
        assert all(c.runtime_seconds > 0.0 for c in stats.dist.cubes)
