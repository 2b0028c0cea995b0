"""Tests for the bounded model checking engine."""

import pytest

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker, SafetyProperty
from repro.bmc import engine as engine_module
from repro.bmc.engine import check_property
from repro.bmc.property import Assumption
from repro.bmc.unroller import SYMBOLIC, Unroller
from repro.expr import BVConst, BVVar, mux
from repro.expr.cnfgen import CNFBuilder
from repro.rtl import Circuit, elaborate
from repro.sat.solver import CDCLSolver


def _counter_design(width: int = 4):
    circuit = Circuit("counter")
    enable = circuit.input("enable", 1)
    count = circuit.register("count", width, reset=0)
    count.next = mux(enable, count.q + BVConst(width, 1), count.q)
    circuit.output("value", count.q)
    return elaborate(circuit)


class TestUnroller:
    def test_frames_accumulate(self):
        unroller = Unroller(_counter_design())
        unroller.unroll(3)
        assert unroller.num_frames == 3
        assert "enable" in unroller.frames[2].inputs

    def test_symbolic_initial_state_creates_inputs(self):
        design = _counter_design()
        unroller = Unroller(design, initial_state={"count": SYMBOLIC})
        unroller.unroll(1)
        assert unroller.aig.num_inputs >= design.inputs["enable"] + 4

    def test_blast_at_missing_frame_rejected(self):
        unroller = Unroller(_counter_design())
        with pytest.raises(IndexError):
            unroller.blast_at_frame(BVVar("count", 4), 0)


class TestEngine:
    def test_violation_found_at_expected_depth(self):
        design = _counter_design()
        prop = SafetyProperty("never3", BVVar("count", 4).ne(BVConst(4, 3)))
        result = check_property(design, prop, max_bound=8)
        assert result.status is BMCStatus.VIOLATION
        assert result.counterexample_length == 4
        assert result.counterexample.state_at(3, "count") == 3

    def test_unreachable_value_is_not_violated(self):
        design = _counter_design()
        prop = SafetyProperty("never9", BVVar("count", 4).ne(BVConst(4, 9)))
        result = check_property(design, prop, max_bound=5)
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND

    def test_assumptions_constrain_search(self):
        design = _counter_design()
        prop = SafetyProperty("never2", BVVar("count", 4).ne(BVConst(4, 2)))
        never_enable = Assumption("no_enable", BVVar("enable", 1).eq(BVConst(1, 0)))
        result = check_property(
            design, prop, assumptions=[never_enable], max_bound=6
        )
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND

    def test_any_frame_mode_matches_first_mode(self):
        design = _counter_design()
        prop = SafetyProperty("never3", BVVar("count", 4).ne(BVConst(4, 3)))
        problem = BMCProblem(
            design=design,
            prop=prop,
            max_bound=8,
            bound_schedule=[8],
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.VIOLATION
        # The trace is truncated at the first violating cycle of the chosen
        # run (the "any" mode does not minimise the prefix, so the length may
        # exceed the minimal 4-cycle counterexample but never the bound).
        trace = result.counterexample
        assert trace.length <= 8
        assert trace.state_at(trace.length - 1, "count") == 3

    def test_property_over_outputs(self):
        design = _counter_design()
        prop = SafetyProperty("output_small", BVVar("value", 4).ult(BVConst(4, 2)))
        result = check_property(design, prop, max_bound=6)
        assert result.found_violation
        assert result.counterexample_length == 3

    def test_sparse_schedule_covers_skipped_frames(self):
        # Regression: with the per-bound "property holds before the last
        # frame" units, a sparse schedule of [2, 8] silently skipped the
        # violation at frame 3 (count == 3); the windowed incremental
        # encoding must find it.
        design = _counter_design()
        prop = SafetyProperty("never3", BVVar("count", 4).ne(BVConst(4, 3)))
        problem = BMCProblem(
            design=design,
            prop=prop,
            max_bound=8,
            bound_schedule=[2, 8],
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.VIOLATION
        # The window covers frames 2..7; the trace ends at whichever
        # violation the solver picked (minimality is only guaranteed for
        # dense schedules, where each window is a single frame).
        trace = result.counterexample
        assert 4 <= trace.length <= 8
        assert trace.state_at(trace.length - 1, "count") == 3

    def test_non_increasing_schedule_rejected(self):
        design = _counter_design()
        prop = SafetyProperty("p", BVVar("count", 4).ne(BVConst(4, 1)))
        with pytest.raises(ValueError):
            BMCProblem(design=design, prop=prop, bound_schedule=[4, 4])
        with pytest.raises(ValueError):
            BMCProblem(design=design, prop=prop, bound_schedule=[4, 2])

    def test_counterexample_waveform_rendering(self):
        design = _counter_design()
        prop = SafetyProperty("never2", BVVar("count", 4).ne(BVConst(4, 2)))
        result = check_property(design, prop, max_bound=6)
        summary = result.counterexample.summary(["count", "enable"])
        assert "count" in summary


class TestIncrementalEngine:
    """The engine must keep one solver and one CNF builder alive per run."""

    @pytest.fixture
    def construction_counters(self, monkeypatch):
        counters = {"solver": 0, "builder": 0}

        class CountingSolver(CDCLSolver):
            def __init__(self, *args, **kwargs):
                counters["solver"] += 1
                super().__init__(*args, **kwargs)

        class CountingBuilder(CNFBuilder):
            def __init__(self, *args, **kwargs):
                counters["builder"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "CDCLSolver", CountingSolver)
        monkeypatch.setattr(engine_module, "CNFBuilder", CountingBuilder)
        return counters

    def test_first_mode_uses_one_solver_and_builder(self, construction_counters):
        design = _counter_design()
        prop = SafetyProperty("never9", BVVar("count", 4).ne(BVConst(4, 9)))
        problem = BMCProblem(design=design, prop=prop, max_bound=6)
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert construction_counters["solver"] == 1
        assert construction_counters["builder"] == 1

    def test_violating_run_uses_one_solver_and_builder(self, construction_counters):
        design = _counter_design()
        prop = SafetyProperty("never3", BVVar("count", 4).ne(BVConst(4, 3)))
        problem = BMCProblem(design=design, prop=prop, max_bound=8)
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.VIOLATION
        assert construction_counters["solver"] == 1
        assert construction_counters["builder"] == 1

    def test_per_bound_stats_reported(self):
        design = _counter_design()
        prop = SafetyProperty("never9", BVVar("count", 4).ne(BVConst(4, 9)))
        result = check_property(design, prop, max_bound=6)
        stats = result.per_bound_stats
        assert [s.bound for s in stats] == [1, 2, 3, 4, 5, 6]
        assert all(s.verdict == "unsat" for s in stats)
        # Dense schedule: each query checks exactly the one new frame.
        assert [s.window_start for s in stats] == [0, 1, 2, 3, 4, 5]
        # The learned-clause database is carried across bounds, never reset.
        carried = [s.learned_clauses_carried for s in stats]
        assert all(b >= a for a, b in zip(carried, carried[1:]))
        assert result.total_conflicts == sum(s.conflicts for s in stats)
        assert result.learned_clauses_carried == carried[-1]

    def test_violation_stats_end_with_sat_verdict(self):
        design = _counter_design()
        prop = SafetyProperty("never3", BVVar("count", 4).ne(BVConst(4, 3)))
        result = check_property(design, prop, max_bound=8)
        assert result.per_bound_stats[-1].verdict == "sat"
        assert all(s.verdict == "unsat" for s in result.per_bound_stats[:-1])
        assert result.per_bound_stats[-1].bound == result.bound_reached


class TestFormulaReductionPipeline:
    """COI extraction and CNF preprocessing under the incremental engine."""

    def _run(self, prop_value, schedule, preprocess, symbolic=False):
        design = _counter_design()
        prop = SafetyProperty(
            f"never{prop_value}", BVVar("count", 4).ne(BVConst(4, prop_value))
        )
        problem = BMCProblem(
            design=design,
            prop=prop,
            max_bound=schedule[-1],
            bound_schedule=schedule,
            preprocess=preprocess,
            initial_state={"count": SYMBOLIC} if symbolic else None,
        )
        return BoundedModelChecker(problem).run()

    def test_three_bound_unsat_run_matches_unpreprocessed(self):
        baseline = self._run(9, [2, 4, 6], preprocess=False)
        reduced = self._run(9, [2, 4, 6], preprocess=True)
        assert baseline.status is reduced.status is (
            BMCStatus.NO_VIOLATION_WITHIN_BOUND
        )
        assert [s.verdict for s in baseline.per_bound_stats] == [
            s.verdict for s in reduced.per_bound_stats
        ]
        assert reduced.frames_proven == baseline.frames_proven == 6

    def test_three_bound_violating_run_matches_unpreprocessed(self):
        baseline = self._run(5, [2, 4, 6], preprocess=False)
        reduced = self._run(5, [2, 4, 6], preprocess=True)
        assert baseline.status is reduced.status is BMCStatus.VIOLATION
        assert [s.verdict for s in baseline.per_bound_stats] == [
            s.verdict for s in reduced.per_bound_stats
        ]
        # The replayed counterexamples reach the same violation.
        assert (
            baseline.counterexample.state_at(5, "count")
            == reduced.counterexample.state_at(5, "count")
            == 5
        )

    def test_symbolic_initial_state_survives_preprocessing(self):
        """Model reconstruction must yield a replayable counterexample even
        when elimination removed variables between the frames."""
        baseline = self._run(3, [1, 2], preprocess=False, symbolic=True)
        reduced = self._run(3, [1, 2], preprocess=True, symbolic=True)
        assert baseline.status is reduced.status is BMCStatus.VIOLATION
        assert reduced.counterexample.state_at(0, "count") in range(16)

    def test_frozen_interface_variables_never_eliminated(self):
        design = _counter_design()
        prop = SafetyProperty("never9", BVVar("count", 4).ne(BVConst(4, 9)))
        problem = BMCProblem(
            design=design,
            prop=prop,
            max_bound=6,
            initial_state={"count": SYMBOLIC},
            preprocess=True,
        )
        checker = BoundedModelChecker(problem)
        checker.run()
        eliminated = {variable for variable, _ in checker._elim_stack}
        assert eliminated.isdisjoint(checker._builder.input_vars)

    def test_preprocessing_shrinks_the_slab(self):
        result = self._run(9, [6], preprocess=True)
        stats = [s for s in result.per_bound_stats if s.verdict != "skipped"]
        assert stats, "expected at least one solved bound"
        total_before = sum(s.slab_clauses_before for s in stats)
        total_after = sum(s.slab_clauses_after for s in stats)
        assert total_after < total_before
        assert result.variables_eliminated > 0

    def test_cone_of_influence_defers_unrelated_assumptions(self):
        """An environmental assumption over inputs the property cannot
        observe must be deferred, not encoded."""
        circuit = Circuit("two_counters")
        enable_a = circuit.input("enable_a", 1)
        enable_b = circuit.input("enable_b", 1)
        count_a = circuit.register("count_a", 4, reset=0)
        count_b = circuit.register("count_b", 4, reset=0)
        count_a.next = mux(enable_a, count_a.q + BVConst(4, 1), count_a.q)
        count_b.next = mux(enable_b, count_b.q + BVConst(4, 1), count_b.q)
        circuit.output("value_a", count_a.q)
        design = elaborate(circuit)
        prop = SafetyProperty("a_low", BVVar("count_a", 4).ne(BVConst(4, 9)))
        assumption = Assumption(
            "b_enabled", BVVar("enable_b", 1).eq(BVConst(1, 1))
        )
        problem = BMCProblem(
            design=design,
            prop=prop,
            assumptions=[assumption],
            max_bound=4,
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        deferred = sum(s.assumptions_deferred for s in result.per_bound_stats)
        assert deferred > 0
        asserted = sum(s.assumptions_asserted for s in result.per_bound_stats)
        # The deferred assumption never enters the formula.
        assert asserted == 0

    def test_coi_disabled_asserts_everything(self):
        design = _counter_design()
        prop = SafetyProperty("never9", BVVar("count", 4).ne(BVConst(4, 9)))
        problem = BMCProblem(
            design=design, prop=prop, max_bound=3, coi_assumptions=False
        )
        result = BoundedModelChecker(problem).run()
        assert sum(s.assumptions_deferred for s in result.per_bound_stats) == 0

    def test_conflict_budget_yields_unknown_and_no_proof(self):
        # Symbolic start state constrained below 8: ``count`` can never hit
        # 12 within the bound, but proving that takes real conflicts, which
        # a zero budget forbids -- every window must answer UNKNOWN.
        design = _counter_design()
        prop = SafetyProperty("never12", BVVar("count", 4).ne(BVConst(4, 12)))
        low_start = Assumption(
            "low", BVVar("count", 4).ult(BVConst(4, 8)), only_cycle=0
        )
        problem = BMCProblem(
            design=design,
            prop=prop,
            assumptions=[low_start],
            max_bound=4,
            initial_state={"count": SYMBOLIC},
            max_conflicts_per_query=0,
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        verdicts = {s.verdict for s in result.per_bound_stats}
        assert "unknown" in verdicts
        # Budget-expired windows are never promoted to proven frames.
        assert result.frames_proven < 4


class TestDeferredAssumptionSoundness:
    """SAT answers must be confirmed against deferred (off-cone) assumptions."""

    @staticmethod
    def _two_counter_design():
        circuit = Circuit("two_counters_sound")
        enable_a = circuit.input("enable_a", 1)
        enable_b = circuit.input("enable_b", 1)
        count_a = circuit.register("count_a", 4, reset=0)
        count_b = circuit.register("count_b", 4, reset=0)
        count_a.next = mux(enable_a, count_a.q + BVConst(4, 1), count_a.q)
        count_b.next = mux(enable_b, count_b.q + BVConst(4, 1), count_b.q)
        circuit.output("value_a", count_a.q)
        return elaborate(circuit)

    def test_jointly_unsat_deferred_assumptions_forbid_violation(self):
        # The property alone is violated at frame 3, but the environment
        # (contradictory constraints on an input outside the property cone)
        # admits no trace at all -- reporting a violation would be unsound.
        design = self._two_counter_design()
        prop = SafetyProperty("never3", BVVar("count_a", 4).ne(BVConst(4, 3)))
        contradictory = [
            Assumption("b_on", BVVar("enable_b", 1).eq(BVConst(1, 1))),
            Assumption("b_off", BVVar("enable_b", 1).eq(BVConst(1, 0))),
        ]
        for coi in (True, False):
            problem = BMCProblem(
                design=design,
                prop=prop,
                assumptions=contradictory,
                max_bound=6,
                coi_assumptions=coi,
            )
            result = BoundedModelChecker(problem).run()
            assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND, (
                f"spurious violation with coi_assumptions={coi}"
            )

    def test_reported_trace_honours_deferred_assumption(self):
        # A satisfiable off-cone assumption must still shape the returned
        # counterexample: enable_b is pinned high even though the property
        # never observes it.
        design = self._two_counter_design()
        prop = SafetyProperty("never2", BVVar("count_a", 4).ne(BVConst(4, 2)))
        pinned = Assumption("b_on", BVVar("enable_b", 1).eq(BVConst(1, 1)))
        problem = BMCProblem(
            design=design, prop=prop, assumptions=[pinned], max_bound=6
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.VIOLATION
        trace = result.counterexample
        assert all(
            trace.inputs[cycle]["enable_b"] == 1
            for cycle in range(trace.length)
        )


class TestFramesProvenMetric:
    def test_unknown_then_unsat_counts_the_later_proof(self):
        # [unsat@2, unknown@4, unsat@6]: the bound-6 window folds the
        # frames the UNKNOWN left unproven, so all six frames are proven.
        from repro.bmc.engine import BMCResult, BoundStats

        def stats(bound, verdict):
            return BoundStats(
                bound=bound, window_start=0, runtime_seconds=0.0,
                verdict=verdict,
            )

        result = BMCResult(
            status=BMCStatus.NO_VIOLATION_WITHIN_BOUND,
            property_name="p",
            bound_reached=6,
            runtime_seconds=0.0,
            per_bound_stats=[
                stats(2, "unsat"), stats(4, "unknown"), stats(6, "unsat")
            ],
        )
        assert result.frames_proven == 6

    def test_trailing_unknown_does_not_count(self):
        from repro.bmc.engine import BMCResult, BoundStats

        def stats(bound, verdict):
            return BoundStats(
                bound=bound, window_start=0, runtime_seconds=0.0,
                verdict=verdict,
            )

        result = BMCResult(
            status=BMCStatus.NO_VIOLATION_WITHIN_BOUND,
            property_name="p",
            bound_reached=4,
            runtime_seconds=0.0,
            per_bound_stats=[stats(2, "unsat"), stats(4, "unknown")],
        )
        assert result.frames_proven == 2
