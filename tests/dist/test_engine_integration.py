"""BMC engine + distributed proof engine: verdict equivalence, stats, replay."""

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker, SafetyProperty
from repro.dist import SplitConfig
from repro.expr import BVConst, BVVar, mux
from repro.rtl import Circuit, elaborate


def _counter_design(width: int = 6):
    circuit = Circuit("dist_counter")
    enable = circuit.input("enable", 1)
    count = circuit.register("count", width, reset=0)
    count.next = mux(enable, count.q + BVConst(width, 1), count.q)
    circuit.output("value", count.q)
    return elaborate(circuit), width


def _problem(prop_value, width=6, **kwargs):
    design, _ = _counter_design(width)
    prop = SafetyProperty(
        f"never{prop_value}",
        BVVar("count", width).ne(BVConst(width, prop_value)),
    )
    return BMCProblem(design=design, prop=prop, **kwargs)


class TestVerdictEquivalence:
    def test_violating_run_matches_sequential(self):
        sequential = BoundedModelChecker(_problem(5, max_bound=8)).run()
        distributed = BoundedModelChecker(
            _problem(5, max_bound=8, split=SplitConfig(workers=1))
        ).run()
        assert sequential.status is BMCStatus.VIOLATION
        assert distributed.status is BMCStatus.VIOLATION
        # Dense schedules agree on the first violating bound: it is a
        # semantic property of the design, not of the solver.
        assert distributed.bound_reached == sequential.bound_reached
        # Both counterexamples replayed through the simulator and violated
        # the property (the engine raises otherwise); equal length because
        # dense windows are one frame wide.
        assert (
            distributed.counterexample_length
            == sequential.counterexample_length
        )

    def test_safe_run_matches_sequential(self):
        sequential = BoundedModelChecker(_problem(63, max_bound=6)).run()
        distributed = BoundedModelChecker(
            _problem(63, max_bound=6, split=SplitConfig(workers=1))
        ).run()
        assert sequential.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert distributed.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert distributed.frames_proven == sequential.frames_proven

    def test_two_workers_match_sequential(self):
        sequential = BoundedModelChecker(
            _problem(63, bound_schedule=[6])
        ).run()
        distributed = BoundedModelChecker(
            _problem(63, bound_schedule=[6], split=SplitConfig(workers=2))
        ).run()
        assert distributed.status is sequential.status

    def test_single_query_schedule_with_split(self):
        distributed = BoundedModelChecker(
            _problem(5, bound_schedule=[8], split=SplitConfig(workers=1))
        ).run()
        assert distributed.status is BMCStatus.VIOLATION
        assert distributed.counterexample is not None


class TestDistStatsPlumbing:
    def test_per_bound_cube_stats_recorded(self):
        result = BoundedModelChecker(
            _problem(63, max_bound=4, split=SplitConfig(workers=1))
        ).run()
        queried = [s for s in result.per_bound_stats if s.verdict != "skipped"]
        assert queried
        assert all(s.dist is not None for s in queried)
        assert result.cubes_solved == sum(
            s.dist.cubes_total for s in queried
        )
        assert result.cubes_solved > len(queried)  # actually split

    def test_sequential_runs_have_no_dist_stats(self):
        result = BoundedModelChecker(_problem(63, max_bound=4)).run()
        assert all(s.dist is None for s in result.per_bound_stats)
        assert result.cubes_solved == 0

    def test_zero_budget_still_accepts_free_proofs(self):
        # The counter property constant-folds, so every cube refutes with
        # zero conflicts: a zero conflict budget must not discard a proof
        # that cost nothing (sequential and parallel schedulers agree).
        result = BoundedModelChecker(
            _problem(
                63,
                bound_schedule=[6],
                max_conflicts_per_query=0,
                split=SplitConfig(workers=1, cube_conflict_budget=0),
            )
        ).run()
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
        assert result.frames_proven == 6
        assert result.per_bound_stats[-1].verdict == "unsat"
        assert result.total_conflicts == 0

    def test_symbolic_initial_state_replays_through_split(self):
        # The solver-chosen symbolic start state must survive the worker
        # round-trip: the replayed counterexample seeds from the model.
        problem = _problem(
            13,
            bound_schedule=[1],
            initial_state={"count": "symbolic"},
            split=SplitConfig(workers=1),
        )
        result = BoundedModelChecker(problem).run()
        assert result.status is BMCStatus.VIOLATION
        assert result.counterexample is not None


class TestDeterminism:
    def test_single_worker_distributed_runs_are_identical(self):
        def run():
            result = BoundedModelChecker(
                _problem(
                    63,
                    max_bound=5,
                    split=SplitConfig(workers=1, cube_conflict_budget=20),
                )
            ).run()
            return [
                (
                    s.bound,
                    s.verdict,
                    s.conflicts,
                    s.decisions,
                    s.propagations,
                    tuple(
                        (c.literals, c.verdict, c.conflicts, c.depth)
                        for c in (s.dist.cubes if s.dist else ())
                    ),
                )
                for s in result.per_bound_stats
            ]

        assert run() == run()
