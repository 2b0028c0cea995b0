"""Work scheduler."""

import random

import pytest

from repro.dist.cubes import Cube, binary_cubes, ladder_cubes
from repro.dist.scheduler import (
    SplitConfig,
    SplitQuery,
    WorkScheduler,
)
from repro.sat.cnf import CNF
from repro.sat.solver import SolverStatus, solve

# x1|x2 and x3|x4 but every cross pair forbidden: UNSAT.
UNSAT_CLAUSES = [[1, 2], [3, 4], [-1, -3], [-1, -4], [-2, -3], [-2, -4]]
# Satisfiable with 3 forced true whenever 1 or 2 holds.
SAT_CLAUSES = [[1, 2], [-1, 3], [-2, 3]]


def _query(clauses, num_vars, cubes, **kwargs):
    return SplitQuery(
        clauses=[list(c) for c in clauses],
        num_vars=num_vars,
        cubes=cubes,
        **kwargs,
    )


class TestSplitConfigValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            SplitConfig(workers=0)


class TestSequentialScheduler:
    def test_all_cubes_unsat_means_unsat(self):
        query = _query(UNSAT_CLAUSES, 4, binary_cubes([1, 2], 2))
        result = WorkScheduler(SplitConfig(workers=1)).solve(query)
        assert result.status is SolverStatus.UNSAT
        assert result.stats.cubes_total == 4
        assert all(c.verdict == "unsat" for c in result.stats.cubes)

    def test_sat_cube_wins_with_model(self):
        query = _query(SAT_CLAUSES, 3, ladder_cubes([1, 2]))
        result = WorkScheduler(SplitConfig(workers=1)).solve(query)
        assert result.status is SolverStatus.SAT
        assert result.model is not None
        for clause in SAT_CLAUSES:
            assert any((l > 0) == result.model[abs(l)] for l in clause)

    def test_incremental_reuse_extends_previous_query(self):
        # The inline solver persists across incremental queries: the second
        # query appends clauses to the first's list and only the tail is
        # fed, yet the verdict must match a from-scratch solve.
        scheduler = WorkScheduler(SplitConfig(workers=1))
        first = _query(SAT_CLAUSES, 3, ladder_cubes([1, 2]), incremental=True)
        assert scheduler.solve(first).status is SolverStatus.SAT
        grown = _query(
            SAT_CLAUSES + [[-3]],  # forces UNSAT (1|2 forces 3)
            3,
            ladder_cubes([1, 2]),
            incremental=True,
        )
        assert scheduler.solve(grown).status is SolverStatus.UNSAT

    def test_non_incremental_query_invalidates_inline_solver_cache(self):
        # Regression: a non-incremental query between two incremental ones
        # must drop the cached solver.  Without the invalidation, the third
        # query would reuse the solver built for the *first* formula (which
        # contains [1]) and feed only its clause tail, answering UNSAT for
        # the satisfiable formula [[-1], [-1]].
        scheduler = WorkScheduler(SplitConfig(workers=1))
        q1 = _query([[1]], 1, [Cube(literals=())], incremental=True)
        assert scheduler.solve(q1).status is SolverStatus.SAT
        q2 = _query([[-1]], 1, [Cube(literals=())], incremental=False)
        assert scheduler.solve(q2).status is SolverStatus.SAT
        q3 = _query([[-1], [-1]], 1, [Cube(literals=())], incremental=True)
        result = scheduler.solve(q3)
        assert result.status is SolverStatus.SAT
        assert result.model is not None and result.model[1] is False

    def test_base_assumptions_apply_to_every_cube(self):
        # Assuming -3 refutes every cube: [1,2] forces 1 or 2, either of
        # which forces 3.  A cube ignoring the base assumption would answer
        # SAT, so the UNSAT merge proves the assumptions reached all cubes.
        query = _query(
            SAT_CLAUSES, 3, ladder_cubes([1, 2]), assumptions=[-3]
        )
        result = WorkScheduler(SplitConfig(workers=1)).solve(query)
        assert result.status is SolverStatus.UNSAT
        assert all(c.verdict == "unsat" for c in result.stats.cubes)

    def test_budget_overrun_resplits_and_still_proves(self):
        query = _query(
            UNSAT_CLAUSES,
            4,
            [Cube(())],
            resplit_vars=[1, 2, 3, 4],
        )
        config = SplitConfig(workers=1, cube_conflict_budget=0)
        result = WorkScheduler(config).solve(query)
        assert result.status is SolverStatus.UNSAT
        assert result.stats.resplits > 0
        assert any(c.depth > 0 for c in result.stats.cubes)

    def test_global_conflict_budget_yields_unknown(self):
        query = _query(
            UNSAT_CLAUSES, 4, [Cube(())], max_conflicts=0
        )
        config = SplitConfig(workers=1, cube_conflict_budget=0)
        result = WorkScheduler(config).solve(query)
        assert result.status is SolverStatus.UNKNOWN

    def test_single_worker_runs_are_deterministic(self):
        def run():
            query = _query(
                UNSAT_CLAUSES,
                4,
                binary_cubes([1, 2], 2),
                resplit_vars=[3, 4],
            )
            result = WorkScheduler(
                SplitConfig(workers=1, cube_conflict_budget=1)
            ).solve(query)
            return (
                result.status,
                [
                    (c.literals, c.verdict, c.depth, c.conflicts, c.decisions)
                    for c in result.stats.cubes
                ],
            )

        assert run() == run()


class TestParallelScheduler:
    def test_unsat_merge_across_workers(self):
        query = _query(UNSAT_CLAUSES, 4, binary_cubes([1, 2], 2))
        result = WorkScheduler(SplitConfig(workers=2)).solve(query)
        assert result.status is SolverStatus.UNSAT
        assert result.stats.cubes_total == 4

    def test_sat_model_from_any_worker_satisfies_formula(self):
        query = _query(SAT_CLAUSES, 3, ladder_cubes([1, 2]))
        result = WorkScheduler(SplitConfig(workers=2)).solve(query)
        assert result.status is SolverStatus.SAT
        for clause in SAT_CLAUSES:
            assert any((l > 0) == result.model[abs(l)] for l in clause)

    def test_parallel_resplit_terminates(self):
        # Every worker runs the same solver, so the cube overruns its zero
        # budget whichever worker steals it, and the re-split path runs.
        query = _query(
            UNSAT_CLAUSES, 4, [Cube(())], resplit_vars=[1, 2, 3, 4]
        )
        config = SplitConfig(workers=2, cube_conflict_budget=0)
        result = WorkScheduler(config).solve(query)
        assert result.status is SolverStatus.UNSAT
        assert result.stats.resplits > 0

    def test_pool_verdicts_match_a_plain_solve(self):
        # Seeded random 3-CNFs around the phase transition, so both
        # verdicts occur; each pool answer must be the one-solver answer,
        # and a pool model must satisfy the formula.
        verdicts = set()
        for seed in range(6):
            rng = random.Random(3100 + seed)
            num_vars = 12
            clauses = [
                [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), 3)
                ]
                for _ in range(52)
            ]
            cnf = CNF(num_vars)
            for clause in clauses:
                cnf.add_clause(clause)
            expected = solve(cnf).status
            query = _query(clauses, num_vars, binary_cubes([1, 2, 3], 3))
            result = WorkScheduler(SplitConfig(workers=2)).solve(query)
            assert result.status is expected, seed
            if result.is_sat:
                assert cnf.evaluate(result.model), seed
            verdicts.add(expected)
        assert verdicts == {SolverStatus.SAT, SolverStatus.UNSAT}

    def test_pool_workers_share_no_clauses(self):
        # Every cube is refuted by its own worker's solver alone; the
        # counter the benchmark still reads stays at 0.
        query = _query(UNSAT_CLAUSES, 4, binary_cubes([1, 2, 3], 3))
        result = WorkScheduler(SplitConfig(workers=2)).solve(query)
        assert result.status is SolverStatus.UNSAT
        assert result.stats.cubes_unsat == 8
        assert result.stats.clauses_shared == 0
