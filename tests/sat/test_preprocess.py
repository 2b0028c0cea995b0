"""Tests for the SatELite-style CNF preprocessor."""

import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.preprocess import extend_model, preprocess
from repro.sat.solver import CDCLSolver


def _solve(clauses, num_vars):
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return CDCLSolver(cnf).solve()


def _max_var(clauses):
    return max((abs(l) for clause in clauses for l in clause), default=0)


class TestSubsumption:
    def test_subsumed_clause_removed(self):
        result = preprocess(
            [[1, 2], [1, 2, 3]], frozen={1, 2, 3}, enable_probing=False
        )
        assert result.stats.clauses_subsumed == 1
        assert [1, 2] in result.clauses
        assert [1, 2, 3] not in result.clauses

    def test_self_subsuming_resolution_strengthens(self):
        # (1 2) and (-1 2 3): resolving on 1 gives (2 3) which subsumes
        # the second clause, so literal -1 is removed from it.
        result = preprocess(
            [[1, 2], [-1, 2, 3]], frozen={1, 2, 3}, enable_probing=False
        )
        assert result.stats.literals_strengthened == 1
        assert [2, 3] in result.clauses

    def test_duplicate_and_tautological_clauses_cleaned(self):
        result = preprocess(
            [[1, -1, 2], [1, 2], [2, 1]], frozen={1, 2}, enable_probing=False
        )
        non_unit = [c for c in result.clauses if len(c) > 1]
        assert len(non_unit) == 1


class TestVariableElimination:
    def test_tseitin_auxiliary_disappears(self):
        # Variable 3 is a pure Tseitin definition 3 <-> (1 & 2); nothing
        # else mentions it, so BVE removes it without growth.
        clauses = [[-3, 1], [-3, 2], [3, -1, -2]]
        result = preprocess(clauses, frozen={1, 2}, enable_probing=False)
        assert result.stats.variables_eliminated == 1
        assert all(3 not in map(abs, clause) for clause in result.clauses)

    def test_frozen_variables_never_eliminated(self):
        clauses = [[-3, 1], [-3, 2], [3, -1, -2], [-1, 2], [1, -2]]
        for frozen in ({1, 2, 3}, {3}):
            result = preprocess(clauses, frozen=frozen, enable_probing=False)
            eliminated = {variable for variable, _ in result.eliminated}
            assert eliminated.isdisjoint(frozen)

    def test_elimination_preserves_satisfiability(self):
        clauses = [[-3, 1], [-3, 2], [3, -1, -2], [3]]
        result = preprocess(clauses, frozen=set(), enable_probing=False)
        verdict = _solve(result.clauses, _max_var(clauses))
        assert verdict.is_sat
        model = extend_model(verdict.model, result.eliminated)
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


class TestProbing:
    def test_failed_literal_becomes_unit(self):
        # Assuming 1 propagates 2 (via -1 2 ... binary chains) into a
        # conflict, so -1 must hold at top level.
        clauses = [[-1, 2], [-1, 3], [-2, -3, 4], [-4, -1], [1, 5], [1, -5, 6]]
        result = preprocess(
            clauses,
            frozen={1, 2, 3, 4, 5, 6},
            enable_elimination=False,
            enable_subsumption=False,
        )
        assert result.stats.failed_literals >= 1
        assert [-1] in result.clauses


class TestUnsatDetection:
    def test_contradictory_units(self):
        result = preprocess([[1], [-1]], frozen={1})
        assert result.unsat
        assert [] in result.clauses

    def test_unsat_core_via_resolution(self):
        clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        result = preprocess(clauses, frozen=set())
        verdict = _solve(result.clauses, 2)
        assert verdict.is_unsat


class TestRandomEquivalence:
    """Preprocessing must preserve satisfiability on random formulas.

    For every random CNF the original and the preprocessed formula are
    solved independently; the verdicts must agree, and on SAT the reduced
    model extended over the eliminated variables must satisfy every
    original clause.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_preprocess_preserves_satisfiability(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 10)
        num_clauses = rng.randint(3, 4 * num_vars)
        clauses = []
        for _ in range(num_clauses):
            width = rng.randint(1, min(4, num_vars))
            variables = rng.sample(range(1, num_vars + 1), width)
            clauses.append(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        frozen = set(rng.sample(range(1, num_vars + 1), rng.randint(0, 3)))

        original = _solve(clauses, num_vars)
        result = preprocess(clauses, frozen=frozen)
        eliminated = {variable for variable, _ in result.eliminated}
        assert eliminated.isdisjoint(frozen)
        reduced = _solve(result.clauses, num_vars)
        assert original.is_sat == reduced.is_sat
        assert original.is_unsat == reduced.is_unsat
        if reduced.is_sat:
            model = extend_model(reduced.model, result.eliminated)
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause), (
                    f"extended model falsifies {clause}"
                )


class TestStatsPlumbing:
    def test_stats_merge_accumulates(self):
        first = preprocess([[1, 2], [1, 2, 3]], frozen={1, 2, 3}).stats
        second = preprocess([[-4, 5]], frozen={4, 5}).stats
        total_in = first.clauses_in
        first.merge(second)
        assert first.clauses_in == total_in + second.clauses_in
        assert first.rounds >= second.rounds


class TestFrozenCutoff:
    def test_variables_at_or_below_cutoff_survive(self):
        # Var 3 is an eliminable Tseitin auxiliary, but the cutoff freezes
        # it (the engine uses the cutoff for solver-known variables).
        clauses = [[-3, 1], [-3, 2], [3, -1, -2]]
        kept = preprocess(clauses, frozen_cutoff=3, enable_probing=False)
        assert kept.stats.variables_eliminated == 0
        gone = preprocess(clauses, frozen_cutoff=2, enable_probing=False)
        assert gone.stats.variables_eliminated == 1
        assert {variable for variable, _ in gone.eliminated} == {3}


class TestLegacySimplifyRetired:
    def test_simplify_module_is_gone(self):
        # The deprecation shim of the old ``repro.sat.simplify`` module was
        # removed after one PR cycle, and the ``simplify_cnf`` entry point
        # it held went later, with no caller left.
        with pytest.raises(ModuleNotFoundError):
            import repro.sat.simplify  # noqa: F401
