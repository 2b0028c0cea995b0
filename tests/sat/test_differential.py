"""Differential testing of the flat-arena CDCL core.

Two oracles keep the solver honest after the arena rewrite:

* a brute-force truth-table enumerator over seeded random CNFs (<= 16
  variables): the CDCL verdict must match exhaustive enumeration exactly,
  and every SAT model must actually satisfy every clause;
* the original formula itself: every learned clause left in the arena must
  be implied by it even after in-place database compactions
  (:meth:`CDCLSolver._reduce_learned`) have deleted and relocated learned
  clauses -- the regression guard for the mark-and-compact bookkeeping.
"""

import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import _F_LEARNED, _HDR, CDCLSolver, SolverStatus


def _random_cnf(seed: int) -> CNF:
    """A seeded random CNF with 3..16 variables (clause ratio ~4.2)."""
    rng = random.Random(seed)
    num_vars = 3 + seed % 14  # 3..16 across the seed sweep
    num_clauses = max(2, int(4.2 * num_vars * rng.uniform(0.6, 1.2)))
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        cnf.add_clause(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return cnf


def _brute_force_satisfiable(cnf: CNF) -> bool:
    """Exhaustive truth-table enumeration (the ground-truth oracle)."""
    num_vars = cnf.num_vars
    clauses = cnf.clauses
    for bits in range(1 << num_vars):
        ok = True
        for clause in clauses:
            satisfied = False
            for lit in clause:
                var = lit if lit > 0 else -lit
                value = (bits >> (var - 1)) & 1
                if (lit > 0) == bool(value):
                    satisfied = True
                    break
            if not satisfied:
                ok = False
                break
        if ok:
            return True
    return False


def _model_satisfies(cnf: CNF, model) -> bool:
    return all(
        any((lit > 0) == model[lit if lit > 0 else -lit] for lit in clause)
        for clause in cnf.clauses
    )


class TestTruthTableDifferential:
    @pytest.mark.parametrize("seed", range(72))
    def test_verdict_and_model_match_enumeration(self, seed):
        cnf = _random_cnf(seed)
        expected = _brute_force_satisfiable(cnf)
        result = CDCLSolver(cnf).solve()
        assert result.status is not SolverStatus.UNKNOWN
        assert result.is_sat == expected, (
            f"seed {seed}: solver said {result.status}, enumeration said "
            f"{'SAT' if expected else 'UNSAT'}"
        )
        if result.is_sat:
            assert result.model is not None
            assert _model_satisfies(cnf, result.model), (
                f"seed {seed}: SAT model does not satisfy the formula"
            )

    @pytest.mark.parametrize("seed", range(0, 72, 6))
    def test_incremental_growth_matches_enumeration(self, seed):
        # Feed the same formula in two halves through the incremental
        # add_clause path; the verdict must still match enumeration.
        cnf = _random_cnf(seed)
        clauses = cnf.clauses
        half = len(clauses) // 2
        prefix = CNF(cnf.num_vars)
        prefix.add_clauses(clauses[:half])
        solver = CDCLSolver(prefix)
        solver.solve()
        solver.add_clauses(clauses[half:])
        result = solver.solve()
        assert result.is_sat == _brute_force_satisfiable(cnf)
        if result.is_sat:
            assert _model_satisfies(cnf, result.model)


def _learned_in_arena(solver: CDCLSolver):
    """The learned clauses currently in the solver's arena, as signed
    literals, in arena order."""
    arena = solver._arena
    learned = []
    offset = 0
    while offset < len(arena):
        size = arena[offset]
        if arena[offset + 1] & _F_LEARNED:
            body = arena[offset + _HDR : offset + _HDR + size]
            learned.append(
                [lit >> 1 if not lit & 1 else -(lit >> 1) for lit in body]
            )
        offset += _HDR + size
    return learned


class TestCompaction:
    def test_learned_clauses_remain_valid_after_reduction(self):
        # A hard-ish random 3-CNF makes the solver learn enough clauses to
        # cross an artificially tiny reduction threshold several times, so
        # database compactions interleave with clause learning.  Every
        # learned clause that survives them must be implied by the original
        # formula -- a compaction that slid a block over the wrong words
        # would surface as a garbage clause here.
        rng = random.Random(1234)
        num_vars = 60
        cnf = CNF(num_vars)
        for _ in range(int(4.4 * num_vars)):
            variables = rng.sample(range(1, num_vars + 1), 3)
            cnf.add_clause(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        solver = CDCLSolver(cnf)
        solver._reduce_threshold = 25  # force frequent compactions
        result = solver.solve(max_conflicts=4000)
        assert solver.stats.learned_clauses > 50, (
            "instance too easy to exercise reduction -- adjust the seed"
        )
        # At least one reduction must actually have removed clauses.
        assert solver.num_learned_clauses < solver.stats.learned_clauses
        learned = _learned_in_arena(solver)
        assert learned and len(learned) == solver.num_learned_clauses
        for clause in learned:
            assert clause, "empty learned clause"
            for lit in clause:
                var = lit if lit > 0 else -lit
                assert 1 <= var <= num_vars, (
                    f"learned clause {clause} references unknown "
                    f"variable {var}"
                )
        # Implication check on a sample: formula AND NOT(clause) is UNSAT
        # for every clause implied by the formula.
        for clause in learned[:40]:
            checker = CDCLSolver(cnf)
            refute = checker.solve(
                assumptions=[-lit for lit in clause]
            )
            assert refute.is_unsat, (
                f"learned clause {clause} is not implied by the clause "
                f"database (solver verdict {refute.status}; original "
                f"verdict {result.status})"
            )
