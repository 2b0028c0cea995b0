"""Solver personalities: one per cube worker, for heuristic diversity.

The run time of a CDCL solver on a hard instance is notoriously sensitive to
its heuristics -- branching polarity, restart cadence, activity decay, and
whether the formula was preprocessed first.  The cube-and-conquer scheduler
(:mod:`repro.dist.scheduler`) exploits that variance: worker ``i`` builds
its solver under ``DIVERSE_CONFIGS[i % n]``, so the workers attack their
cubes with different heuristics instead of all stalling on the same ones.

Every personality is a complete solver, so any answer is sound; diversity
only changes *how fast* a cube is answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, Literal
from repro.sat.preprocess import PreprocessResult, preprocess
from repro.sat.solver import CDCLSolver


@dataclass(frozen=True)
class PortfolioConfig:
    """One solver personality of a cube worker.

    ``preprocess`` runs the SatELite-style reduction on the formula before
    the solver is built (the *frozen* set must then protect every variable
    the caller reads back -- assumption, input and window-root variables);
    ``blocked`` additionally enables blocked-clause elimination, which is
    sound here because a worker preprocesses the *whole* formula (the one
    place BCE is allowed, see :func:`repro.sat.preprocess.preprocess`).
    Models are repaired/extended over the removed structure before they
    leave the worker, so callers always see the original variable space.
    """

    name: str
    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_base: int = 100
    default_phase: bool = False
    preprocess: bool = False
    blocked: bool = False

    def build_solver(
        self,
        clauses: Sequence[Sequence[Literal]],
        num_vars: int,
        frozen: AbstractSet[int] = frozenset(),
    ) -> Tuple[CDCLSolver, Optional[PreprocessResult]]:
        """Construct a solver for *clauses* under this configuration.

        Returns the solver and the preprocessing result (``None`` when
        ``preprocess`` is off); pass SAT models through
        :meth:`~repro.sat.preprocess.PreprocessResult.extend_model` to map
        them back to the original variable space.
        """
        reduction: Optional[PreprocessResult] = None
        if self.preprocess:
            reduction = preprocess(
                clauses, frozen=frozen, enable_blocked=self.blocked
            )
            clauses = reduction.clauses
        cnf = CNF(num_vars)
        for clause in clauses:
            cnf.add_clause(list(clause))
        solver = CDCLSolver(
            cnf,
            restart_base=self.restart_base,
            var_decay=self.var_decay,
            clause_decay=self.clause_decay,
            default_phase=self.default_phase,
        )
        return solver, reduction


#: The worker personalities: the baseline plus personalities that differ in
#: polarity, restart cadence, activity decay and preprocessing.  The
#: scheduler assigns ``DIVERSE_CONFIGS[i % n]`` to worker ``i``, so order
#: matters.  Index 0 -- worker 0, and the inline ``workers=1`` cube loop --
#: is the baseline; it must stay preprocess-free so the inline loop can
#: reuse its solver incrementally across bounds.  ``preprocessed`` sits at
#: index 1 so the only personality running variable elimination +
#: blocked-clause elimination is exercised by every fan-out of two or more
#: workers, not just five-plus.
DIVERSE_CONFIGS: Tuple[PortfolioConfig, ...] = (
    PortfolioConfig("baseline"),
    PortfolioConfig("preprocessed", preprocess=True, blocked=True),
    PortfolioConfig("positive-phase", default_phase=True),
    PortfolioConfig("rapid-restart", restart_base=16),
    PortfolioConfig("slow-decay", var_decay=0.99),
    PortfolioConfig("agile", var_decay=0.85, restart_base=32, default_phase=True),
)
