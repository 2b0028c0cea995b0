"""Portfolio solving: race diverse solver configurations, cancel the losers.

The run time of a CDCL solver on a hard instance is notoriously sensitive to
its heuristics -- branching polarity, restart cadence, activity decay, and
whether the formula was preprocessed first.  A *portfolio* exploits that
variance: the same (sub-)problem is handed to several solver configurations
in parallel processes and the first definitive answer (SAT or UNSAT) wins;
the losing processes are cancelled immediately so they release their core.

Two places use this module:

* :func:`solve_portfolio` races a full query (or a single hard cube) across
  :data:`DIVERSE_CONFIGS` -- the ``strategy="portfolio"`` mode of
  :class:`repro.dist.scheduler.WorkScheduler`;
* the cube-and-conquer scheduler assigns each worker process a different
  entry of :data:`DIVERSE_CONFIGS`, so even the cube fan-out benefits from
  heuristic diversity.

All configurations are complete solvers, so any answer is sound; diversity
only changes *which one answers first*.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.deadline import Deadline
from repro.obs import trace as obs_trace
from repro.sat.cnf import CNF, Literal, var_of
from repro.sat.preprocess import PreprocessResult, preprocess
from repro.sat.solver import CDCLSolver, SolverResult, SolverStatus


@dataclass(frozen=True)
class PortfolioConfig:
    """One solver personality raced by the portfolio.

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

    # -- canonical serialization ---------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical, versioned JSON form (every knob explicit)."""
        return {
            "format": 1,
            "name": self.name,
            "var_decay": self.var_decay,
            "clause_decay": self.clause_decay,
            "restart_base": self.restart_base,
            "default_phase": self.default_phase,
            "preprocess": self.preprocess,
            "blocked": self.blocked,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PortfolioConfig":
        """Inverse of :meth:`to_json_dict` (validates the format tag)."""
        if data.get("format", 1) != 1:
            raise ValueError(
                f"unsupported PortfolioConfig format {data.get('format')!r}"
            )
        return cls(
            name=str(data["name"]),
            var_decay=float(data.get("var_decay", 0.95)),
            clause_decay=float(data.get("clause_decay", 0.999)),
            restart_base=int(data.get("restart_base", 100)),
            default_phase=bool(data.get("default_phase", False)),
            preprocess=bool(data.get("preprocess", False)),
            blocked=bool(data.get("blocked", False)),
        )

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


#: The default portfolio: the baseline plus personalities that differ in
#: polarity, restart cadence, activity decay and preprocessing.  Order
#: matters twice over -- the scheduler assigns ``DIVERSE_CONFIGS[i % n]`` to
#: worker ``i`` (worker 0, and therefore every single-worker deterministic
#: run, always gets the baseline; it must stay preprocess-free so the
#: inline path can reuse its solver incrementally), and a portfolio race
#: launches them first to last.  ``preprocessed`` sits at index 1 so the
#: only personality running variable elimination + blocked-clause
#: elimination is exercised by every fan-out of two or more workers, not
#: just five-plus.
DIVERSE_CONFIGS: Tuple[PortfolioConfig, ...] = (
    PortfolioConfig("baseline"),
    PortfolioConfig("preprocessed", preprocess=True, blocked=True),
    PortfolioConfig("positive-phase", default_phase=True),
    PortfolioConfig("rapid-restart", restart_base=16),
    PortfolioConfig("slow-decay", var_decay=0.99),
    PortfolioConfig("agile", var_decay=0.85, restart_base=32, default_phase=True),
)


@dataclass
class PortfolioOutcome:
    """Result of one portfolio race."""

    status: SolverStatus
    model: Optional[List[bool]] = None
    winner: Optional[str] = None
    #: Work counters summed over every personality that *finished* (the
    #: winner included); losers cancelled mid-flight are not observable.
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    #: Duration of the race's ``portfolio.race`` span.
    runtime_seconds: float = 0.0
    #: Status reported by every configuration that finished (losers that
    #: were cancelled mid-flight do not appear).
    finished: Dict[str, str] = field(default_factory=dict)


def _solve_one(
    config: PortfolioConfig,
    clauses: Sequence[Sequence[Literal]],
    num_vars: int,
    assumptions: Sequence[Literal],
    frozen: AbstractSet[int],
    max_conflicts: Optional[int],
    expires_at: Optional[float] = None,
) -> Tuple[SolverResult, Optional[PreprocessResult]]:
    deadline = None if expires_at is None else Deadline(expires_at=expires_at)
    solver, reduction = config.build_solver(clauses, num_vars, frozen)
    result = solver.solve(
        assumptions=list(assumptions),
        max_conflicts=max_conflicts,
        deadline=deadline,
    )
    return result, reduction


def _race_worker(  # fork-entry
    index: int,
    config: PortfolioConfig,
    clauses: Sequence[Sequence[Literal]],
    num_vars: int,
    assumptions: Sequence[Literal],
    frozen: AbstractSet[int],
    max_conflicts: Optional[int],
    results: "multiprocessing.Queue",
    expires_at: Optional[float] = None,
) -> None:
    """Process entry point: solve and report (top-level so it pickles)."""
    # The collector is inherited through the fork like the deadline: spans
    # recorded here carry the parent's trace id, and they ship back with
    # the result, together with the racer's metric delta.
    with obs_trace.capture() as obs_batch:
        racer_span = obs_trace.span("portfolio.racer", config=config.name)
        result, reduction = _solve_one(
            config, clauses, num_vars, assumptions, frozen, max_conflicts,
            expires_at,
        )
        racer_span.close(verdict=result.status.value)
    model = result.model
    if model is not None and reduction is not None:
        model = reduction.extend_model(model)
    results.put(
        (
            index,
            result.status.value,
            model,
            result.stats.conflicts,
            result.stats.decisions,
            result.stats.propagations,
            result.stats.learned_clauses,
            obs_batch,
        )
    )


def solve_portfolio(
    clauses: Sequence[Sequence[Literal]],
    num_vars: int,
    assumptions: Sequence[Literal] = (),
    *,
    configs: Sequence[PortfolioConfig] = DIVERSE_CONFIGS,
    workers: int = 2,
    frozen: AbstractSet[int] = frozenset(),
    max_conflicts: Optional[int] = None,
    poll_seconds: float = 0.02,
    deadline: Optional[Deadline] = None,
) -> PortfolioOutcome:
    """Race the first ``workers`` entries of *configs* on one query.

    The first SAT or UNSAT answer wins and every other process is cancelled.
    UNKNOWN answers (a *max_conflicts* budget expiring) do not win; the race
    ends UNKNOWN only when every configuration exhausted its budget.  With
    ``workers == 1`` the first configuration runs inline -- no processes, no
    scheduling nondeterminism -- which keeps single-worker runs
    deterministic.  ``deadline`` bounds the race by wall clock: every
    racer inherits the same absolute monotonic expiry and answers
    UNKNOWN once it passes.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    raced = list(configs[: max(1, min(workers, len(configs)))])
    expires_at = None if deadline is None else deadline.expires_at
    race_span = obs_trace.span("portfolio.race", racers=len(raced))
    if len(raced) == 1:
        with obs_trace.span("portfolio.racer", config=raced[0].name):
            result, reduction = _solve_one(
                raced[0], clauses, num_vars, assumptions, frozen,
                max_conflicts, expires_at,
            )
        model = result.model
        if model is not None and reduction is not None:
            model = reduction.extend_model(model)
        race_span.close()
        return PortfolioOutcome(
            status=result.status,
            model=model,
            winner=raced[0].name if not result.unknown else None,
            conflicts=result.stats.conflicts,
            decisions=result.stats.decisions,
            propagations=result.stats.propagations,
            learned_clauses=result.stats.learned_clauses,
            runtime_seconds=race_span.seconds,
            finished={raced[0].name: result.status.value},
        )

    context = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    results: "multiprocessing.Queue" = context.Queue()
    processes = [
        context.Process(
            target=_race_worker,
            args=(
                index,
                config,
                clauses,
                num_vars,
                list(assumptions),
                frozen,
                max_conflicts,
                results,
                expires_at,
            ),
            daemon=True,
        )
        for index, config in enumerate(raced)
    ]
    for process in processes:
        process.start()

    outcome = PortfolioOutcome(status=SolverStatus.UNKNOWN)
    finished = 0
    try:
        while finished < len(processes):
            try:
                (
                    index,
                    status_value,
                    model,
                    conflicts,
                    decisions,
                    propagations,
                    learned,
                    obs_batch,
                ) = results.get(timeout=poll_seconds)
            except queue_module.Empty:
                # A worker that died without reporting (OOM kill) must not
                # hang the race forever.
                if all(not p.is_alive() for p in processes) and results.empty():
                    break
                continue
            finished += 1
            obs_trace.absorb(obs_batch)
            status = SolverStatus(status_value)
            outcome.finished[raced[index].name] = status_value
            # Work counters always mean "total work of every finished
            # personality" -- the winner adds to, not replaces, the budget-
            # expired losers already accumulated.
            outcome.conflicts += conflicts
            outcome.decisions += decisions
            outcome.propagations += propagations
            outcome.learned_clauses += learned
            if status is not SolverStatus.UNKNOWN:
                outcome.status = status
                outcome.model = model
                outcome.winner = raced[index].name
                break
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=2.0)
        # Escalate: a racer that survives SIGTERM past the grace period
        # (wedged in a C extension, masked signal) gets SIGKILL rather
        # than leaking as a zombie holding its core.
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        results.close()
        race_span.close()
    outcome.runtime_seconds = race_span.seconds
    return outcome
