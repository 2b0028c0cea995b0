"""Work scheduling for a split BMC query: pool, stealing, re-split.

The scheduler owns one *query* (a clause list plus base assumptions, e.g.
"the property-violation window of bound ``k`` is active") and a cube set
from :mod:`repro.dist.cubes` that partitions its search space.  It answers
with the merged verdict:

* **any cube SAT** -- the query is SAT; the model is returned untouched so
  the BMC engine replays the counterexample exactly as in sequential mode;
* **all cubes UNSAT** -- the query is UNSAT (the cube set covers the space,
  so the disjunction argument applies);
* otherwise (a conflict budget expired) -- UNKNOWN.

Scheduling model
================

Every cube runs on the same plain :class:`~repro.sat.solver.CDCLSolver`,
built from the query's clauses by :func:`_build_solver`.
``workers == 1`` runs every cube inline on one long-lived solver, in
deterministic order, with no processes -- learned clauses flow between cubes
through the solver's database, and two runs of the same query are bit-for-bit
identical.  ``workers > 1`` forks a process pool:

* every worker builds its solver once from the query's clauses and then
  *steals* cubes from a shared task queue (idle workers drain whatever is
  left, so an unlucky cube assignment cannot idle the pool);
* a cube whose per-cube conflict budget expires is **re-split** on the next
  ranked look-ahead variable into two child cubes that go back on the queue
  (dynamic cube-and-conquer: hard regions of the space get progressively
  finer cubes); at :data:`MAX_RESPLIT_DEPTH` the cube is solved to
  completion instead.

A pool worker's learned clauses never leave it, so each cube's refutation
rests on the query's clauses and that worker's own learning alone.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.deadline import Deadline
from repro.dist.cubes import Cube, split_cube
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sat.cnf import CNF, Literal, var_of
from repro.sat.solver import CDCLSolver, SolverStatus

#: Depth of the initial look-ahead tree, before :data:`MAX_INITIAL_CUBES`
#: caps it.
LOOKAHEAD_DEPTH = 2
#: Cap on the initial cube count (window ladder x look-ahead tree).
MAX_INITIAL_CUBES = 32
#: Re-split depth at which a cube that overruns its budget is solved to
#: completion instead of split again.
MAX_RESPLIT_DEPTH = 4

#: Crash-recovery policy of the parallel path.  Not ``SplitConfig`` knobs:
#: the config's canonical dict feeds content-addressed cache keys, and a
#: recovery policy must never change what a query *means*.
#: A cube whose worker died this many times is re-split (the cube itself
#: is suspected of tickling the crash) instead of re-enqueued verbatim.
_CRASH_RESPLIT_AFTER = 2
#: Replacement workers spawned per pool before the scheduler gives up and
#: fails safe to UNKNOWN (a crash storm must not respawn forever).
_MAX_RESPAWNS_FACTOR = 2


#: Keys of the canonical dict that name removed settings, at the one value
#: each may still carry: its old default, which the module constants above
#: (and the window-ladder x look-ahead-tree split) now fix.  A dict written
#: before the settings went still loads; any other value would silently
#: mean something else, so it is refused.
_REMOVED_KEYS: Dict[str, object] = {
    "strategy": "auto",
    "lookahead_depth": LOOKAHEAD_DEPTH,
    "max_initial_cubes": MAX_INITIAL_CUBES,
    "max_resplit_depth": MAX_RESPLIT_DEPTH,
    "share_clauses": True,
    "share_max_lbd": 3,
    "share_queue_size": 1024,
    # The six solver personalities pool workers once ran, worker i the
    # (i mod 6)-th; "preprocessed" also ran blocked-clause elimination.
    "configs": [
        {
            "format": 1,
            "name": name,
            "var_decay": var_decay,
            "clause_decay": 0.999,
            "restart_base": restart_base,
            "default_phase": default_phase,
            "preprocess": preprocessed,
            "blocked": preprocessed,
        }
        for name, var_decay, restart_base, default_phase, preprocessed in (
            ("baseline", 0.95, 100, False, False),
            ("preprocessed", 0.95, 100, False, True),
            ("positive-phase", 0.95, 100, True, False),
            ("rapid-restart", 0.95, 16, False, False),
            ("slow-decay", 0.99, 100, False, False),
            ("agile", 0.85, 32, True, False),
        )
    ],
}


@dataclass
class SplitConfig:
    """How to split and schedule one hard BMC query.

    ``workers`` is the process count (1 = inline and deterministic).
    ``cube_conflict_budget`` is the per-cube solver budget before a cube is
    re-split (``None`` disables re-splitting).
    """

    workers: int = 1
    cube_conflict_budget: Optional[int] = 4000
    #: Primary-input name prefixes preferred as split variables -- the QED
    #: harness passes the instruction-port prefix here so cubes partition by
    #: focus-set opcode choice (see
    #: :func:`repro.dist.cubes.select_split_variables`).
    prefer_input_prefixes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    # -- canonical serialization ---------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical, versioned JSON form.

        Every knob is explicit (defaults included) and tuple fields become
        lists -- so two equal configs always produce the same dict and the
        dict round-trips through JSON (``pickle`` already worked; cache keys
        need JSON).
        """
        return {
            "format": 1,
            "workers": self.workers,
            "cube_conflict_budget": self.cube_conflict_budget,
            "prefer_input_prefixes": list(self.prefer_input_prefixes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SplitConfig":
        """Inverse of :meth:`to_json_dict` (validates the format tag).

        A removed key is accepted only at its old default
        (:data:`_REMOVED_KEYS`); any other value raises ``ValueError``.
        """
        if data.get("format", 1) != 1:
            raise ValueError(
                f"unsupported SplitConfig format {data.get('format')!r}"
            )
        for key, default in _REMOVED_KEYS.items():
            if key in data and data[key] != default:
                raise ValueError(
                    f"SplitConfig has no setting {key!r} any more; only its "
                    f"old default is accepted, got {data[key]!r}"
                )
        budget = data.get("cube_conflict_budget", 4000)
        return cls(
            workers=int(data.get("workers", 1)),
            cube_conflict_budget=None if budget is None else int(budget),
            prefer_input_prefixes=tuple(
                str(prefix) for prefix in data.get("prefer_input_prefixes", ())
            ),
        )


@dataclass
class CubeStats:
    """Solver work spent on one cube."""

    literals: Tuple[Literal, ...]
    verdict: str
    depth: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    #: Duration of the cube's ``dist.cube`` span (its solve call).
    runtime_seconds: float = 0.0
    worker: int = 0


@dataclass
class DistStats:
    """Aggregate statistics of one scheduled query."""

    workers: int
    cubes: List[CubeStats] = field(default_factory=list)
    resplits: int = 0
    #: Always 0: pool workers share no clauses.  The benchmark's
    #: ``dist.clauses_shared`` counter still reads it.
    clauses_shared: int = 0
    #: Duration of the query's ``dist.solve`` span.
    wall_seconds: float = 0.0

    @property
    def cubes_total(self) -> int:
        return len(self.cubes)

    @property
    def cubes_sat(self) -> int:
        return sum(1 for c in self.cubes if c.verdict == "sat")

    @property
    def cubes_unsat(self) -> int:
        return sum(1 for c in self.cubes if c.verdict == "unsat")

    @property
    def cubes_unknown(self) -> int:
        return sum(1 for c in self.cubes if c.verdict == "unknown")

    @property
    def conflicts(self) -> int:
        return sum(c.conflicts for c in self.cubes)

    @property
    def decisions(self) -> int:
        return sum(c.decisions for c in self.cubes)

    @property
    def propagations(self) -> int:
        return sum(c.propagations for c in self.cubes)

    @property
    def learned_clauses(self) -> int:
        return sum(c.learned_clauses for c in self.cubes)


@dataclass
class SplitQuery:
    """One SAT query prepared for distribution.

    ``clauses`` is the complete formula (a worker must be able to rebuild
    the solver from it alone); ``assumptions`` the base assumption literals
    applied to every cube (the BMC activation literal); ``cubes`` the
    partition from :mod:`repro.dist.cubes`; ``resplit_vars`` the ranked
    look-ahead variables still unused, consumed in order by dynamic
    re-splitting.  ``max_conflicts`` is the global budget over all cubes --
    exceeded means the merged verdict is UNKNOWN, matching the sequential
    engine's per-query budget semantics.

    ``incremental`` declares that ``clauses`` extends the previous query's
    clause list handed to the same scheduler *by appending only* (the BMC
    engine's per-bound contract: earlier clauses are never edited, the
    formula only grows).  The inline single-worker path then reuses its
    solver across queries -- new clauses are fed through the solver's
    incremental ``add_clause`` and learned clauses carry over between
    bounds, exactly like the sequential engine's solver reuse.  Leave it
    ``False`` (the default) for standalone queries.
    """

    clauses: List[List[Literal]]
    num_vars: int
    assumptions: List[Literal] = field(default_factory=list)
    cubes: List[Cube] = field(default_factory=lambda: [Cube(())])
    resplit_vars: List[int] = field(default_factory=list)
    max_conflicts: Optional[int] = None
    incremental: bool = False


@dataclass
class DistResult:
    """Merged outcome of one scheduled query."""

    status: SolverStatus
    model: Optional[List[bool]] = None
    stats: DistStats = field(default_factory=lambda: DistStats(1))

    @property
    def is_sat(self) -> bool:
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolverStatus.UNSAT

    @property
    def unknown(self) -> bool:
        return self.status is SolverStatus.UNKNOWN


def _next_resplit_var(cube: Cube, resplit_vars: Sequence[int]) -> Optional[int]:
    """The first ranked look-ahead variable the cube does not constrain."""
    used = {var_of(lit) for lit in cube.literals}
    for variable in resplit_vars:
        if variable not in used:
            return variable
    return None


class WorkScheduler:
    """Fan one :class:`SplitQuery` out over cubes and worker processes.

    A scheduler instance may be kept across queries: when consecutive
    queries declare :attr:`SplitQuery.incremental`, the inline
    single-worker path keeps one CDCL solver alive and feeds it only the
    clauses appended since the previous query, so learned clauses, variable
    activities and saved phases carry across BMC bounds instead of being
    rebuilt from scratch per bound.
    """

    def __init__(self, config: Optional[SplitConfig] = None) -> None:
        self.config = config or SplitConfig()
        #: Inline-path solver kept across incremental queries, and how many
        #: clauses of the (growing) query clause list it has been fed.
        self._inline_solver = None
        self._inline_clauses_fed = 0

    # ------------------------------------------------------------------
    def solve(
        self,
        query: SplitQuery,
        *,
        deadline: Optional[Deadline] = None,
    ) -> DistResult:
        """Answer *query*; ``deadline`` bounds it by wall clock.

        Workers inherit the *remaining* budget per cube: the deadline is
        an absolute monotonic instant, so forked children compare against
        the same clock and stop their solve calls in place.  Expiry
        merges to UNKNOWN, never to a flipped verdict.
        """
        config = self.config
        # The dist.solve span is open while workers fork, so every cube
        # worker inherits it on its collector stack -- shipped worker
        # spans parent under it with the same trace id.
        with obs_trace.span("dist.solve", workers=config.workers) as dist_span:
            if config.workers == 1:
                result = self._solve_sequential(query, deadline)
            else:
                result = self._solve_parallel(query, deadline)
            dist_span.set(
                status=result.status.value,
                cubes=len(result.stats.cubes),
                resplits=result.stats.resplits,
            )
        result.stats.wall_seconds = dist_span.seconds
        registry = obs_metrics.process_metrics()
        registry.inc("qed_cubes_total", len(result.stats.cubes))
        if result.stats.resplits:
            registry.inc("qed_resplits_total", result.stats.resplits)
        return result

    # ------------------------------------------------------------------
    def _solve_sequential(
        self, query: SplitQuery, deadline: Optional[Deadline] = None
    ) -> DistResult:
        """Inline cube loop: one solver, deterministic order, no processes.

        Every learned clause stays in the solver's database for the
        following cubes.  Across :attr:`SplitQuery.incremental` queries the
        solver itself is reused (only the appended clause tail is fed), so
        learned clauses also carry across bounds.
        """
        solver = self._inline_solver_for(query)
        stats = DistStats(workers=1)
        pending = deque((cube, False) for cube in query.cubes)
        spent = 0
        unknown_final = 0
        while pending:
            if deadline is not None and deadline.expired():
                # Out of wall clock with cubes still open: the partition
                # is incomplete, so the only sound merge is UNKNOWN.
                return DistResult(SolverStatus.UNKNOWN, stats=stats)
            cube, unbudgeted = pending.popleft()
            budget = None if unbudgeted else self._dispatch_budget(query, spent)
            cube_span = obs_trace.span(
                "dist.cube", depth=cube.depth, literals=len(cube.literals)
            )
            result = solver.solve(
                assumptions=query.assumptions + list(cube.literals),
                max_conflicts=budget,
                deadline=deadline,
            )
            cube_span.close(
                verdict=result.status.value,
                conflicts=result.stats.conflicts,
            )
            spent += result.stats.conflicts
            record = CubeStats(
                literals=cube.literals,
                verdict=result.status.value,
                depth=cube.depth,
                conflicts=result.stats.conflicts,
                decisions=result.stats.decisions,
                propagations=result.stats.propagations,
                learned_clauses=result.stats.learned_clauses,
                runtime_seconds=cube_span.seconds,
            )
            stats.cubes.append(record)
            if result.is_sat:
                return DistResult(
                    SolverStatus.SAT, model=result.model, stats=stats
                )
            if result.is_unsat:
                # A proof stands even when this cube's conflicts exhausted
                # the global budget (the remaining cubes, if any, get a
                # zero-conflict attempt that can still refute trivially).
                continue
            # Budget expired on this cube.
            if query.max_conflicts is not None and spent >= query.max_conflicts:
                return DistResult(SolverStatus.UNKNOWN, stats=stats)
            variable = (
                _next_resplit_var(cube, query.resplit_vars)
                if cube.depth < MAX_RESPLIT_DEPTH
                else None
            )
            if variable is not None:
                left, right = split_cube(cube, variable)
                # Depth-first: children go to the front so the solver's
                # learned clauses and phases stay relevant to them.
                pending.appendleft((right, False))
                pending.appendleft((left, False))
                stats.resplits += 1
                obs_trace.event(
                    "dist.resplit", depth=cube.depth, variable=variable
                )
            elif query.max_conflicts is None:
                # No global budget to respect and no split variable left:
                # re-queue unbudgeted and solve the cube to completion.
                pending.appendleft((cube, True))
            else:
                unknown_final += 1
        if unknown_final:
            return DistResult(SolverStatus.UNKNOWN, stats=stats)
        return DistResult(SolverStatus.UNSAT, stats=stats)

    # ------------------------------------------------------------------
    def _inline_solver_for(self, query: SplitQuery) -> CDCLSolver:
        """Build the inline-path solver, or reuse the previous query's.

        Reuse requires the query to declare the append-only clause contract
        (:attr:`SplitQuery.incremental`).  The reused solver is grown with
        ``ensure_num_vars`` and fed the clause tail through the incremental
        ``add_clause`` path; everything it learned in earlier queries is
        implied by the (monotonically growing) clause database, so carrying
        it over is sound.
        """
        solver = self._inline_solver
        if (
            query.incremental
            and solver is not None
            and len(query.clauses) >= self._inline_clauses_fed
        ):
            solver.ensure_num_vars(query.num_vars)
            clauses = query.clauses
            for index in range(self._inline_clauses_fed, len(clauses)):
                solver.add_clause(clauses[index])
            self._inline_clauses_fed = len(clauses)
            return solver
        solver = _build_solver(query.clauses, query.num_vars)
        if query.incremental:
            self._inline_solver = solver
            self._inline_clauses_fed = len(query.clauses)
        else:
            # Any rebuild that is not itself cacheable invalidates the
            # cache: a later incremental query's clause list extends *its
            # predecessor*, not whatever an older cached solver was built
            # from, so reusing the stale solver could mix two formulas.
            self._inline_solver = None
            self._inline_clauses_fed = 0
        return solver

    # ------------------------------------------------------------------
    def _dispatch_budget(self, query: SplitQuery, spent: int) -> Optional[int]:
        """Per-cube conflict budget for a dispatch after *spent* conflicts.

        The per-cube budget never exceeds what is left of the query's global
        budget (matching the sequential path), so a single cube cannot
        silently burn past ``max_conflicts`` even when
        ``cube_conflict_budget`` is ``None``.
        """
        budget = self.config.cube_conflict_budget
        if query.max_conflicts is not None:
            remaining = max(0, query.max_conflicts - spent)
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def _solve_parallel(
        self, query: SplitQuery, deadline: Optional[Deadline] = None
    ) -> DistResult:
        config = self.config
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        tasks: "multiprocessing.Queue" = context.Queue()
        results: "multiprocessing.Queue" = context.Queue()
        stop = context.Event()
        expires_at = None if deadline is None else deadline.expires_at
        # Multiset of cubes currently owned by the pool (queued or being
        # solved), keyed by (literals, depth).  Crash recovery re-enqueues
        # a dead worker's in-flight cube, and this bookkeeping is what
        # makes the race benign: if the "lost" result was actually in the
        # queue buffer, the duplicate completion later finds its key
        # already closed and is ignored instead of double-closing
        # ``outstanding`` (which would let the loop exit with an open
        # cube and merge an unsound UNSAT).
        open_cubes: Dict[Tuple[Tuple[Literal, ...], int], int] = {}

        def put_task(
            literals: Tuple[Literal, ...],
            depth: int,
            budget: Optional[int],
            *,
            new: bool,
        ) -> None:
            if new:
                key = (literals, depth)
                open_cubes[key] = open_cubes.get(key, 0) + 1
            tasks.put((literals, depth, budget))

        for cube in query.cubes:
            put_task(
                tuple(cube.literals),
                cube.depth,
                self._dispatch_budget(query, 0),
                new=True,
            )
        # Without a cube budget the cube count is fixed, so extra workers
        # would only build solvers to idle; with re-splitting enabled the
        # cube population can outgrow the initial set, so the full requested
        # pool is started even for a single seed cube.
        if config.cube_conflict_budget is None:
            workers = min(config.workers, max(1, len(query.cubes)))
        else:
            workers = config.workers

        # Per-worker in-flight announcements travel over dedicated pipes,
        # NOT the results queue: ``Connection.send`` is synchronous (no
        # feeder thread), so a worker that is SIGKILLed right after
        # announcing a cube cannot lose the announcement the way an
        # ``mp.Queue.put`` buffered in the feeder thread can be lost.
        announces: List["multiprocessing.connection.Connection"] = []
        processes: List["multiprocessing.process.BaseProcess"] = []
        inflight: List[Optional[Tuple[Tuple[Literal, ...], int, Optional[int]]]] = []

        def spawn(worker_id: int) -> None:
            recv_conn, send_conn = context.Pipe(False)
            process = context.Process(
                target=_pool_worker,
                args=(
                    worker_id,
                    query,
                    tasks,
                    results,
                    stop,
                    send_conn,
                    expires_at,
                ),
                daemon=True,
            )
            process.start()
            send_conn.close()
            if worker_id < len(processes):
                announces[worker_id].close()
                announces[worker_id] = recv_conn
                processes[worker_id] = process
                inflight[worker_id] = None
            else:
                announces.append(recv_conn)
                processes.append(process)
                inflight.append(None)

        for worker_id in range(workers):
            spawn(worker_id)

        stats = DistStats(workers=workers)
        outstanding = len(query.cubes)
        spent = 0
        unknown_final = 0
        respawns = 0
        max_respawns = _MAX_RESPAWNS_FACTOR * workers
        crash_counts: Dict[Tuple[Tuple[Literal, ...], int], int] = {}
        status = SolverStatus.UNSAT
        model: Optional[List[bool]] = None

        def drain_announcements() -> None:
            for worker_id, conn in enumerate(announces):
                while True:
                    try:
                        if not conn.poll():
                            break
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        break
                    if kind == "taken":
                        inflight[worker_id] = payload
                    else:  # "done"
                        inflight[worker_id] = None

        def recover_dead_workers() -> bool:
            """Re-enqueue lost cubes and respawn; False = give up."""
            nonlocal respawns, outstanding
            dead = [
                worker_id
                for worker_id, process in enumerate(processes)
                if process.exitcode is not None
            ]
            if not dead:
                return True
            drain_announcements()
            for worker_id in dead:
                lost = inflight[worker_id]
                inflight[worker_id] = None
                if lost is not None:
                    literals, depth, budget = lost
                    key = (literals, depth)
                    if open_cubes.get(key, 0) <= 0:
                        # Its result actually made it out before the
                        # crash; nothing to recover.
                        lost = None
                    else:
                        crash_counts[key] = crash_counts.get(key, 0) + 1
                if lost is not None:
                    literals, depth, budget = lost
                    key = (literals, depth)
                    cube = Cube(literals, depth)
                    variable = (
                        _next_resplit_var(cube, query.resplit_vars)
                        if crash_counts[key] >= _CRASH_RESPLIT_AFTER
                        and depth < MAX_RESPLIT_DEPTH
                        else None
                    )
                    if variable is not None:
                        # The cube itself is suspected of provoking the
                        # crash (two workers died on it): split it so the
                        # children present different search spaces.
                        open_cubes[key] -= 1
                        left, right = split_cube(cube, variable)
                        put_task(
                            tuple(left.literals), left.depth, budget, new=True
                        )
                        put_task(
                            tuple(right.literals), right.depth, budget, new=True
                        )
                        stats.resplits += 1
                        obs_trace.event(
                            "dist.resplit",
                            depth=cube.depth,
                            variable=variable,
                            reason="crash",
                        )
                        outstanding += 1
                    else:
                        # Same open cube instance, back on the queue:
                        # not ``new`` (its open_cubes slot is still held).
                        put_task(literals, depth, budget, new=False)
                if respawns >= max_respawns:
                    return False
                respawns += 1
                obs_trace.event("dist.worker_respawn", worker=worker_id)
                spawn(worker_id)
            return True

        try:
            while outstanding > 0:
                if deadline is not None and deadline.expired():
                    # Wall clock exhausted with cubes still open: stop
                    # dispatching and merge to UNKNOWN (workers notice
                    # the same absolute deadline inside their solve
                    # calls and drain quickly).
                    status = SolverStatus.UNKNOWN
                    break
                drain_announcements()
                try:
                    message = results.get(timeout=0.1)
                except queue_module.Empty:
                    # A worker only exits before `stop` if it crashed (OOM
                    # kill, unhandled exception).  Its in-flight cube, if
                    # any, was announced over the pipe: re-enqueue it (or
                    # re-split it when this cube keeps killing workers)
                    # and spawn a replacement, so verdicts stay
                    # worker-crash-independent.  Only a crash *storm*
                    # (respawn cap hit) fails safe to UNKNOWN.
                    if not recover_dead_workers():
                        status = SolverStatus.UNKNOWN
                        break
                    continue
                (
                    worker_id,
                    literals,
                    depth,
                    verdict,
                    cube_model,
                    work,
                    runtime,
                    obs_batch,
                ) = message
                # The cube's spans, events and metric delta merge into this
                # process: span ids are pid-prefixed and their parents are
                # spans the collector already holds (inherited across the
                # fork), so the cube subtree lands under the open
                # dist.solve span.
                obs_trace.absorb(obs_batch)
                literals = tuple(literals)
                key = (literals, depth)
                if verdict != "sat" and open_cubes.get(key, 0) <= 0:
                    # Stale duplicate of a cube that was already closed
                    # (its "lost" pre-crash result survived after all and
                    # the recovery re-run also finished).  A SAT verdict
                    # is still accepted -- a model is a model.
                    continue
                if open_cubes.get(key, 0) > 0:
                    open_cubes[key] -= 1
                record = CubeStats(
                    literals=literals,
                    verdict=verdict,
                    depth=depth,
                    conflicts=work[0],
                    decisions=work[1],
                    propagations=work[2],
                    learned_clauses=work[3],
                    runtime_seconds=runtime,
                    worker=worker_id,
                )
                stats.cubes.append(record)
                spent += work[0]
                over_budget = (
                    query.max_conflicts is not None
                    and spent >= query.max_conflicts
                )
                if verdict == "sat":
                    status = SolverStatus.SAT
                    model = cube_model
                    break
                if verdict == "unsat":
                    # Book-keeping first: a query whose *last* cube is UNSAT
                    # is proven even when that cube's conflicts exhausted the
                    # global budget (the sequential path agrees).
                    outstanding -= 1
                elif over_budget:
                    unknown_final += 1
                    outstanding -= 1
                else:
                    # UNKNOWN within budget: re-split or finish the cube.
                    cube = Cube(literals, depth)
                    variable = (
                        _next_resplit_var(cube, query.resplit_vars)
                        if depth < MAX_RESPLIT_DEPTH
                        else None
                    )
                    if variable is not None:
                        left, right = split_cube(cube, variable)
                        child_budget = self._dispatch_budget(query, spent)
                        put_task(
                            tuple(left.literals),
                            left.depth,
                            child_budget,
                            new=True,
                        )
                        put_task(
                            tuple(right.literals),
                            right.depth,
                            child_budget,
                            new=True,
                        )
                        stats.resplits += 1
                        obs_trace.event(
                            "dist.resplit",
                            depth=depth,
                            variable=variable,
                            reason="budget",
                        )
                        outstanding += 1
                    elif query.max_conflicts is None:
                        # Solve to completion (no budget).
                        put_task(literals, depth, None, new=True)
                    else:
                        unknown_final += 1
                        outstanding -= 1
                # When the global budget is exhausted the loop keeps
                # draining: queued cubes still run (their dispatch budgets
                # were capped at what the budget allowed at dispatch time)
                # and may refute cheaply, so a fully-refuted cube set still
                # merges to UNSAT instead of abandoning in-flight proofs as
                # UNKNOWN.  Re-splitting stops (the branch above), so the
                # queue drains and the loop terminates.
            else:
                status = (
                    SolverStatus.UNKNOWN if unknown_final else SolverStatus.UNSAT
                )
        finally:
            stop.set()
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=2.0)
            # Escalate: a worker wedged in uninterruptible state (or with
            # SIGTERM masked by a C extension) must not leak past teardown.
            for process in processes:
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            for conn in announces:
                conn.close()
            for q in (tasks, results):
                q.close()
                q.cancel_join_thread()
        # Stable ordering for reporting: completion order is racy.
        stats.cubes.sort(key=lambda c: (c.depth, c.literals))
        return DistResult(status=status, model=model, stats=stats)


def _build_solver(
    clauses: Sequence[Sequence[Literal]], num_vars: int
) -> CDCLSolver:
    """The solver every cube runs on: plain CDCL over the query's clauses."""
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(list(clause))
    return CDCLSolver(cnf)


def _pool_worker(  # fork-entry
    worker_id: int,
    query: SplitQuery,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
    stop: "multiprocessing.synchronize.Event",
    announce: Optional["multiprocessing.connection.Connection"] = None,
    expires_at: Optional[float] = None,
) -> None:
    """Worker process: build one solver, then steal cubes until stopped.

    Each task carries its own conflict budget (``None`` = solve to
    completion), assigned by the scheduler at dispatch time so it reflects
    what is left of the query's global budget.

    ``announce`` is the crash-recovery pipe: the worker synchronously
    announces each cube before solving it ("taken") and after reporting
    it ("done"), so the scheduler knows exactly which cube died with a
    killed worker.  ``expires_at`` is the inherited absolute monotonic
    deadline (the fork shares the parent's clock), applied to every
    solve call.
    """
    deadline = None if expires_at is None else Deadline(expires_at=expires_at)
    # The collector (if any) arrived through the fork memory snapshot with
    # the parent's trace id and its open span stack -- this worker's spans
    # parent under the span that was open at fork time (dist.solve), and
    # its heartbeats carry the worker index.  Each cube's capture ships
    # them home with the cube result.
    collector = obs_trace.active()
    if collector is not None:
        collector.set_heartbeat_context(worker=worker_id)
    solver = _build_solver(query.clauses, query.num_vars)
    while not stop.is_set():
        try:
            literals, depth, budget = tasks.get(timeout=0.05)
        except queue_module.Empty:
            continue
        with obs_trace.capture() as obs_batch:
            if announce is not None:
                try:
                    announce.send(("taken", (literals, depth, budget)))
                except (BrokenPipeError, OSError):
                    pass
            # Chaos-harness injection point: a seeded "kill" here dies with
            # the cube announced but unreported -- the exact window the
            # scheduler's recovery path must cover.
            faults.crash_point("dist.scheduler.cube")
            cube_span = obs_trace.span(
                "dist.cube", worker=worker_id, depth=depth, literals=len(literals)
            )
            result = solver.solve(
                assumptions=query.assumptions + list(literals),
                max_conflicts=budget,
                deadline=deadline,
            )
            cube_span.close(
                verdict=result.status.value, conflicts=result.stats.conflicts
            )
        results.put(
            (
                worker_id,
                tuple(literals),
                depth,
                result.status.value,
                result.model,
                (
                    result.stats.conflicts,
                    result.stats.decisions,
                    result.stats.propagations,
                    result.stats.learned_clauses,
                ),
                cube_span.seconds,
                obs_batch,
            )
        )
        if announce is not None:
            try:
                announce.send(("done", None))
            except (BrokenPipeError, OSError):
                pass
