"""The bounded model checking loop.

:class:`BoundedModelChecker` searches for a violation of a safety property
within a bounded number of cycles, walking a schedule of increasing bounds.
The search is *genuinely incremental*: one :class:`~repro.expr.cnfgen.CNFBuilder`
and one :class:`~repro.sat.solver.CDCLSolver` stay alive for the whole run.

Pipeline stages
===============

Every query the solver answers has passed through the full formula-reduction
pipeline; per bound the stages are:

1. **AIG rewrite** -- the unroller blasts the new time-frames into the shared
   :class:`~repro.expr.aig.AIG`, where constant folding, structural hashing
   and local two-level rewriting (contradiction, absorption, substitution,
   shared-child merging) shrink the graph as it is built.  Input pins are
   applied before this stage: every input bit that a single-cycle
   assumption (``only_cycle``) fixes through a top-level conjunct (see
   :func:`~repro.bmc.property.input_pins`) is unrolled as a constant, so
   it folds through the logic it drives.  The assumption is still asserted
   below like any other; only its encoding moves.  A query with pinned
   bits is unrolled on demand: only what the property window and the
   assumptions read is blasted (see :mod:`repro.bmc.unroller`).
2. **Cone of influence** -- only the cone of the violation-window roots (plus
   the environmental assumptions whose support intersects it, computed via
   :meth:`~repro.expr.aig.AIG.cone_inputs` to a fixpoint) is carried further;
   frame outputs and assumptions outside the cone are never encoded.
3. **Tseitin** -- :class:`~repro.expr.cnfgen.CNFBuilder` translates exactly
   the not-yet-encoded part of that cone on top of the shared
   node-to-variable map.
4. **CNF preprocessing** -- the newly encoded clause slab is reduced by
   :func:`repro.sat.preprocess.preprocess` (bounded variable elimination,
   subsumption, self-subsuming resolution, failed-literal probing) with the
   *frozen* set protecting activation literals, input/frame-interface
   variables and the window roots, so it composes with incrementality.
5. **Incremental solve** -- the reduced slab is fed to the long-lived
   :class:`~repro.sat.solver.CDCLSolver` and the window is solved under an
   activation-literal assumption; learned clauses carry across bounds.

With :attr:`BMCProblem.split` set, stage 5 is replaced by the **distributed
proof engine** (:mod:`repro.dist`): the window query is partitioned into
cubes -- the property-window ladder times a look-ahead tree over scored
split variables -- which an inline cube loop (``workers=1``) or a
worker-process pool solves (each worker's solver learns only for itself),
re-splitting cubes that overrun their budget.  All cubes UNSAT retires the
window exactly as a sequential UNSAT does; any SAT cube's model is replayed
into a counterexample exactly as a sequential model is.  Stages 1-4 are
shared between both paths.

Window encoding
===============

Per bound ``k`` the engine

1. unrolls only the time-frames that do not exist yet and Tseitin-encodes
   just their logic on top of the shared node-to-variable map (frames encoded
   for earlier bounds are never re-encoded),
2. adds the environmental assumptions of the new frames whose support
   intersects the property cone as permanent unit clauses (they hold at
   every bound),
3. builds a *violation window* -- "the property fails at some frame in
   ``[w, k)``", where ``w`` is the first frame not yet proven safe -- and
   guards it behind a fresh activation literal ``a_k`` via the clause
   ``(-a_k OR violated)``,
4. asks the shared solver for a model under the assumption ``a_k``.

On UNSAT the activation literal is retired with the permanent unit ``-a_k``,
and -- because the earlier bounds already proved no trace violates the
property before ``w`` -- every frame in the window is now known safe in *all*
traces, so ``property@frame`` is asserted permanently and strengthens later
queries.  Learned clauses are implied by the clause database alone (never by
the per-call assumptions), so they carry across bounds; :class:`BMCResult`
reports the per-bound counts so the reuse is observable.

The window formulation also makes sparse ``bound_schedule``s sound: a
schedule of ``[4, 8]`` checks frames ``0..3`` in the first query and frames
``4..7`` in the second, instead of silently skipping the frames between the
scheduled bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bmc.property import Assumption, InputPins, SafetyProperty, input_pins
from repro.deadline import Deadline
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.bmc.trace import CounterexampleTrace, property_holds_at, replay_inputs
from repro.bmc.unroller import SYMBOLIC, Unroller
from repro.dist.cubes import (
    binary_cubes,
    ladder_cubes,
    product_cubes,
    select_split_variables,
)
from repro.dist.scheduler import (
    LOOKAHEAD_DEPTH,
    MAX_INITIAL_CUBES,
    MAX_RESPLIT_DEPTH,
    DistResult,
    DistStats,
    SplitConfig,
    SplitQuery,
    WorkScheduler,
)
from repro.expr.cnfgen import CNFBuilder
from repro.rtl.design import Design
from repro.sat.cnf import CNF, var_of
from repro.sat.preprocess import (
    EliminationRecord,
    PreprocessStats,
    extend_model,
    preprocess,
)
from repro.sat.solver import CDCLSolver, SolverResult


class BMCStatus(Enum):
    """Outcome of a bounded model checking run."""

    VIOLATION = "violation"
    NO_VIOLATION_WITHIN_BOUND = "no_violation_within_bound"


@dataclass
class BoundStats:
    """Solver work, cone and slab sizes of one bound's query.

    A run's bounds are :attr:`BMCResult.per_bound_stats`.  A served job's
    clients see each bound as the engine's ``bound`` heartbeat on
    ``/jobs/<id>/telemetry`` and as its ``bmc.bound`` span in
    ``/jobs/<id>/trace``.
    """

    bound: int
    #: First frame of the violation window ( == bound - 1 for a dense
    #: schedule past the property's start cycle).
    window_start: int
    #: Duration of the bound's ``bmc.bound`` span: encoding, cone analysis,
    #: preprocessing and the query (0.0 for a bound a deadline stopped).
    runtime_seconds: float
    #: "sat", "unsat", "unknown", or "skipped" (no query was needed because
    #: the property is not enforced yet at this bound).
    verdict: str
    #: Wall-clock spent inside the SAT solver (or the distributed
    #: scheduler) answering this bound's query -- excludes frame encoding,
    #: cone-of-influence analysis and slab preprocessing, so
    #: ``propagations / solve_seconds`` is a pure solver-throughput number.
    #: Read off the ``bmc.solve`` span (solve and deferred re-solve), or
    #: summed over the ``dist.solve`` spans of a split query.
    solve_seconds: float = 0.0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    #: Clauses learned while answering this bound's query.
    learned_clauses: int = 0
    #: Learned clauses alive in the shared database after this bound --
    #: i.e. the clauses the *next* bound starts from.  A growing number
    #: here is the signature of cross-bound reuse.
    learned_clauses_carried: int = 0
    #: AIG nodes in the cone of influence of this bound's window roots.
    cone_nodes: int = 0
    #: Environmental assumptions asserted (in the cone) vs. deferred.
    assumptions_asserted: int = 0
    assumptions_deferred: int = 0
    #: Clause count of the newly encoded slab before/after preprocessing.
    slab_clauses_before: int = 0
    slab_clauses_after: int = 0
    #: CNF preprocessing work on this bound's slab (see
    #: :class:`repro.sat.preprocess.PreprocessStats`); ``None`` when
    #: preprocessing was disabled or skipped.
    preprocess: Optional[PreprocessStats] = None
    #: Per-cube statistics of the distributed proof engine (see
    #: :class:`repro.dist.scheduler.DistStats`); ``None`` for a sequential
    #: (in-process) query.
    dist: Optional[DistStats] = None

    @property
    def variables_eliminated(self) -> int:
        """Variables removed from this bound's slab by preprocessing."""
        return self.preprocess.variables_eliminated if self.preprocess else 0

    @property
    def clauses_subsumed(self) -> int:
        """Clauses removed from this bound's slab by subsumption."""
        return self.preprocess.clauses_subsumed if self.preprocess else 0


@dataclass
class BMCResult:
    """Result of a bounded model checking run."""

    status: BMCStatus
    property_name: str
    bound_reached: int
    #: Duration of the ``bmc.run`` span (bound loop and counterexample replay).
    runtime_seconds: float
    counterexample: Optional[CounterexampleTrace] = None
    per_bound_stats: List[BoundStats] = field(default_factory=list)
    #: True when a wall-clock :class:`repro.deadline.Deadline` stopped the
    #: bound loop before the schedule was exhausted.  The stopped bound is
    #: still reported in :attr:`per_bound_stats` with ``verdict="unknown"``
    #: (zero solver work), so downstream "all bounds definitive?" checks
    #: (e.g. ``qed_definitive``) can never mistake a truncated run for a
    #: completed proof.
    deadline_expired: bool = False

    @property
    def found_violation(self) -> bool:
        """Whether a counterexample was found."""
        return self.status is BMCStatus.VIOLATION

    @property
    def counterexample_length(self) -> int:
        """Length (in cycles) of the counterexample (0 when none)."""
        return self.counterexample.length if self.counterexample else 0

    @property
    def total_conflicts(self) -> int:
        """Conflicts summed over every bound's query."""
        return sum(stats.conflicts for stats in self.per_bound_stats)

    @property
    def total_learned_clauses(self) -> int:
        """Clauses learned across the whole run."""
        return sum(stats.learned_clauses for stats in self.per_bound_stats)

    @property
    def total_propagations(self) -> int:
        """Unit propagations summed over every bound's query."""
        return sum(stats.propagations for stats in self.per_bound_stats)

    @property
    def solve_seconds(self) -> float:
        """Wall-clock spent inside the solver, summed over every bound.

        Excludes encoding, cone analysis and preprocessing.
        """
        return sum(stats.solve_seconds for stats in self.per_bound_stats)

    @property
    def learned_clauses_reused(self) -> int:
        """Learned clauses each query inherited from earlier bounds, summed.

        Zero for a single-bound run or a run that never reuses anything;
        strictly positive as soon as one query starts from a predecessor's
        learned clauses.
        """
        reused = 0
        previous = 0
        for stats in self.per_bound_stats:
            if stats.verdict != "skipped":
                reused += previous
            previous = stats.learned_clauses_carried
        return reused

    @property
    def variables_eliminated(self) -> int:
        """Variables removed by CNF preprocessing across all bounds."""
        return sum(s.variables_eliminated for s in self.per_bound_stats)

    @property
    def clauses_subsumed(self) -> int:
        """Clauses removed by subsumption across all bounds."""
        return sum(s.clauses_subsumed for s in self.per_bound_stats)

    @property
    def preprocess_seconds(self) -> float:
        """Wall-clock spent inside CNF preprocessing across all bounds."""
        return sum(
            s.preprocess.time_seconds
            for s in self.per_bound_stats
            if s.preprocess is not None
        )

    @property
    def cubes_solved(self) -> int:
        """Cubes answered by the distributed engine across all bounds."""
        return sum(
            s.dist.cubes_total for s in self.per_bound_stats if s.dist
        )

    @property
    def cubes_resplit(self) -> int:
        """Dynamic re-splits performed across all bounds."""
        return sum(s.dist.resplits for s in self.per_bound_stats if s.dist)

    @property
    def frames_proven(self) -> int:
        """Frames proven safe in every trace by the chain of UNSAT windows.

        This is the depth metric of conflict-budget ablations: under a fixed
        ``max_conflicts_per_query`` a smaller formula lets the engine retire
        windows (and therefore prove frames) deeper before the budget bites.

        An UNKNOWN bound does not cap the metric: its unproven frames fold
        into the next window (``window_start`` stays put), so a later UNSAT
        answer retires them too -- ``[unsat@2, unknown@4, unsat@6]`` proves
        all six frames.
        """
        proven = 0
        for stats in self.per_bound_stats:
            if stats.verdict in ("unsat", "skipped"):
                proven = stats.bound
        return proven


@dataclass
class BMCProblem:
    """A design plus the property and assumptions to check.

    The engine always uses the windowed incremental encoding: per scheduled
    bound it asks for a violation at any not-yet-proven frame below the
    bound, so the query granularity is controlled entirely by
    ``bound_schedule``.  A dense schedule (the default ``1..max_bound``)
    checks one new frame per query and yields minimal counterexamples (the
    textbook "first violation" loop); a single-entry schedule ``[k]`` turns
    the whole run into one SAT query covering every frame ("any violation",
    how a commercial engine is typically invoked); sparse schedules fold the
    skipped frames into the next query's window rather than silently
    assuming them safe.

    ``bound_schedule`` optionally replaces the default ``1..max_bound``
    progression with an explicit (strictly increasing) list of bounds.

    ``preprocess`` runs the SatELite-style CNF preprocessor on every newly
    encoded clause slab before it reaches the solver (sound under
    incrementality: interface variables are frozen).  ``coi_assumptions``
    defers environmental assumptions whose input support is disjoint from
    the property cone: dropping constraints only widens the search space,
    so UNSAT verdicts stay valid, and a SAT answer is *provisional* -- the
    engine then asserts every deferred assumption and re-solves, so the
    violation it reports is consistent with the full environment (a
    deferred assumption cannot influence the property cone, but it can
    forbid the trace the solver picked, or jointly forbid all traces).
    ``max_conflicts_per_query`` bounds the solver effort per bound (the
    query answers UNKNOWN when exhausted), which is how the conflict-budget
    ablations measure reachable depth.

    ``split`` hands every bound's query to the distributed proof engine
    (:mod:`repro.dist`): the query is partitioned into cubes (the QED
    property-window ladder times a look-ahead tree over scored split
    variables), solved with dynamic re-splitting, and the per-cube verdicts
    are merged (all UNSAT -> the window is proven exactly as in sequential
    mode; any SAT -> the model is replayed into a counterexample exactly as
    in sequential mode).  ``split=None`` (the default) keeps the
    single-process incremental path; ``SplitConfig(workers=1)`` solves the
    cubes inline and stays byte-for-byte deterministic, and
    ``workers=N`` fans them over a worker pool whose solvers learn only
    for themselves.
    """

    design: Design
    prop: SafetyProperty
    assumptions: Sequence[Assumption] = ()
    initial_state: Optional[Dict[str, object]] = None
    max_bound: int = 12
    bound_schedule: Optional[Sequence[int]] = None
    preprocess: bool = True
    coi_assumptions: bool = True
    max_conflicts_per_query: Optional[int] = None
    split: Optional[SplitConfig] = None

    def __post_init__(self) -> None:
        if self.max_bound < 1:
            raise ValueError("max_bound must be at least 1")
        if self.bound_schedule is not None:
            if not self.bound_schedule:
                raise ValueError("bound_schedule must not be empty")
            if any(b < 1 for b in self.bound_schedule):
                raise ValueError("bounds must be positive")
            if any(
                later <= earlier
                for earlier, later in zip(
                    self.bound_schedule, list(self.bound_schedule)[1:]
                )
            ):
                raise ValueError("bound_schedule must be strictly increasing")

    def bounds(self) -> List[int]:
        """The sequence of bounds the engine will explore."""
        if self.bound_schedule is not None:
            return list(self.bound_schedule)
        return list(range(1, self.max_bound + 1))


class BoundedModelChecker:
    """Incremental-bound BMC over a single safety property."""

    def __init__(self, problem: BMCProblem) -> None:
        # Fail fast on malformed netlists: a combinational cycle or
        # undriven net would hang or garble unrolling/bit-blasting, which
        # walk the expression graph expecting a well-formed DAG.  Raises
        # DesignLintError carrying the full report.
        from repro.analysis.netlist_lint import check_design

        check_design(problem.design, prop=problem.prop.expr)
        self.problem = problem
        self._unroller = Unroller(
            problem.design,
            initial_state=problem.initial_state,
            input_pins=self._frame_pins(problem),
        )
        self._cnf = CNF()
        self._builder = CNFBuilder(self._unroller.aig, self._cnf)
        self._solver: Optional[CDCLSolver] = None
        #: Number of clauses of ``self._cnf`` already handed to the solver.
        self._clauses_fed = 0
        #: Variables known to the solver after the last sync; everything at
        #: or below this index may be watched by solver clauses and is
        #: therefore frozen for slab preprocessing.
        self._vars_fed = 0
        #: Frames whose environmental constraints have been encoded.
        self._frames_encoded = 0
        #: Frames ``< self._proven_frames`` are known to satisfy the
        #: property in every trace (by the chain of earlier UNSAT answers).
        self._proven_frames = 0
        #: Input-node support of everything asserted for the property so
        #: far, and the environmental assumptions still waiting for their
        #: support to intersect it (cone-of-influence filtering).
        self._support: Set[int] = set()
        self._pending_assumptions: List[Tuple[int, Optional[Set[int]]]] = []
        #: Cumulative reconstruction stack of preprocessing-eliminated
        #: variables (see :func:`repro.sat.preprocess.extend_model`).
        self._elim_stack: List[EliminationRecord] = []
        #: Persistent cube-and-conquer scheduler (``problem.split`` runs):
        #: kept across bounds so the inline single-worker path reuses its
        #: solver incrementally -- the engine's clause list only ever grows,
        #: which is the contract ``SplitQuery.incremental`` declares.
        self._dist_scheduler: Optional[WorkScheduler] = None

    @staticmethod
    def _frame_pins(problem: BMCProblem) -> Dict[int, InputPins]:
        """Per frame, the input bits the single-cycle assumptions fix.

        All-cycle assumptions pin nothing: they stay under cone-of-influence
        deferral.  Where two assumptions disagree on a bit the first wins
        and the other folds to false, so the verdict is unchanged.  A frame
        appears only if some bit of it is pinned, and a non-empty result
        makes the unroller demand-driven (see :mod:`repro.bmc.unroller`).
        """
        pins: Dict[int, InputPins] = {}
        for assumption in problem.assumptions:
            if assumption.only_cycle is None:
                continue
            fixed = input_pins(assumption.expr, problem.design.inputs)
            if not fixed:
                continue
            frame_pins = pins.setdefault(assumption.only_cycle, {})
            for bit, value in fixed.items():
                frame_pins.setdefault(bit, value)
        return pins

    # ------------------------------------------------------------------
    def _sync_solver(self) -> CDCLSolver:
        """Create the solver on first use; afterwards feed it only the
        clauses (and variables) added to the shared CNF since the last
        sync."""
        if self._solver is None:
            self._solver = CDCLSolver(self._cnf)
            self._clauses_fed = self._cnf.num_clauses
            self._vars_fed = self._cnf.num_vars
            return self._solver
        solver = self._solver
        solver.ensure_num_vars(self._cnf.num_vars)
        clauses = self._cnf.clauses
        while self._clauses_fed < len(clauses):
            solver.add_clause(clauses[self._clauses_fed])
            self._clauses_fed += 1
        self._vars_fed = self._cnf.num_vars
        return solver

    def _encode_new_frames(self, bound: int) -> None:
        """Unroll the frames ``[frames_encoded, bound)`` and queue their
        environmental constraints.

        Frame logic reaches the CNF lazily through the property/assumption
        cones.  The environmental constraints collected here are permanent
        facts (they hold at every bound), but they are only *asserted* once
        their input support intersects the property cone (see
        :meth:`_assert_coi_assumptions`) -- an assumption over inputs the
        property can never observe cannot change a verdict.
        """
        problem = self.problem
        self._unroller.unroll(bound)
        pending = self._pending_assumptions
        for frame_index in range(self._frames_encoded, bound):
            frame = self._unroller.frames[frame_index]
            for literal in frame.assumption_bits.values():
                pending.append((literal, None))
            for assumption in problem.assumptions:
                if assumption.applies_at(frame_index):
                    literal = self._unroller.blast_bit_at_frame(
                        assumption.expr, frame_index
                    )
                    pending.append((literal, None))
        self._frames_encoded = bound

    def _assert_coi_assumptions(
        self, window_cone: Set[int]
    ) -> Tuple[int, int]:
        """Assert the pending assumptions inside the cone of influence.

        The support (primary-input nodes) of the window cone is folded into
        the running support set; every pending assumption whose own support
        intersects it is asserted, which can in turn enlarge the support, so
        the filter runs to a fixpoint.  With ``coi_assumptions`` disabled
        every pending assumption is asserted unconditionally.

        Returns ``(asserted, deferred)`` counts for this bound's stats.
        """
        aig = self._unroller.aig
        builder = self._builder
        pending = self._pending_assumptions
        if not self.problem.coi_assumptions:
            for literal, _ in pending:
                builder.assert_literal(literal)
            asserted = len(pending)
            pending.clear()
            return asserted, 0
        support = self._support
        support.update(node for node in window_cone if aig.is_input(node))
        asserted = 0
        changed = True
        while changed and pending:
            changed = False
            still_pending: List[Tuple[int, Optional[Set[int]]]] = []
            for literal, cached_support in pending:
                literal_support = (
                    cached_support
                    if cached_support is not None
                    else aig.cone_inputs([literal])
                )
                # Constant assumptions (folded to true/false) have empty
                # support; assert them -- a folded-false assumption must
                # surface as UNSAT, not be silently dropped.
                if not literal_support or not literal_support.isdisjoint(support):
                    builder.assert_literal(literal)
                    support.update(literal_support)
                    asserted += 1
                    changed = True
                else:
                    still_pending.append((literal, literal_support))
            self._pending_assumptions = pending = still_pending
        return asserted, len(pending)

    def _encode_window(
        self, window_start: int, bound: int
    ) -> Tuple[int, List[int]]:
        """Encode "violated at some frame in ``[window_start, bound)``"
        behind a fresh activation variable.

        Returns the activation variable and the per-frame property literals
        (the window roots, used for cone statistics and the frozen set).
        """
        aig = self._unroller.aig
        builder = self._builder
        roots = [
            self._unroller.blast_bit_at_frame(
                self.problem.prop.expr, frame_index
            )
            for frame_index in range(window_start, bound)
        ]
        violated_somewhere = aig.or_many(aig.negate(root) for root in roots)
        activation_var = builder.new_activation_var()
        builder.assert_literal_if(violated_somewhere, activation_var)
        return activation_var, roots

    def _frozen_interface_vars(
        self, activation_var: int, window_roots: Sequence[int]
    ) -> Set[int]:
        """Variables the engine may observe or assert after this query.

        This is slab preprocessing's frozen contract: the activation
        literal, the primary-input variables (frame inputs and symbolic
        initial state -- counterexample extraction reads the model through
        them), the constant-true variable and the window-root variables
        that :meth:`_retire_window` may assert later.
        """
        builder = self._builder
        frozen = {activation_var}
        frozen.update(builder.input_vars)
        if builder.constant_var is not None:
            frozen.add(builder.constant_var)
        aig = self._unroller.aig
        for root in window_roots:
            root_var = builder.node_var(aig.lit_node(root))
            if root_var is not None:
                frozen.add(root_var)
        return frozen

    def _preprocess_slab(
        self, activation_var: int, window_roots: Sequence[int]
    ) -> Optional[PreprocessStats]:
        """Reduce the not-yet-fed clause slab in place.

        Frozen (never eliminated): every variable the solver already knows
        plus the engine-interface set of :meth:`_frozen_interface_vars`.
        Tseitin auxiliaries that a later bound re-references despite
        elimination are transparently re-encoded by the builder (see
        ``CNFBuilder.mark_eliminated``).
        """
        clauses = self._cnf.clauses
        fed = self._clauses_fed
        slab = clauses[fed:]
        if len(slab) < 24:
            return None  # not worth the pass on trivial slabs
        builder = self._builder
        frozen = self._frozen_interface_vars(activation_var, window_roots)
        # Everything the solver already watches is frozen via the cutoff
        # (cheaper than materializing an O(num_vars) set per bound).
        result = preprocess(slab, frozen=frozen, frozen_cutoff=self._vars_fed)
        del clauses[fed:]
        for clause in result.clauses:
            self._cnf.add_clause(clause)
        if result.eliminated:
            builder.mark_eliminated(
                variable for variable, _ in result.eliminated
            )
            self._elim_stack.extend(result.eliminated)
        return result.stats

    def _assert_deferred_and_resolve(
        self,
        activation_var: int,
        deadline: Optional[Deadline] = None,
    ) -> SolverResult:
        """Confirm a provisional SAT answer against the full environment.

        Deferred assumptions cannot influence the property cone, but they
        can forbid the specific trace the solver picked -- or, if they are
        jointly unsatisfiable, every trace.  They are permanent facts, so
        they are asserted for good (future bounds inherit them) and the
        window is re-solved under the same activation assumption.
        """
        builder = self._builder
        for literal, _ in self._pending_assumptions:
            builder.assert_literal(literal)
        self._pending_assumptions = []
        solver = self._sync_solver()
        return solver.solve(
            assumptions=[activation_var],
            max_conflicts=self.problem.max_conflicts_per_query,
            deadline=deadline,
        )

    def _build_split_query(
        self,
        activation_var: int,
        window_roots: Sequence[int],
        window_cone: Set[int],
    ) -> SplitQuery:
        """Prepare this bound's query for the distributed proof engine.

        The cubes are the product of two axes: the QED property-window
        position ("the first violated frame is i", a ladder partition over
        the per-frame violation literals) and a binary tree over
        look-ahead-scored split variables from the window cone (preferring
        the instruction-port inputs, i.e. the focus-set opcode choice, when
        the config names them), its depth capped so the product stays
        within :data:`~repro.dist.scheduler.MAX_INITIAL_CUBES`.  Variables
        not consumed by the initial cubes are kept as the ranked re-split
        sequence for cubes that overrun their budget.
        """
        split = self.problem.split
        assert split is not None
        aig = self._unroller.aig
        builder = self._builder
        violated = [
            builder.literal(aig.negate(root)) for root in window_roots
        ]
        root_vars = {var_of(literal) for literal in violated}
        # Variables whose defining clauses slab-BVE removed occur in no
        # clause of the query: splitting on them would be a no-op that
        # doubles the work per level, so they are excluded.
        lookahead = select_split_variables(
            aig,
            builder,
            window_cone,
            limit=LOOKAHEAD_DEPTH + MAX_RESPLIT_DEPTH + 4,
            exclude=root_vars | {activation_var} | builder.eliminated_vars,
            prefer_input_prefixes=split.prefer_input_prefixes,
        )
        ladder = ladder_cubes(violated)
        depth = min(LOOKAHEAD_DEPTH, len(lookahead))
        while depth > 0 and len(ladder) * (1 << depth) > MAX_INITIAL_CUBES:
            depth -= 1
        cubes = product_cubes(ladder, binary_cubes(lookahead, depth))
        return SplitQuery(
            clauses=self._cnf.clauses,
            num_vars=self._cnf.num_vars,
            assumptions=[activation_var],
            cubes=cubes,
            resplit_vars=lookahead[depth:],
            max_conflicts=self.problem.max_conflicts_per_query,
            incremental=True,
        )

    def _solve_distributed(
        self,
        activation_var: int,
        window_roots: Sequence[int],
        window_cone: Set[int],
        deadline: Optional[Deadline] = None,
    ) -> DistResult:
        """Answer this bound's query via the cube-and-conquer scheduler."""
        query = self._build_split_query(
            activation_var, window_roots, window_cone
        )
        if self._dist_scheduler is None:
            self._dist_scheduler = WorkScheduler(self.problem.split)
        result = self._dist_scheduler.solve(query, deadline=deadline)
        # The distributed path never feeds the in-process solver; advance
        # the slab cursors so the next bound's preprocessing still operates
        # on only its new clauses (with earlier variables frozen).
        self._clauses_fed = self._cnf.num_clauses
        self._vars_fed = self._cnf.num_vars
        return result

    def _retire_window(self, activation_var: int, window_start: int, bound: int) -> None:
        """After an UNSAT answer: disable the window clause for good and
        promote the window frames to proven-safe facts."""
        builder = self._builder
        self._cnf.add_unit(-activation_var)
        for frame_index in range(window_start, bound):
            literal = self._unroller.blast_bit_at_frame(
                self.problem.prop.expr, frame_index
            )
            builder.assert_literal(literal)
        self._proven_frames = bound

    def _extract_inputs(
        self, model: List[bool], bound: int
    ) -> List[Dict[str, int]]:
        """Read back the input values the solver chose for each frame.

        A pinned input bit is a constant literal and reads back as its
        constant (node 0 has no CNF variable, and the literal's sign gives
        the value); any other input bit without a CNF variable was outside
        every encoded cone (unconstrained) and defaults to 0.
        """
        inputs: List[Dict[str, int]] = []
        for frame_index in range(bound):
            frame = self._unroller.frames[frame_index]
            inputs.append(
                {
                    name: self._model_bits_value(model, bits)
                    for name, bits in frame.inputs.items()
                }
            )
        return inputs

    def _model_bits_value(self, model: List[bool], bits: Sequence[int]) -> int:
        """Decode a little-endian AIG literal vector under *model*."""
        aig = self._unroller.aig
        builder = self._builder
        value = 0
        for bit_index, literal in enumerate(bits):
            cnf_var = builder.node_var(aig.lit_node(literal))
            bit_value = False if cnf_var is None else model[cnf_var]
            if aig.lit_inverted(literal):
                bit_value = not bit_value
            if bit_value:
                value |= 1 << bit_index
        return value

    def _extract_initial_state(self, model: List[bool]) -> Dict[str, int]:
        """The replay seed: concrete overrides plus the solver's choice for
        every symbolic start-state element.

        Without this the replay starts from the reset values, which only
        coincides with the model when the solver happens to pick them.
        """
        initial: Dict[str, int] = {}
        for name, override in (self.problem.initial_state or {}).items():
            if override != SYMBOLIC:
                initial[name] = int(override)
        for name, bits in self._unroller.symbolic_initial.items():
            initial[name] = self._model_bits_value(model, bits)
        return initial

    def _counterexample(
        self, sat_result: SolverResult, bound: int
    ) -> CounterexampleTrace:
        """Replay the SAT model into the trace up to its first violation."""
        problem = self.problem
        assert sat_result.model is not None
        input_sequence = self._extract_inputs(sat_result.model, bound)
        trace = replay_inputs(
            problem.design,
            input_sequence,
            problem.prop.expr,
            problem.prop.name,
            initial_state=self._extract_initial_state(sat_result.model),
        )
        # Locate the first violating cycle on the replayed trace and
        # truncate there, so counterexample lengths are minimal for
        # the sequence the solver chose.
        first_violation = None
        for cycle in range(problem.prop.start_cycle, trace.length):
            if not property_holds_at(
                problem.design, trace, problem.prop.expr, cycle
            ):
                first_violation = cycle
                break
        if first_violation is None:
            raise AssertionError(
                "BMC internal error: SAT model does not reproduce a "
                f"violation of {problem.prop.name!r} within the bound"
            )
        if first_violation + 1 < trace.length:
            trace.length = first_violation + 1
            trace.inputs = trace.inputs[: trace.length]
            trace.states = trace.states[: trace.length]
            trace.outputs = trace.outputs[: trace.length]
        return trace

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        deadline: Optional[Deadline] = None,
    ) -> BMCResult:
        """Execute the incremental-bound search.

        Each bound's :class:`BoundStats` is final the moment its
        ``bmc.bound`` span closes; with a collector installed it is also
        recorded as a ``bound`` heartbeat (verdict, ``bound_seconds`` and
        the run's cumulative solver counters), which is how a served job
        reports per-bound progress while a long query runs.

        ``deadline`` is a wall-clock budget: it is checked before each
        bound and threaded into the solver (and distributed scheduler),
        so expiry degrades the run to UNKNOWN at the current bound — it
        never flips a verdict.  The stopped bound is reported as a
        zero-work ``verdict="unknown"`` :class:`BoundStats` and the
        result carries ``deadline_expired=True``.
        """
        problem = self.problem
        run_span = obs_trace.span("bmc.run", prop=problem.prop.name)
        per_bound_stats: List[BoundStats] = []
        counterexample: Optional[CounterexampleTrace] = None
        deadline_expired = False
        # Heartbeats ride the active collector: solver heartbeats are
        # stamped with the bound being searched, and each completed bound
        # adds one summary heartbeat whose counters are the run's
        # cumulative totals (monotone by construction).
        observer = obs_trace.active()
        totals = {"conflicts": 0, "decisions": 0, "propagations": 0, "learned": 0}

        def emit(stats: BoundStats) -> None:
            per_bound_stats.append(stats)
            if observer is not None:
                totals["conflicts"] += stats.conflicts
                totals["decisions"] += stats.decisions
                totals["propagations"] += stats.propagations
                totals["learned"] += stats.learned_clauses
                observer.heartbeat(
                    "bound",
                    bound=stats.bound,
                    verdict=stats.verdict,
                    bound_seconds=stats.runtime_seconds,
                    solve_seconds=stats.solve_seconds,
                    learned_carried=stats.learned_clauses_carried,
                    **totals,
                )
            # Metrics sampling happens here -- the existing per-bound poll
            # point -- never inside the solver's hot loops.
            registry = obs_metrics.process_metrics()
            registry.inc("qed_bounds_total")
            if stats.conflicts:
                registry.inc("qed_solver_conflicts_total", stats.conflicts)
            if stats.decisions:
                registry.inc("qed_solver_decisions_total", stats.decisions)
            if stats.propagations:
                registry.inc(
                    "qed_solver_propagations_total", stats.propagations
                )
            if stats.learned_clauses:
                registry.inc(
                    "qed_solver_learned_clauses_total", stats.learned_clauses
                )
            if stats.solve_seconds:
                registry.inc(
                    "qed_stage_seconds_total", stats.solve_seconds,
                    stage="solve",
                )

        for bound in problem.bounds():
            if deadline is not None and deadline.expired():
                # Out of wall clock before this bound's query: report it
                # as explicitly unknown (zero solver work) so the bound
                # schedule and the stats list never silently diverge --
                # a truncated run must not look definitive downstream.
                deadline_expired = True
                obs_trace.event("bmc.deadline_expired", bound=bound)
                obs_metrics.process_metrics().inc(
                    "qed_deadline_expiries_total", scope="bmc"
                )
                emit(
                    BoundStats(
                        bound=bound,
                        window_start=max(
                            self._proven_frames, problem.prop.start_cycle
                        ),
                        runtime_seconds=0.0,
                        verdict="unknown",
                        learned_clauses_carried=(
                            self._solver.num_learned_clauses
                            if self._solver
                            else 0
                        ),
                    )
                )
                break
            # runtime_seconds is this span; encoding runs to bmc.coi's end.
            bound_span = obs_trace.span("bmc.bound", bound=bound)
            if observer is not None:
                # Solver heartbeats sampled while this bound's query runs
                # carry the bound number (the dashboard's progress axis).
                observer.set_heartbeat_context(bound=bound)
            with obs_trace.span("bmc.encode", bound=bound):
                self._encode_new_frames(bound)

            window_start = max(self._proven_frames, problem.prop.start_cycle)
            if window_start >= bound:
                # The property is not enforced anywhere in the new frames
                # (still before its start cycle): nothing to ask the solver.
                bound_span.close(verdict="skipped")
                emit(
                    BoundStats(
                        bound=bound,
                        window_start=window_start,
                        runtime_seconds=bound_span.seconds,
                        verdict="skipped",
                        learned_clauses_carried=(
                            self._solver.num_learned_clauses
                            if self._solver
                            else 0
                        ),
                    )
                )
                continue

            with obs_trace.span("bmc.encode_window", bound=bound):
                activation_var, window_roots = self._encode_window(
                    window_start, bound
                )
            with obs_trace.span("bmc.coi", bound=bound) as coi_span:
                window_cone = self._unroller.aig.cone_of(window_roots)
                cone_nodes = len(window_cone)
                asserted, deferred = self._assert_coi_assumptions(window_cone)
                coi_span.set(cone_nodes=cone_nodes, asserted=asserted)
            assert coi_span.end is not None
            registry = obs_metrics.process_metrics()
            registry.inc(
                "qed_stage_seconds_total",
                coi_span.end - bound_span.start,
                stage="encode",
            )
            slab_before = self._cnf.num_clauses - self._clauses_fed
            preprocess_stats = (
                self._preprocess_slab(activation_var, window_roots)
                if problem.preprocess
                else None
            )
            if preprocess_stats is not None:
                registry.inc(
                    "qed_stage_seconds_total",
                    preprocess_stats.time_seconds,
                    stage="preprocess",
                )
            slab_after = self._cnf.num_clauses - self._clauses_fed
            dist_stats: Optional[DistStats] = None
            if problem.split is not None:
                solve_span = obs_trace.span(
                    "bmc.solve", bound=bound, mode="distributed"
                )
                result = self._solve_distributed(
                    activation_var, window_roots, window_cone, deadline
                )
                dist_stats = result.stats
                solve_results = [result]
                if result.is_sat and self._pending_assumptions:
                    # Provisional SAT: assert the deferred (off-cone)
                    # assumptions permanently and re-dispatch the query.
                    asserted += deferred
                    deferred = 0
                    for literal, _ in self._pending_assumptions:
                        self._builder.assert_literal(literal)
                    self._pending_assumptions = []
                    result = self._solve_distributed(
                        activation_var, window_roots, window_cone, deadline
                    )
                    # Merge both dispatches into one DistStats and report
                    # only the merged result: DistStats sums its cube list,
                    # so also appending to solve_results would double-count
                    # the re-dispatch's work in BoundStats.
                    dist_stats.cubes.extend(result.stats.cubes)
                    dist_stats.resplits += result.stats.resplits
                    dist_stats.wall_seconds += result.stats.wall_seconds
                    result.stats = dist_stats
                    solve_results = [result]
                if result.is_unsat:
                    self._retire_window(activation_var, window_start, bound)
                learned_carried = 0
                # Scheduler wall time: cube solving only -- query building
                # (look-ahead split scoring) and window retirement are not
                # solver throughput.
                solve_seconds = dist_stats.wall_seconds
                solve_span.close(verdict=result.status.value)
            else:
                solver = self._sync_solver()
                # The span brackets the solver call(s) only: clause loading
                # and window retirement are not solver throughput.
                solve_span = obs_trace.span(
                    "bmc.solve", bound=bound, mode="incremental"
                )
                result = solver.solve(
                    assumptions=[activation_var],
                    max_conflicts=problem.max_conflicts_per_query,
                    deadline=deadline,
                )
                solve_results = [result]
                if result.is_sat and self._pending_assumptions:
                    # The SAT answer is provisional: confirm it against the
                    # deferred (off-cone) environmental assumptions.
                    asserted += deferred
                    deferred = 0
                    result = self._assert_deferred_and_resolve(
                        activation_var, deadline
                    )
                    solve_results.append(result)
                solve_span.close(verdict=result.status.value)
                solve_seconds = solve_span.seconds
                if result.is_unsat:
                    self._retire_window(activation_var, window_start, bound)
                    self._sync_solver()
                learned_carried = solver.num_learned_clauses

            bound_span.close(verdict=result.status.value)
            emit(
                BoundStats(
                    bound=bound,
                    window_start=window_start,
                    runtime_seconds=bound_span.seconds,
                    solve_seconds=solve_seconds,
                    verdict=result.status.value,
                    conflicts=sum(r.stats.conflicts for r in solve_results),
                    decisions=sum(r.stats.decisions for r in solve_results),
                    propagations=sum(
                        r.stats.propagations for r in solve_results
                    ),
                    learned_clauses=sum(
                        r.stats.learned_clauses for r in solve_results
                    ),
                    learned_clauses_carried=learned_carried,
                    cone_nodes=cone_nodes,
                    assumptions_asserted=asserted,
                    assumptions_deferred=deferred,
                    slab_clauses_before=slab_before,
                    slab_clauses_after=slab_after,
                    preprocess=preprocess_stats,
                    dist=dist_stats,
                )
            )

            if result.is_sat:
                assert result.model is not None
                if self._elim_stack:
                    result.model = extend_model(
                        result.model,
                        self._elim_stack,
                        skip=self._builder.restored_vars,
                    )
                counterexample = self._counterexample(result, bound)
                break
            # UNKNOWN (``max_conflicts_per_query`` expired) falls through
            # like UNSAT but without retiring the window, so the frames stay
            # unproven and ``frames_proven`` reflects only real proofs.

        if (
            not deadline_expired
            and deadline is not None
            and deadline.expired()
            and per_bound_stats
            and per_bound_stats[-1].verdict == "unknown"
        ):
            # The clock ran out *during* the final bound's query (the
            # solver returned UNKNOWN at the deadline), so the loop-top
            # check never saw it.
            deadline_expired = True
        if observer is not None:
            observer.set_heartbeat_context(bound=None)
        if (deadline_expired or counterexample is not None) and per_bound_stats:
            # Honest reach: the violating bound, or the last bound whose
            # query actually ran (the final stats entry is the zero-work
            # expiry marker).
            bound_reached = per_bound_stats[-1].bound
        else:
            bound_reached = problem.bounds()[-1]
        run_span.close()
        return BMCResult(
            status=(
                BMCStatus.NO_VIOLATION_WITHIN_BOUND
                if counterexample is None
                else BMCStatus.VIOLATION
            ),
            property_name=problem.prop.name,
            bound_reached=bound_reached,
            runtime_seconds=run_span.seconds,
            counterexample=counterexample,
            per_bound_stats=per_bound_stats,
            deadline_expired=deadline_expired,
        )


def check_property(
    design: Design,
    prop: SafetyProperty,
    assumptions: Sequence[Assumption] = (),
    *,
    max_bound: int = 12,
    initial_state: Optional[Dict[str, object]] = None,
) -> BMCResult:
    """Convenience wrapper: build a problem, run it, return the result."""
    problem = BMCProblem(
        design=design,
        prop=prop,
        assumptions=assumptions,
        initial_state=initial_state,
        max_bound=max_bound,
    )
    return BoundedModelChecker(problem).run()
