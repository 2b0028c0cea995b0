"""CNF preprocessing: the single formula-reduction code path.

:func:`preprocess` *shrinks the formula before the solver sees it* with the
three classic SatELite techniques:

* **bounded variable elimination** (BVE) -- a non-frozen variable is
  resolved away when the set of non-tautological resolvents is no larger
  than the clauses it replaces.  Tseitin auxiliaries introduced by the
  AIG-to-CNF translation are the prime candidates: most have a handful of
  occurrences and disappear without any growth.
* **subsumption and self-subsuming resolution** -- a clause implied by a
  shorter one is dropped; a clause that is *almost* subsumed (one literal
  flipped) is strengthened by removing that literal.
* **failed-literal probing** -- assuming a literal and running unit
  propagation; a conflict proves the complement at top level.

Every clause it adds follows from the clauses it holds at that point by
reverse unit propagation (a resolvent, a strengthened clause, the
complement of a failed literal), and every other step deletes clauses.

The preprocessor is designed to compose with the *incremental* BMC engine:
it operates on a clause *slab* (the clauses newly encoded for one bound) and
takes a **frozen** variable set that it must never eliminate -- activation
literals, frame-interface variables and symbolic-initial-state variables,
i.e. everything the engine may still reference from later bounds, solver
assumptions or counterexample extraction.  Derived facts (units) are always
part of the output, so the downstream solver sees them.

Because eliminating a variable removes its defining clauses, a SAT model of
the reduced slab no longer assigns eliminated variables meaningfully.  The
:class:`PreprocessResult` therefore carries the *reconstruction stack* (the
clauses removed per eliminated variable, in elimination order);
:func:`extend_model` replays it backwards to extend any model of the reduced
formula to the original variable space.

Output contract
---------------
:func:`preprocess` is deterministic, and all of its output is behaviour,
not detail: the clauses *in order*, the reconstruction stack, the
``unsat`` flag and every statistic.  The CDCL solver's search -- and with it
every model and counterexample the engine reports -- depends on the exact
clause list it is fed, so a faster preprocessor must return the same list.
Two internal orders are part of that contract:

* **Occurrence-set iteration order.**  Each literal's occurrences are a
  ``set`` of clause ids.  Subsumption, strengthening and unit propagation
  meet clauses in that set's iteration order, which decides the order
  clauses are strengthened, units are queued and clauses are re-queued.
  The iteration order of an ``int`` set is a deterministic function of its
  add/discard history, so every set must see the same operations in the
  same order; the containers stay sets for that reason.
* **Probe visit order.**  Probing stops after ``probe_visit_budget``
  clause-literal visits per call, and the large BMC slabs exhaust that
  budget.  The order in which probes visit clauses therefore decides where
  the budget runs out, and so which failed literals are found.

Data layout
-----------
Variables are renumbered slab-locally and monotonically: the slab's sorted
variables become ``1..n`` (nothing to do when they already are).  Arrays
are then sized by the slab, not by its largest variable index -- a late
bound's slab references variables up to the whole formula's count -- while
every sort and tie-break over variables or signed literals is unchanged.
Every per-literal array (occurrence sets, fixed values, scratch stamps,
dirty flags) is a list indexed directly by the signed literal: ``lit`` in
``1..n`` indexes the lower half and ``-lit`` the upper half, through
Python's negative indexing.  Results are translated back to the original
numbering once, at the end.

Dirty variables
---------------
Adding, removing or strengthening a clause marks every variable in it
dirty; a failed elimination attempt marks its variable clean.  A clean
variable's clauses are unchanged since its last failed attempt, so another
attempt would fail the same way.  Each BVE pass therefore still builds the
full candidate list, ordered by (occurrences, variable), and skips a
variable that is clean *when its turn comes*.  Filtering while collecting
candidates would be wrong: an elimination earlier in the same pass can add
resolvents over a later candidate and so make it dirty again.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import neg
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs import trace as obs_trace
from repro.sat.cnf import Literal

#: Reconstruction stack entry: the variable and the clauses its elimination
#: removed (recorded *before* removal, in the original variable space).
EliminationRecord = Tuple[int, List[List[Literal]]]


@dataclass
class PreprocessStats:
    """Work and reduction achieved by one :func:`preprocess` call."""

    clauses_in: int = 0
    clauses_out: int = 0
    units_derived: int = 0
    clauses_subsumed: int = 0
    literals_strengthened: int = 0
    variables_eliminated: int = 0
    resolvents_added: int = 0
    probes: int = 0
    failed_literals: int = 0
    rounds: int = 0
    #: Duration of the call's ``sat.preprocess`` span.
    time_seconds: float = 0.0

    def merge(self, other: "PreprocessStats") -> None:
        """Accumulate *other* into this instance (per-run totals)."""
        self.clauses_in += other.clauses_in
        self.clauses_out += other.clauses_out
        self.units_derived += other.units_derived
        self.clauses_subsumed += other.clauses_subsumed
        self.literals_strengthened += other.literals_strengthened
        self.variables_eliminated += other.variables_eliminated
        self.resolvents_added += other.resolvents_added
        self.probes += other.probes
        self.failed_literals += other.failed_literals
        self.rounds += other.rounds
        self.time_seconds += other.time_seconds


@dataclass
class PreprocessResult:
    """Outcome of :func:`preprocess`.

    ``clauses`` is the reduced slab (including one unit clause per fixed
    variable); ``eliminated`` is the reconstruction stack for
    :func:`extend_model`.  When ``unsat`` is true the input slab is
    unsatisfiable on its own and ``clauses`` contains the empty clause.
    """

    clauses: List[List[Literal]]
    stats: PreprocessStats
    eliminated: List[EliminationRecord] = field(default_factory=list)
    unsat: bool = False


class _Preprocessor:
    """Mutable working state of one preprocessing run.

    All state is in slab-local numbering, in literal-indexed lists of
    ``2n + 1`` entries (see the module docstring).
    """

    def __init__(
        self,
        clauses: Iterable[Sequence[Literal]],
        frozen: AbstractSet[int],
        frozen_cutoff: int,
        bve_clause_limit: int,
        bve_occurrence_limit: int,
    ) -> None:
        slab: List[Sequence[Literal]] = list(clauses)
        order = sorted(set(map(abs, chain.from_iterable(slab))))
        n = len(order)
        #: Local literal -> original literal; ``None`` when the slab's
        #: variables already are ``1..n``.
        self.back: Optional[List[Literal]] = None
        if n and order[-1] != n:
            local = dict(zip(order, range(1, n + 1)))
            local.update(zip(map(neg, order), range(-1, -n - 1, -1)))
            slab = [[local[lit] for lit in clause] for clause in slab]
            self.back = [0, *order]
            self.back.extend(map(neg, reversed(order)))
        self.is_frozen: List[bool] = [True]
        self.is_frozen.extend(
            variable <= frozen_cutoff or variable in frozen
            for variable in order
        )
        self.num_vars = n
        self.bve_clause_limit = bve_clause_limit
        self.bve_occurrence_limit = bve_occurrence_limit
        self.unsat = False
        size = 2 * n + 1
        #: ``true[lit]``: *lit* is fixed true at top level.
        self.true: List[bool] = [False] * size
        #: Fixed literals in fixing order.
        self.trail: List[Literal] = []
        self.clauses: List[Optional[List[Literal]]] = []
        #: ``occ[lit]``: ids of the live clauses containing *lit*.
        self.occ: List[Set[int]] = [set() for _ in range(size)]
        #: Scratch stamps (clause intake, probing): ``mark[lit] == stamp``
        #: means *lit* is marked in the current use.
        self.mark: List[int] = [0] * size
        #: ``dirty[lit]``: a clause containing *lit* was added, removed or
        #: strengthened since the variable's last failed BVE attempt.
        self.dirty: List[bool] = [True] * size
        self.unit_queue: List[Literal] = []
        self.touched: List[int] = []
        self.eliminated: List[EliminationRecord] = []
        self.stats = PreprocessStats(clauses_in=len(slab))
        # Intake: drop duplicate literals and tautologies.
        mark = self.mark
        stamp = 0
        for clause in slab:
            stamp += 1
            out: List[Literal] = []
            for lit in clause:
                if mark[-lit] == stamp:
                    break  # tautology
                if mark[lit] != stamp:
                    mark[lit] = stamp
                    out.append(lit)
            else:
                self._add_clause(out)
        self.stamp = stamp
        self._propagate_units()

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _add_clause(self, out: List[Literal]) -> None:
        """Add a duplicate-free, non-tautological clause over unfixed
        variables (an input clause after intake, or a resolvent)."""
        if not out:
            self.unsat = True
            return
        cid = len(self.clauses)
        self.clauses.append(out)
        occ = self.occ
        dirty = self.dirty
        for lit in out:
            occ[lit].add(cid)
            dirty[lit] = True
        if len(out) == 1:
            self.unit_queue.append(out[0])
        else:
            self.touched.append(cid)

    def _remove_clause(self, cid: int) -> None:
        clause = self.clauses[cid]
        if clause is None:
            return
        self.clauses[cid] = None
        occ = self.occ
        dirty = self.dirty
        for lit in clause:
            occ[lit].discard(cid)
            dirty[lit] = True

    def _strengthen(self, cid: int, lit: Literal) -> None:
        """Remove *lit* from clause *cid* (it is known not to help)."""
        clause = self.clauses[cid]
        if clause is None:
            return
        dirty = self.dirty
        for other in clause:
            dirty[other] = True
        clause.remove(lit)
        self.occ[lit].discard(cid)
        if not clause:
            self.unsat = True
            return
        if len(clause) == 1:
            self.unit_queue.append(clause[0])
        else:
            self.touched.append(cid)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------
    def _propagate_units(self) -> None:
        true = self.true
        occ = self.occ
        while self.unit_queue and not self.unsat:
            lit = self.unit_queue.pop()
            if true[lit]:
                continue
            if true[-lit]:
                self.unsat = True
                continue
            true[lit] = True
            self.trail.append(lit)
            self.stats.units_derived += 1
            for cid in list(occ[lit]):
                self._remove_clause(cid)
            for cid in list(occ[-lit]):
                self._strengthen(cid, -lit)

    # ------------------------------------------------------------------
    # Subsumption / self-subsuming resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _in_visit_order(
        lit_occs: List[Set[int]], found: Set[int]
    ) -> List[int]:
        """*found* in the iteration order of the smallest of *lit_occs*
        (the first one on ties) -- the order a scan of that occurrence set
        would have met them in."""
        if len(found) == 1:
            return [next(iter(found))]
        best = min(lit_occs, key=len)
        return [cid for cid in best if cid in found]

    def _subsumption_pass(self, max_clause_len: int = 20) -> None:
        clauses = self.clauses
        occ = self.occ
        stats = self.stats
        intersection = set.intersection
        while self.touched and not self.unsat:
            queue, self.touched = self.touched, []
            for did in queue:
                if self.unit_queue:
                    self._propagate_units()
                if self.unsat:
                    return
                clause = clauses[did]
                if clause is None or len(clause) > max_clause_len:
                    continue
                # The live clauses containing every literal of the clause;
                # it is one of them itself.
                lit_occs = [occ[lit] for lit in clause]
                found = intersection(*lit_occs)
                if len(found) > 1:
                    found.discard(did)
                    for cid in self._in_visit_order(lit_occs, found):
                        self._remove_clause(cid)
                        stats.clauses_subsumed += 1
                # Self-subsuming resolution: flip one literal of the clause;
                # any superset of the flipped clause can drop the flipped
                # literal (the resolvent on it subsumes the superset).
                for index in range(len(clause)):
                    lit = clause[index]
                    kept = lit_occs[index]
                    lit_occs[index] = occ[-lit]
                    found = intersection(*lit_occs)
                    if found:
                        for cid in self._in_visit_order(lit_occs, found):
                            self._strengthen(cid, -lit)
                            stats.literals_strengthened += 1
                    lit_occs[index] = kept
                    if clauses[did] is not clause:
                        break  # the clause itself changed; re-queued already

    # ------------------------------------------------------------------
    # Bounded variable elimination
    # ------------------------------------------------------------------
    def _eliminate_pass(self) -> bool:
        occ = self.occ
        clauses = self.clauses
        dirty = self.dirty
        is_frozen = self.is_frozen
        candidates: List[Tuple[int, int]] = []
        for variable in range(1, self.num_vars + 1):
            if is_frozen[variable]:
                continue
            total = len(occ[variable]) + len(occ[-variable])
            if total:
                candidates.append((total, variable))
        candidates.sort()
        occurrence_limit = self.bve_occurrence_limit
        clause_limit = self.bve_clause_limit
        changed = False
        for _, variable in candidates:
            if self.unsat:
                break
            # A clean variable's clauses are unchanged since its last
            # failed attempt, so it would fail again.
            if not (dirty[variable] or dirty[-variable]):
                continue
            pos_occ = occ[variable]
            neg_occ = occ[-variable]
            if not pos_occ and not neg_occ:
                continue
            dirty[variable] = dirty[-variable] = False
            if (
                len(pos_occ) > occurrence_limit
                and len(neg_occ) > occurrence_limit
            ):
                continue
            pos = sorted(pos_occ)
            negs = sorted(neg_occ)
            limit = len(pos) + len(negs)
            neg_rests: List[Set[Literal]] = []
            for neg_cid in negs:
                neg_clause = clauses[neg_cid]
                assert neg_clause is not None
                neg_rest = set(neg_clause)
                neg_rest.discard(-variable)
                neg_rests.append(neg_rest)
            resolvents: List[Set[Literal]] = []
            within_bounds = True
            for pos_cid in pos:
                pos_clause = clauses[pos_cid]
                assert pos_clause is not None
                rest = set(pos_clause)
                rest.discard(variable)
                complements = set(map(neg, rest))
                for neg_rest in neg_rests:
                    if not complements.isdisjoint(neg_rest):
                        continue  # tautology
                    merged = rest | neg_rest
                    if len(merged) > clause_limit:
                        within_bounds = False
                        break
                    resolvents.append(merged)
                    if len(resolvents) > limit:
                        within_bounds = False
                        break
                if not within_bounds:
                    break
            if not within_bounds:
                continue
            removed: List[List[Literal]] = []
            for cid in pos + negs:
                clause = clauses[cid]
                assert clause is not None
                removed.append(clause)
                self._remove_clause(cid)
            self.eliminated.append((variable, removed))
            self.stats.variables_eliminated += 1
            self.stats.resolvents_added += len(resolvents)
            for resolvent in resolvents:
                self._add_clause(sorted(resolvent))
            if self.unit_queue:
                self._propagate_units()
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Failed-literal probing
    # ------------------------------------------------------------------
    def _probe_pass(self, max_probes: int, visit_budget: int) -> None:
        # Rank probe literals by how much propagation assuming them can
        # trigger: the binary-clause occurrences of their complement.
        score: Dict[Literal, int] = defaultdict(int)
        for clause in self.clauses:
            if clause is not None and len(clause) == 2:
                for lit in clause:
                    score[-lit] += 1
        # Strongest first, ties by literal; a literal scoring below 2 is
        # never probed.
        ranked = sorted(
            (-strength, lit)
            for lit, strength in score.items()
            if strength >= 2
        )
        true = self.true
        # Per-clause false-literal counts of one probe, valid where
        # ``counted[cid]`` holds that probe's stamp.  Probing adds no clause.
        counted = [0] * len(self.clauses)
        false_count = [0] * len(self.clauses)
        visits = 0
        for _, lit in ranked[:max_probes]:
            if self.unsat or visits > visit_budget:
                break
            if true[lit] or true[-lit]:
                continue
            failed, visits = self._probe_one(
                lit, visits, visit_budget, counted, false_count
            )
            self.stats.probes += 1
            if failed:
                self.stats.failed_literals += 1
                self.unit_queue.append(-lit)
                self._propagate_units()

    def _probe_one(
        self,
        root: Literal,
        visits: int,
        budget: int,
        counted: List[int],
        false_count: List[int],
    ) -> Tuple[bool, int]:
        """Assume *root* and unit-propagate; ``True`` means it failed.

        A visited clause costs its length in *visits*.  Every clause
        containing the complement of a newly true literal is visited, and
        one literal's visits all happen before the next literal's, so a
        clause's count at a visit is its number of false literals.  That
        count alone decides whether the clause conflicts (all false), is
        unit or satisfied (one literal left to inspect) or does nothing.
        """
        self.stamp += 1
        stamp = self.stamp
        mark = self.mark
        queue = [root]
        head = 0
        clauses = self.clauses
        occ = self.occ
        # hot-loop
        while head < len(queue):
            lit = queue[head]
            head += 1
            if mark[lit] == stamp:
                continue
            if mark[-lit] == stamp:
                return True, visits
            mark[lit] = stamp
            false_lit = -lit
            for cid in occ[false_lit]:
                clause = clauses[cid]
                assert clause is not None
                size = len(clause)
                visits += size
                if size == 2:
                    other = clause[0] if clause[1] == false_lit else clause[1]
                    if mark[other] == stamp:
                        continue  # satisfied
                    if mark[-other] == stamp:
                        return True, visits
                    queue.append(other)
                    continue
                if counted[cid] == stamp:
                    false_now = false_count[cid] + 1
                else:
                    counted[cid] = stamp
                    false_now = 1
                false_count[cid] = false_now
                if false_now < size - 1:
                    continue
                if false_now == size:
                    return True, visits
                for other in clause:
                    if mark[-other] != stamp:
                        break
                if mark[other] != stamp:
                    queue.append(other)  # unit, unless satisfied
            if visits > budget:
                break
        return False, visits

    # ------------------------------------------------------------------
    def output(self) -> Tuple[List[List[Literal]], List[EliminationRecord]]:
        """The reduced clauses (fixed units first, by variable) and the
        reconstruction stack, in the original numbering."""
        if self.unsat:
            clauses: List[List[Literal]] = [[]]
        else:
            clauses = [[lit] for lit in sorted(self.trail, key=abs)]
            clauses.extend(c for c in self.clauses if c is not None)
        back = self.back
        if back is None:
            return clauses, self.eliminated
        return (
            [[back[lit] for lit in clause] for clause in clauses],
            [
                (back[variable], [[back[lit] for lit in c] for c in removed])
                for variable, removed in self.eliminated
            ],
        )


def preprocess(
    clauses: Iterable[Sequence[Literal]],
    *,
    frozen: AbstractSet[int] = frozenset(),
    frozen_cutoff: int = 0,
    max_rounds: int = 3,
    enable_subsumption: bool = True,
    enable_elimination: bool = True,
    enable_probing: bool = True,
    bve_clause_limit: int = 8,
    bve_occurrence_limit: int = 12,
    probe_limit: int = 2000,
    probe_visit_budget: int = 2_000_000,
) -> PreprocessResult:
    """Shrink a clause slab; never eliminates a variable in *frozen*.

    ``frozen_cutoff`` freezes every variable ``<= frozen_cutoff`` without
    materializing a set -- the incremental engine uses it for "everything
    the solver already knows", which would otherwise be an O(num_vars) set
    per bound.

    The slab may be any subset of a larger formula: every transformation
    applied here is sound with respect to the superset as long as variables
    occurring outside the slab are frozen (facts derived from a subset hold
    for the whole formula, and elimination is restricted to slab-local
    variables).
    """
    span = obs_trace.span("sat.preprocess")
    state = _Preprocessor(
        clauses,
        frozen,
        frozen_cutoff,
        bve_clause_limit,
        bve_occurrence_limit,
    )
    for round_index in range(max_rounds):
        if state.unsat:
            break
        state.stats.rounds += 1
        changed = False
        if enable_subsumption:
            before = (
                state.stats.clauses_subsumed,
                state.stats.literals_strengthened,
                state.stats.units_derived,
            )
            state._subsumption_pass()
            changed |= before != (
                state.stats.clauses_subsumed,
                state.stats.literals_strengthened,
                state.stats.units_derived,
            )
        if enable_elimination and not state.unsat:
            changed |= state._eliminate_pass()
            if enable_subsumption and state.touched and not state.unsat:
                state._subsumption_pass()
        if enable_probing and round_index == 0 and not state.unsat:
            failed_before = state.stats.failed_literals
            state._probe_pass(probe_limit, probe_visit_budget)
            changed |= state.stats.failed_literals > failed_before
        if not changed:
            break
    result_clauses, eliminated = state.output()
    span.close()
    state.stats.clauses_out = len(result_clauses)
    state.stats.time_seconds = span.seconds
    return PreprocessResult(
        clauses=result_clauses,
        stats=state.stats,
        eliminated=eliminated,
        unsat=state.unsat,
    )


def extend_model(
    model: List[bool],
    eliminated: Sequence[EliminationRecord],
    skip: AbstractSet[int] = frozenset(),
) -> List[bool]:
    """Extend *model* over eliminated variables (reverse elimination order).

    For each eliminated variable the removed clauses are examined under the
    model built so far: a removed clause not satisfied by its other literals
    forces the variable's value.  Unsatisfied clauses cannot disagree --
    otherwise the corresponding resolvent (which the reduced formula kept)
    would be falsified -- so the first one found decides.  Variables in
    *skip* are left at the model's value (used when a variable was later
    re-introduced and the solver assigned it directly).
    """
    extended = list(model)
    needed = 0
    for variable, removed in eliminated:
        needed = max(needed, variable)
        for clause in removed:
            for lit in clause:
                needed = max(needed, lit if lit > 0 else -lit)
    if len(extended) < needed + 1:
        extended.extend([False] * (needed + 1 - len(extended)))
    for variable, removed in reversed(eliminated):
        if variable in skip:
            continue
        value = False
        for clause in removed:
            satisfied_by_others = False
            own_polarity = False
            for lit in clause:
                lit_var = lit if lit > 0 else -lit
                if lit_var == variable:
                    own_polarity = lit > 0
                    continue
                if extended[lit_var] == (lit > 0):
                    satisfied_by_others = True
                    break
            if not satisfied_by_others:
                value = own_polarity
                break
        extended[variable] = value
    return extended
