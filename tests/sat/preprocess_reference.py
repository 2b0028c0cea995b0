"""Reference preprocessor for the differential tests in this directory.

A verbatim copy of the dict/set-based ``_Preprocessor``, ``preprocess`` and
``simplify_cnf`` that ``repro.sat.preprocess`` used before its
literal-indexed rewrite.  The rewrite must return exactly what
``preprocess`` here returns: the same clauses in the same order, the same
elimination and blocked stacks, the same ``unsat`` flag and the same
statistics (wall time aside).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import time
from collections import defaultdict
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

from repro.sat.cnf import CNF, Literal, var_of
from repro.sat.preprocess import (
    BlockedRecord,
    EliminationRecord,
    PreprocessResult,
    PreprocessStats,
    SimplificationResult,
)


def _signature(clause: Sequence[Literal]) -> int:
    """Bloom-filter signature over variables (for fast subset rejection)."""
    sig = 0
    for lit in clause:
        sig |= 1 << ((lit if lit > 0 else -lit) % 61)
    return sig


class _Preprocessor:
    """Mutable working state of one preprocessing run."""

    def __init__(
        self,
        clauses: Iterable[Sequence[Literal]],
        frozen: AbstractSet[int],
        frozen_cutoff: int,
        bve_clause_limit: int,
        bve_occurrence_limit: int,
        bce_occurrence_limit: int = 24,
    ) -> None:
        self.frozen = frozen
        self.frozen_cutoff = frozen_cutoff
        self.bve_clause_limit = bve_clause_limit
        self.bve_occurrence_limit = bve_occurrence_limit
        self.bce_occurrence_limit = bce_occurrence_limit
        self.blocked: List[BlockedRecord] = []
        self.unsat = False
        self.fixed: Dict[int, bool] = {}
        self.clauses: List[Optional[List[Literal]]] = []
        self.sigs: List[int] = []
        self.occs: Dict[Literal, Set[int]] = defaultdict(set)
        self.unit_queue: List[Literal] = []
        self.touched: List[int] = []
        self.eliminated: List[EliminationRecord] = []
        self.stats = PreprocessStats()
        for clause in clauses:
            self.stats.clauses_in += 1
            self._add_clause(clause)
        self._propagate_units()

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _add_clause(self, literals: Sequence[Literal]) -> None:
        seen: Set[Literal] = set()
        out: List[Literal] = []
        for lit in literals:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = self.fixed.get(lit if lit > 0 else -lit)
            if value is not None:
                if (lit > 0) == value:
                    return  # satisfied by a fixed variable
                continue  # falsified literal dropped
            seen.add(lit)
            out.append(lit)
        if not out:
            self.unsat = True
            return
        cid = len(self.clauses)
        self.clauses.append(out)
        self.sigs.append(_signature(out))
        for lit in out:
            self.occs[lit].add(cid)
        if len(out) == 1:
            self.unit_queue.append(out[0])
        else:
            self.touched.append(cid)

    def _remove_clause(self, cid: int) -> None:
        clause = self.clauses[cid]
        if clause is None:
            return
        self.clauses[cid] = None
        occs = self.occs
        for lit in clause:
            entry = occs.get(lit)
            if entry is not None:
                entry.discard(cid)

    def _strengthen(self, cid: int, lit: Literal) -> None:
        """Remove *lit* from clause *cid* (it is known not to help)."""
        clause = self.clauses[cid]
        if clause is None:
            return
        clause.remove(lit)
        entry = self.occs.get(lit)
        if entry is not None:
            entry.discard(cid)
        if not clause:
            self.unsat = True
            return
        self.sigs[cid] = _signature(clause)
        if len(clause) == 1:
            self.unit_queue.append(clause[0])
        else:
            self.touched.append(cid)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------
    def _propagate_units(self) -> None:
        while self.unit_queue and not self.unsat:
            lit = self.unit_queue.pop()
            variable = lit if lit > 0 else -lit
            value = lit > 0
            existing = self.fixed.get(variable)
            if existing is not None:
                if existing != value:
                    self.unsat = True
                continue
            self.fixed[variable] = value
            self.stats.units_derived += 1
            for cid in list(self.occs.get(lit, ())):
                self._remove_clause(cid)
            self.occs.pop(lit, None)
            for cid in list(self.occs.get(-lit, ())):
                self._strengthen(cid, -lit)
            self.occs.pop(-lit, None)

    # ------------------------------------------------------------------
    # Subsumption / self-subsuming resolution
    # ------------------------------------------------------------------
    def _find_subsumed(
        self, lits: Sequence[Literal], sig: int, skip_cid: int
    ) -> List[int]:
        """Alive clauses (other than *skip_cid*) that contain all of *lits*."""
        best: Optional[Literal] = None
        best_count = -1
        for lit in lits:
            entry = self.occs.get(lit)
            count = len(entry) if entry else 0
            if count == 0:
                return []
            if best is None or count < best_count:
                best, best_count = lit, count
        lits_set = set(lits)
        size = len(lits)
        sigs = self.sigs
        clauses = self.clauses
        found: List[int] = []
        for cid in self.occs.get(best, ()):
            if cid == skip_cid:
                continue
            clause = clauses[cid]
            if clause is None or len(clause) < size:
                continue
            if sig & ~sigs[cid]:
                continue
            if lits_set.issubset(clause):
                found.append(cid)
        return found

    def _subsumption_pass(self, max_clause_len: int = 20) -> None:
        while self.touched and not self.unsat:
            queue, self.touched = self.touched, []
            for did in queue:
                if self.unit_queue:
                    self._propagate_units()
                if self.unsat:
                    return
                clause = self.clauses[did]
                if clause is None or len(clause) > max_clause_len:
                    continue
                sig = self.sigs[did]
                for cid in self._find_subsumed(clause, sig, did):
                    self._remove_clause(cid)
                    self.stats.clauses_subsumed += 1
                # Self-subsuming resolution: flip one literal of the clause;
                # any superset of the flipped clause can drop the flipped
                # literal (the resolvent on it subsumes the superset).  The
                # signature is sign-insensitive, so it carries over.
                for index in range(len(clause)):
                    lit = clause[index]
                    flipped = list(clause)
                    flipped[index] = -lit
                    for cid in self._find_subsumed(flipped, sig, did):
                        self._strengthen(cid, -lit)
                        self.stats.literals_strengthened += 1
                    if self.clauses[did] is not clause:
                        break  # the clause itself changed; re-queued already

    # ------------------------------------------------------------------
    # Bounded variable elimination
    # ------------------------------------------------------------------
    def _eliminate_pass(self) -> bool:
        occs = self.occs
        candidates: List[Tuple[int, int]] = []
        seen_vars: Set[int] = set()
        for lit, entry in occs.items():
            if not entry:
                continue
            variable = lit if lit > 0 else -lit
            if (
                variable in seen_vars
                or variable <= self.frozen_cutoff
                or variable in self.frozen
            ):
                continue
            seen_vars.add(variable)
            total = len(occs.get(variable, ())) + len(occs.get(-variable, ()))
            candidates.append((total, variable))
        candidates.sort()
        changed = False
        for _, variable in candidates:
            if self.unsat:
                break
            if variable in self.fixed:
                continue
            pos = sorted(occs.get(variable, ()))
            neg = sorted(occs.get(-variable, ()))
            if not pos and not neg:
                continue
            if (
                len(pos) > self.bve_occurrence_limit
                and len(neg) > self.bve_occurrence_limit
            ):
                continue
            limit = len(pos) + len(neg)
            resolvents: List[List[Literal]] = []
            within_bounds = True
            for pos_cid in pos:
                pos_clause = self.clauses[pos_cid]
                assert pos_clause is not None
                rest = [l for l in pos_clause if l != variable]
                rest_set = set(rest)
                for neg_cid in neg:
                    neg_clause = self.clauses[neg_cid]
                    assert neg_clause is not None
                    merged_set = set(rest_set)
                    tautology = False
                    for lit in neg_clause:
                        if lit == -variable:
                            continue
                        if -lit in merged_set:
                            tautology = True
                            break
                        merged_set.add(lit)
                    if tautology:
                        continue
                    if len(merged_set) > self.bve_clause_limit:
                        within_bounds = False
                        break
                    resolvents.append(sorted(merged_set))
                    if len(resolvents) > limit:
                        within_bounds = False
                        break
                if not within_bounds:
                    break
            if not within_bounds:
                continue
            removed = [list(self.clauses[cid]) for cid in pos + neg]
            for cid in pos + neg:
                self._remove_clause(cid)
            occs.pop(variable, None)
            occs.pop(-variable, None)
            self.eliminated.append((variable, removed))
            self.stats.variables_eliminated += 1
            for resolvent in resolvents:
                self._add_clause(resolvent)
                self.stats.resolvents_added += 1
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
        ranked = sorted(score.items(), key=lambda item: (-item[1], item[0]))
        visits = 0
        for lit, strength in ranked[:max_probes]:
            if self.unsat or visits > visit_budget or strength < 2:
                break
            variable = lit if lit > 0 else -lit
            if variable in self.fixed:
                continue
            failed, visits = self._probe_one(lit, visits, visit_budget)
            self.stats.probes += 1
            if failed:
                self.stats.failed_literals += 1
                self.unit_queue.append(-lit)
                self._propagate_units()

    def _probe_one(
        self, root: Literal, visits: int, budget: int
    ) -> Tuple[bool, int]:
        """Assume *root* and unit-propagate; ``True`` means it failed."""
        assign: Dict[int, bool] = {}
        queue = [root]
        head = 0
        clauses = self.clauses
        occs = self.occs
        while head < len(queue):
            lit = queue[head]
            head += 1
            variable = lit if lit > 0 else -lit
            value = lit > 0
            current = assign.get(variable)
            if current is not None:
                if current != value:
                    return True, visits
                continue
            assign[variable] = value
            for cid in occs.get(-lit, ()):
                clause = clauses[cid]
                if clause is None:
                    continue
                visits += len(clause)
                unassigned: Optional[Literal] = None
                unassigned_count = 0
                satisfied = False
                for other in clause:
                    if other == -lit:
                        continue
                    other_var = other if other > 0 else -other
                    other_value = assign.get(other_var)
                    if other_value is None:
                        unassigned_count += 1
                        unassigned = other
                        if unassigned_count > 1:
                            break
                    elif (other > 0) == other_value:
                        satisfied = True
                        break
                if satisfied or unassigned_count > 1:
                    continue
                if unassigned_count == 0:
                    return True, visits
                queue.append(unassigned)
            if visits > budget:
                break
        return False, visits

    # ------------------------------------------------------------------
    # Blocked-clause elimination
    # ------------------------------------------------------------------
    def _clause_blocked_on(self, clause: List[Literal], lit: Literal) -> bool:
        """Whether every resolvent of *clause* on *lit* is tautological."""
        rest = {l for l in clause if l != lit}
        for cid in self.occs.get(-lit, ()):
            other = self.clauses[cid]
            if other is None:
                continue
            other_set = set(other)
            if not any(-l in other_set for l in rest):
                return False
        return True

    def _bce_pass(self) -> None:
        """Remove blocked clauses (a final, optional pass).

        A clause is *blocked* on one of its literals when every resolvent on
        that literal is tautological; removing it preserves satisfiability
        (Kullmann), and a model of the remainder is repaired by flipping the
        blocking literal whenever the removed clause is unsatisfied
        (:func:`reconstruct_blocked`).  Pure literals are the degenerate
        case (no resolvents at all), so this pass generalises pure-literal
        elimination.

        Two restrictions keep the pass safe in this codebase: frozen
        variables never act as blocking literals (their value is observed
        elsewhere, e.g. by solver assumptions), and -- unlike every other
        transformation here -- blocked-clause elimination is **not** sound
        on a slab of a larger formula (an outside clause can produce a
        non-tautological resolvent), so the caller must only enable it on a
        complete formula.
        """
        queue: List[int] = [
            cid for cid, clause in enumerate(self.clauses) if clause is not None
        ]
        in_queue = set(queue)
        while queue and not self.unsat:
            cid = queue.pop()
            in_queue.discard(cid)
            clause = self.clauses[cid]
            if clause is None:
                continue
            for lit in clause:
                variable = lit if lit > 0 else -lit
                if variable <= self.frozen_cutoff or variable in self.frozen:
                    continue
                if len(self.occs.get(-lit, ())) > self.bce_occurrence_limit:
                    continue
                if self._clause_blocked_on(clause, lit):
                    self.blocked.append((lit, list(clause)))
                    self._remove_clause(cid)
                    self.stats.clauses_blocked += 1
                    # Removing a clause can newly block clauses that used to
                    # resolve against it: re-examine the resolution partners.
                    for other_lit in clause:
                        for ocid in self.occs.get(-other_lit, ()):
                            if ocid not in in_queue:
                                in_queue.add(ocid)
                                queue.append(ocid)
                    break

    # ------------------------------------------------------------------
    def output_clauses(self) -> List[List[Literal]]:
        if self.unsat:
            return [[]]
        out: List[List[Literal]] = []
        for variable in sorted(self.fixed):
            out.append([variable if self.fixed[variable] else -variable])
        for clause in self.clauses:
            if clause is not None:
                out.append(list(clause))
        return out


def preprocess(
    clauses: Iterable[Sequence[Literal]],
    *,
    frozen: AbstractSet[int] = frozenset(),
    frozen_cutoff: int = 0,
    max_rounds: int = 3,
    enable_subsumption: bool = True,
    enable_elimination: bool = True,
    enable_probing: bool = True,
    enable_blocked: bool = False,
    bve_clause_limit: int = 8,
    bve_occurrence_limit: int = 12,
    bce_occurrence_limit: int = 24,
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

    ``enable_blocked`` (off by default) runs blocked-clause elimination as
    a final pass.  **Exception to the slab contract above:** BCE only
    preserves satisfiability when *clauses* is the complete formula --
    a clause outside the slab can produce a non-tautological resolvent on
    the blocking literal -- so only enable it for whole-formula
    preprocessing (e.g. a portfolio worker building its own solver), never
    for the incremental engine's per-bound slabs.  BCE also changes the
    model: use :meth:`PreprocessResult.extend_model` (which repairs blocked
    clauses before re-deriving eliminated variables) rather than the
    module-level :func:`extend_model`.
    """
    start = time.perf_counter()
    state = _Preprocessor(
        clauses,
        frozen,
        frozen_cutoff,
        bve_clause_limit,
        bve_occurrence_limit,
        bce_occurrence_limit,
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
    if enable_blocked and not state.unsat:
        state._bce_pass()
    result_clauses = state.output_clauses()
    state.stats.clauses_out = len(result_clauses)
    state.stats.time_seconds = time.perf_counter() - start
    return PreprocessResult(
        clauses=result_clauses,
        stats=state.stats,
        eliminated=state.eliminated,
        blocked=state.blocked,
        unsat=state.unsat,
    )


def simplify_cnf(cnf: CNF) -> SimplificationResult:
    """Lightweight clause-level clean-up of a whole :class:`CNF`.

    The gentle sibling of :func:`preprocess`: tautology and duplicate
    removal, exhaustive top-level unit propagation, and pure-literal
    elimination -- nothing that changes the variable space, so solver
    models remain directly usable after
    :meth:`SimplificationResult.extend_model`.  (Pure-literal elimination
    is the degenerate case of the blocked-clause pass above; it is kept
    here because this entry point reports *fixed values* rather than a
    reconstruction stack.)

    Built on the same :class:`_Preprocessor` core as :func:`preprocess`
    (clause intake + unit propagation), with every reduction pass disabled;
    only the single-scan pure-literal step is specific to this entry point.
    """
    state = _Preprocessor(
        cnf.clauses,
        frozen=frozenset(),
        frozen_cutoff=0,
        bve_clause_limit=0,
        bve_occurrence_limit=0,
    )
    if state.unsat:
        return SimplificationResult(
            cnf=cnf.copy(), fixed=dict(state.fixed), unsatisfiable=True
        )
    fixed: Dict[int, bool] = dict(state.fixed)

    # Pure-literal elimination (single scan, matching the legacy entry
    # point): a variable occurring in one polarity only is fixed to it and
    # its clauses dropped.
    pure: Dict[int, bool] = {}
    for literal, occurrences in state.occs.items():
        if not occurrences:
            continue
        variable = var_of(literal)
        if variable in fixed or variable in pure:
            continue
        if not state.occs.get(-literal):
            pure[variable] = literal > 0
    for variable, value in pure.items():
        fixed.setdefault(variable, value)

    simplified = CNF(cnf.num_vars)
    for clause in state.clauses:
        if clause is None:
            continue
        if any(var_of(literal) in pure for literal in clause):
            continue
        simplified.add_clause(list(clause))
    return SimplificationResult(cnf=simplified, fixed=fixed)
