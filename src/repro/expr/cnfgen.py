"""Tseitin conversion of AIG cones into CNF.

Only the cone of influence of the requested literals is translated; constant
and input nodes never allocate auxiliary variables unless referenced.  The
builder keeps the node-to-variable map so several queries (e.g. successive BMC
bounds) can share one CNF.

The builder also cooperates with the CNF preprocessor
(:mod:`repro.sat.preprocess`): auxiliary variables eliminated by bounded
variable elimination are registered via :meth:`CNFBuilder.mark_eliminated`,
and if a *later* cone re-references such a node (structural hashing shares
nodes freely across time frames), the builder transparently re-encodes its
Tseitin definition.  Re-adding the full definition of an eliminated Tseitin
variable is sound: the definition uniquely determines the variable, so the
value the solver picks coincides with the one model reconstruction would
have chosen.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.expr.aig import AIG, AIG_FALSE, AIG_TRUE
from repro.sat.cnf import CNF


class CNFBuilder:
    """Incrementally translate AIG literals into CNF literals.

    The builder is designed to stay alive across successive queries over a
    growing AIG (e.g. the per-bound unrollings of the BMC engine): every call
    encodes only the cone that has not been translated yet, on top of the
    existing node-to-variable map.
    """

    def __init__(self, aig: AIG, cnf: Optional[CNF] = None) -> None:
        self.aig = aig
        self.cnf = cnf if cnf is not None else CNF()
        # Map AIG node index -> CNF variable.
        self._node_var: Dict[int, int] = {}
        # A variable constrained to be true, used to express constants.
        self._true_var: Optional[int] = None
        #: CNF variables bound to primary inputs (frame inputs, symbolic
        #: initial state).  The preprocessor must never eliminate them --
        #: counterexample extraction reads the model through these.
        self._input_vars: Set[int] = set()
        #: Variables whose defining clauses were removed by preprocessing.
        self._eliminated_vars: Set[int] = set()
        #: Previously eliminated variables re-encoded on later reference;
        #: model reconstruction must leave them to the solver.
        self._restored_vars: Set[int] = set()

    # ------------------------------------------------------------------
    def _constant_true_var(self) -> int:
        if self._true_var is None:
            self._true_var = self.cnf.new_var()
            self.cnf.add_unit(self._true_var)
        return self._true_var

    def node_var(self, node: int) -> Optional[int]:
        """The CNF variable already allocated for AIG node *node*, if any.

        Unlike :meth:`node_variable` this never allocates; it is the public
        read-only view clients (e.g. counterexample extraction) should use
        instead of reaching into the internal map.
        """
        return self._node_var.get(node)

    def node_variable(self, node: int) -> int:
        """Return (allocating if needed) the CNF variable for AIG node *node*."""
        if node == 0:
            # Constant-false node: represented by the negation of the true var.
            return self._constant_true_var()
        existing = self._node_var.get(node)
        if existing is not None:
            if existing in self._eliminated_vars:
                self._restore(node)
            return existing
        variable = self.cnf.new_var()
        self._node_var[node] = variable
        if self.aig.is_input(node):
            self._input_vars.add(variable)
        else:
            self._encode_and(node, variable)
        return variable

    def literal(self, aig_literal: int) -> int:
        """Return the CNF literal corresponding to *aig_literal*."""
        if aig_literal == AIG_TRUE:
            return self._constant_true_var()
        if aig_literal == AIG_FALSE:
            return -self._constant_true_var()
        node = self.aig.lit_node(aig_literal)
        variable = self.node_variable(node)
        return -variable if self.aig.lit_inverted(aig_literal) else variable

    def literals(self, aig_literals: Iterable[int]) -> List[int]:
        """Translate several AIG literals at once."""
        return [self.literal(lit) for lit in aig_literals]

    # ------------------------------------------------------------------
    def _encode_and(self, node: int, variable: int) -> None:
        """Add the Tseitin clauses for AND node *node* bound to *variable*."""
        left_lit, right_lit = self.aig.node_children(node)
        # The children are encoded recursively; iterative translation avoids
        # recursion limits on deep cones.
        stack = [node]
        pending: List[int] = []
        while stack:
            current = stack.pop()
            if current == 0 or self.aig.is_input(current):
                continue
            left, right = self.aig.node_children(current)
            for child_lit in (left, right):
                child_node = self.aig.lit_node(child_lit)
                if child_node not in self._node_var and child_node != 0 and not self.aig.is_input(child_node):
                    # Allocate now, encode later (post-order via pending).
                    self._node_var[child_node] = self.cnf.new_var()
                    stack.append(child_node)
            pending.append(current)
        # Encode in reverse discovery order so children exist before parents;
        # the clause set is order-independent, this is just bookkeeping.
        for current in pending:
            if current == node:
                out_var = variable
            else:
                out_var = self._node_var[current]
            left, right = self.aig.node_children(current)
            a = self._child_literal(left)
            b = self._child_literal(right)
            # out <-> a & b
            self.cnf.add_clause([-out_var, a])
            self.cnf.add_clause([-out_var, b])
            self.cnf.add_clause([out_var, -a, -b])

    def _child_literal(self, aig_literal: int) -> int:
        node = self.aig.lit_node(aig_literal)
        if node == 0:
            base = self._constant_true_var()
            variable = -base  # constant false
        else:
            if node not in self._node_var:
                variable = self.cnf.new_var()
                self._node_var[node] = variable
                if self.aig.is_input(node):
                    self._input_vars.add(variable)
                else:
                    # Should not happen: parents are encoded after children.
                    self._encode_and(node, variable)
            variable = self._node_var[node]
            if variable in self._eliminated_vars:
                self._restore(node)
        return -variable if self.aig.lit_inverted(aig_literal) else variable

    # ------------------------------------------------------------------
    # Preprocessing cooperation
    # ------------------------------------------------------------------
    @property
    def input_vars(self) -> Set[int]:
        """CNF variables of primary inputs allocated so far (copy)."""
        return set(self._input_vars)

    @property
    def constant_var(self) -> Optional[int]:
        """The always-true constant variable, if allocated."""
        return self._true_var

    @property
    def restored_vars(self) -> Set[int]:
        """Eliminated variables later re-encoded (solver-assigned; copy)."""
        return set(self._restored_vars)

    @property
    def eliminated_vars(self) -> Set[int]:
        """Variables currently missing their defining clauses (copy).

        Such a variable occurs in no clause until a later cone reference
        restores it; constraining it (e.g. as a cube split variable) is a
        no-op, so clients selecting variables should skip these.
        """
        return set(self._eliminated_vars)

    def mark_eliminated(self, variables: Iterable[int]) -> None:
        """Record variables whose defining clauses preprocessing removed.

        If a later cone references the AIG node of such a variable, the
        builder re-encodes its Tseitin definition (see :meth:`_restore`), so
        incremental encoding stays sound under bounded variable elimination.
        """
        self._eliminated_vars.update(variables)

    def _restore(self, node: int) -> None:
        """Re-encode the definitions of *node* and any eliminated children."""
        to_restore: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            variable = self._node_var[current]
            if variable not in self._eliminated_vars:
                continue
            if self.aig.is_input(current):
                # Inputs have no defining clauses; nothing to re-add.
                self._eliminated_vars.discard(variable)
                self._restored_vars.add(variable)
                continue
            self._eliminated_vars.discard(variable)
            self._restored_vars.add(variable)
            to_restore.append(current)
            for child_literal in self.aig.node_children(current):
                child = self.aig.lit_node(child_literal)
                if child != 0 and not self.aig.is_input(child):
                    child_var = self._node_var.get(child)
                    if child_var is not None and child_var in self._eliminated_vars:
                        stack.append(child)
        for current in to_restore:
            variable = self._node_var[current]
            left, right = self.aig.node_children(current)
            a = self._child_literal(left)
            b = self._child_literal(right)
            self.cnf.add_clause([-variable, a])
            self.cnf.add_clause([-variable, b])
            self.cnf.add_clause([variable, -a, -b])

    # ------------------------------------------------------------------
    def assert_literal(self, aig_literal: int) -> None:
        """Add a unit clause asserting *aig_literal* is true."""
        self.cnf.add_unit(self.literal(aig_literal))

    def new_activation_var(self) -> int:
        """Allocate a fresh CNF variable to be used as an activation literal.

        The variable is unconstrained: assert it via solver assumptions to
        enable the clauses guarded by it, or add its negation as a unit to
        retire them permanently.
        """
        return self.cnf.new_var()

    def assert_literal_if(self, aig_literal: int, activation_var: int) -> None:
        """Assert *aig_literal* guarded by *activation_var*.

        Adds the clause ``(-activation_var OR literal)``, so the constraint
        is active only while the activation variable is assumed true.  This
        is how the BMC engine retracts per-bound constraints without
        discarding the solver.
        """
        self.cnf.add_clause([-activation_var, self.literal(aig_literal)])
