"""Conjunctive normal form container used by the bit-blaster and BMC engine.

Literals follow the DIMACS convention: a positive integer ``v`` denotes the
variable ``v`` asserted true, ``-v`` denotes it asserted false.  Variable
indices start at 1; 0 is reserved (it terminates clauses in DIMACS files).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

Literal = int


def neg(literal: Literal) -> Literal:
    """Return the negation of *literal*."""
    return -literal


def var_of(literal: Literal) -> int:
    """Return the variable index of *literal* (always positive)."""
    return literal if literal > 0 else -literal


def sign_of(literal: Literal) -> bool:
    """Return ``True`` when *literal* asserts its variable true."""
    return literal > 0


class CNF:
    """A growable CNF formula.

    The object owns its variable space: fresh variables are handed out by
    :meth:`new_var` so that independent producers (e.g. several unrolled
    time-frames of a design) never collide.
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._num_vars = num_vars
        self._clauses: List[List[Literal]] = []

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses added so far."""
        return len(self._clauses)

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        self._num_vars += 1
        return self._num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate *count* fresh variables and return them in order."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add a clause (a disjunction of literals).

        An empty clause makes the formula trivially unsatisfiable; it is
        stored as-is and handled by the solver.
        """
        clause = list(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is not allowed inside a clause")
            if var_of(lit) > self._num_vars:
                self._num_vars = var_of(lit)
        self._clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[Literal]]) -> None:
        """Add several clauses at once."""
        for clause in clauses:
            self.add_clause(clause)

    def add_unit(self, literal: Literal) -> None:
        """Add a unit clause asserting *literal*."""
        self.add_clause([literal])

    @property
    def clauses(self) -> List[List[Literal]]:
        """The clause database (mutable; treat as read-only from clients)."""
        return self._clauses

    def copy(self) -> "CNF":
        """Return a deep copy of the formula."""
        duplicate = CNF(self._num_vars)
        duplicate._clauses = [list(clause) for clause in self._clauses]
        return duplicate

    def extend(self, other: "CNF") -> None:
        """Append the clauses of *other*, assuming a shared variable space."""
        self._num_vars = max(self._num_vars, other._num_vars)
        self._clauses.extend(list(clause) for clause in other._clauses)

    def __iter__(self) -> Iterator[List[Literal]]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __repr__(self) -> str:
        return f"CNF(vars={self._num_vars}, clauses={len(self._clauses)})"

    # ------------------------------------------------------------------
    # DIMACS I/O
    # ------------------------------------------------------------------
    def to_dimacs(self) -> str:
        """Serialise the formula in DIMACS CNF format."""
        lines = [f"p cnf {self._num_vars} {len(self._clauses)}"]
        for clause in self._clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse a DIMACS CNF document into a :class:`CNF`."""
        cnf: Optional[CNF] = None
        pending: List[Literal] = []
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line: {line!r}")
                cnf = cls(int(parts[2]))
                continue
            if cnf is None:
                raise ValueError("clause encountered before problem line")
            for token in line.split():
                literal = int(token)
                if literal == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(literal)
        if cnf is None:
            raise ValueError("missing DIMACS problem line")
        if pending:
            cnf.add_clause(pending)
        return cnf

    # ------------------------------------------------------------------
    # Evaluation helpers (used by tests and the model checker)
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the formula under *assignment*.

        *assignment* is indexed by variable (index 0 unused).  Raises
        ``IndexError`` if the assignment does not cover all variables.
        """
        for clause in self._clauses:
            if not any(
                assignment[var_of(lit)] == sign_of(lit) for lit in clause
            ):
                return False
        return True
