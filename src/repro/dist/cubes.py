"""Cube generation: partitioning one BMC query into independent sub-queries.

A *cube* is a conjunction of CNF literals handed to a worker as solver
assumptions on top of the query's own assumptions.  A cube set produced here
is always a **partition** of the search space over its split variables:

* the disjunction of the cubes is a tautology (every assignment of the split
  variables satisfies some cube), so "all cubes UNSAT" implies the original
  query is UNSAT -- this is the soundness argument of the distributed proof;
* the cubes are pairwise disjoint (no assignment satisfies two cubes), so no
  work is duplicated between workers.

Both properties hold by construction because every generator in this module
emits the *leaves of a decision tree* over the split variables:

* :func:`binary_cubes` -- the complete depth-``d`` tree over ``d`` variables
  (``2^d`` balanced cubes), used for look-ahead splitting;
* :func:`ladder_cubes` -- the maximally unbalanced tree ``l0; -l0 l1;
  -l0 -l1 l2; ...`` plus the all-negative leaf, used for splitting by QED
  property-window position ("the first violated frame is i");
* :func:`split_cube` -- one more level under an existing leaf, used by the
  scheduler when a cube exceeds its conflict budget and must be re-split;
* :func:`product_cubes` -- the tree obtained by hanging one tree under every
  leaf of another (both axes at once).

Split-variable selection uses **look-ahead scoring over AIG cone sizes**
(:func:`select_split_variables`): a good splitting variable dominates a large
part of the property cone, so assigning it simplifies much of the formula in
both branches.  Primary inputs matching a preferred name prefix (the QED
instruction port, i.e. the focus-set opcode choice) win ties, which realises
the paper-adjacent "cube over the focus-set opcodes" strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (
    AbstractSet,
    Dict,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.expr.aig import AIG
from repro.expr.cnfgen import CNFBuilder
from repro.sat.cnf import Literal, var_of


@dataclass(frozen=True)
class Cube:
    """One leaf of the splitting tree: assumption literals plus lineage."""

    literals: Tuple[Literal, ...]
    #: How many re-splits produced this cube (0 for an initial cube).
    depth: int = 0

    def extended(self, literal: Literal) -> "Cube":
        """The child cube with *literal* appended (one re-split level)."""
        return Cube(self.literals + (literal,), self.depth + 1)

    def __str__(self) -> str:  # compact display for logs/stats
        return "[" + " ".join(str(lit) for lit in self.literals) + "]"


# ----------------------------------------------------------------------
# Generators (all emit decision-tree leaves: disjoint and covering)
# ----------------------------------------------------------------------
def binary_cubes(variables: Sequence[int], depth: int) -> List[Cube]:
    """The ``2^depth`` sign combinations over the first *depth* variables.

    With ``depth == 0`` (or no variables) the single empty cube is returned,
    which leaves the query unsplit.
    """
    chosen = list(variables[: max(0, depth)])
    if not chosen:
        return [Cube(())]
    cubes: List[Cube] = []
    for signs in product((1, -1), repeat=len(chosen)):
        cubes.append(
            Cube(tuple(sign * var for sign, var in zip(signs, chosen)))
        )
    return cubes


def ladder_cubes(literals: Sequence[Literal]) -> List[Cube]:
    """Decision-list cubes: "the first true literal is the i-th one".

    For literals ``l0..ln-1`` this yields ``l0; -l0 l1; ...;
    -l0..-ln-2 ln-1; -l0..-ln-1``.  The final all-negative cube completes the
    partition; when the query's own clauses force at least one literal true
    (the BMC violation-window clause does), it refutes immediately.
    """
    cubes: List[Cube] = []
    prefix: List[Literal] = []
    for literal in literals:
        cubes.append(Cube(tuple(prefix) + (literal,)))
        prefix.append(-literal)
    cubes.append(Cube(tuple(prefix)))
    return cubes


def product_cubes(outer: Sequence[Cube], inner: Sequence[Cube]) -> List[Cube]:
    """Hang the *inner* tree under every leaf of the *outer* tree."""
    return [
        Cube(a.literals + b.literals, max(a.depth, b.depth))
        for a in outer
        for b in inner
    ]


def split_cube(cube: Cube, variable: int) -> Tuple[Cube, Cube]:
    """Split one cube on *variable* into its two children."""
    if variable <= 0:
        raise ValueError("split variable must be a positive variable index")
    if any(var_of(lit) == variable for lit in cube.literals):
        raise ValueError(f"cube already constrains variable {variable}")
    return cube.extended(variable), cube.extended(-variable)


# ----------------------------------------------------------------------
# Partition validation (soundness check, used by the property tests)
# ----------------------------------------------------------------------
def validate_partition(cubes: Sequence[Cube]) -> None:
    """Check that *cubes* partition the space of their split variables.

    Enumerates every assignment of the variables the cubes mention and
    verifies exactly one cube is satisfied -- i.e. the disjunction of the
    cubes is a tautology (coverage: all-UNSAT implies UNSAT) and the cubes
    are pairwise disjoint (no duplicated work).  Exponential in the number
    of distinct split variables; meant for tests and debugging, not for the
    solve path.
    """
    variables = sorted({var_of(lit) for cube in cubes for lit in cube.literals})
    if len(variables) > 20:
        raise ValueError(
            f"refusing to enumerate 2^{len(variables)} assignments; "
            "validate_partition is a test helper for small cube sets"
        )
    for values in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        satisfied = [
            cube
            for cube in cubes
            if all(
                assignment[var_of(lit)] == (lit > 0) for lit in cube.literals
            )
        ]
        if len(satisfied) == 0:
            raise AssertionError(
                f"cube set does not cover assignment {assignment}: "
                "the disjunction of the cubes is not a tautology"
            )
        if len(satisfied) > 1:
            raise AssertionError(
                f"cubes overlap on assignment {assignment}: "
                f"{[str(c) for c in satisfied]}"
            )


# ----------------------------------------------------------------------
# Look-ahead split-variable selection
# ----------------------------------------------------------------------
def select_split_variables(
    aig: AIG,
    builder: CNFBuilder,
    cone: AbstractSet[int],
    *,
    limit: int = 8,
    exclude: AbstractSet[int] = frozenset(),
    prefer_input_prefixes: Sequence[str] = (),
    fanout_pool: int = 64,
) -> List[int]:
    """Rank CNF variables of *cone* nodes as splitting candidates.

    The score of a candidate node is a one-step look-ahead over AIG cone
    sizes: how much of the property cone its own fan-in cone covers, folded
    so that a node dominating about *half* the cone scores highest --
    assigning such a node simplifies a large share of the formula in *both*
    branches, whereas the window root itself (cone == everything) only helps
    one branch.  Candidates are drawn from the highest-fanout nodes of the
    cone (*fanout_pool* of them) so the exact cone-size computation stays
    cheap, plus every primary input whose name starts with one of
    *prefer_input_prefixes* (the QED instruction-port bits -- the focus-set
    opcode choice); preferred inputs receive a flat score bonus.

    Only nodes that already have a CNF variable are eligible (splitting on a
    never-encoded node would not constrain the formula).  Returns at most
    *limit* distinct CNF variables, highest score first; ties break on node
    index so the ranking is deterministic.
    """
    if not cone:
        return []
    total = sum(1 for node in cone if not aig.is_input(node))
    if total == 0:
        total = 1
    # Fanout within the cone: how many cone nodes reference each node.
    fanout: Dict[int, int] = {}
    for node in cone:
        if aig.is_input(node):
            continue
        for child_literal in aig.node_children(node):
            child = aig.lit_node(child_literal)
            if child in cone:
                fanout[child] = fanout.get(child, 0) + 1
    candidates: Set[int] = set()
    ranked_fanout = sorted(
        fanout.items(), key=lambda item: (-item[1], item[0])
    )
    for node, _ in ranked_fanout[:fanout_pool]:
        candidates.add(node)
    preferred: Set[int] = set()
    if prefer_input_prefixes:
        for node in cone:
            if not aig.is_input(node):
                continue
            name = aig.input_name(node)
            if name and any(
                name.startswith(prefix) for prefix in prefer_input_prefixes
            ):
                preferred.add(node)
                candidates.add(node)

    scored: List[Tuple[float, int, int, int]] = []
    for node in candidates:
        variable = builder.node_var(node)
        if variable is None or variable in exclude:
            continue
        size = aig.cone_size([2 * node])
        # Balanced-split preference: peak score at half the cone.  Preferred
        # inputs (cone size 0) get a flat bonus that puts them ahead of any
        # balance score, so the opcode bits are split first when requested.
        balance = min(size, total - size) / total
        score = balance + (1.0 if node in preferred else 0.0)
        scored.append((score, fanout.get(node, 0), node, variable))
    scored.sort(key=lambda item: (-item[0], -item[1], item[2]))
    result: List[int] = []
    seen_vars: Set[int] = set()
    for _, _, _, variable in scored:
        if variable not in seen_vars:
            seen_vars.add(variable)
            result.append(variable)
        if len(result) >= limit:
            break
    return result
