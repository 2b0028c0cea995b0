"""Elaboration of a :class:`~repro.rtl.circuit.Circuit` into a frozen design.

The elaborated :class:`Design` is the interface consumed by both the
simulator and the bounded model checker: a set of typed inputs, a state
vector with reset values, one next-state expression per state element, and
named outputs/assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.expr.bitvec import BV, BVVar
from repro.rtl.circuit import Circuit, RTLBuildError


@dataclass(frozen=True)
class StateElement:
    """One register of the elaborated design."""

    name: str
    width: int
    reset: int


@dataclass
class Design:
    """An elaborated synchronous design.

    Attributes
    ----------
    name:
        Human-readable design name (e.g. ``"design_a.v3"``).
    inputs:
        Mapping from primary-input name to bit width.
    state:
        The state elements in a deterministic order.
    next_state:
        Mapping from state-element name to its next-state expression.
    outputs:
        Named combinational output expressions.
    assumptions:
        Named 1-bit environmental constraints on inputs/state.
    lint_memo:
        The graph walks and property-free report that
        :mod:`repro.analysis.netlist_lint` finds once and keeps here (an
        elaborated design is read-only, so they never go stale).
    """

    name: str
    inputs: Dict[str, int]
    state: List[StateElement]
    next_state: Dict[str, BV]
    outputs: Dict[str, BV]
    assumptions: Dict[str, BV] = field(default_factory=dict)
    lint_memo: Any = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def state_names(self) -> List[str]:
        """Names of all state elements."""
        return [element.name for element in self.state]

    @property
    def num_flip_flops(self) -> int:
        """Total number of flip-flops (sum of state-element widths)."""
        return sum(element.width for element in self.state)

    def state_element(self, name: str) -> StateElement:
        """Look up a state element by name."""
        for element in self.state:
            if element.name == name:
                return element
        raise KeyError(f"no state element named {name!r}")

    def reset_values(self) -> Dict[str, int]:
        """Return the reset value of every state element."""
        return {element.name: element.reset for element in self.state}

    def free_variables(self) -> Set[str]:
        """Names of all variables referenced by any expression."""
        return collect_variables(
            [
                *self.next_state.values(),
                *self.outputs.values(),
                *self.assumptions.values(),
            ]
        )

    def validate(self) -> None:
        """Check internal consistency; raise :class:`RTLBuildError` on error."""
        known = set(self.inputs) | {element.name for element in self.state}
        free = self.free_variables()
        undriven = free - known
        if undriven:
            raise RTLBuildError(
                "expressions reference undeclared signals: "
                + ", ".join(sorted(undriven))
            )
        for element in self.state:
            expr = self.next_state.get(element.name)
            if expr is None:
                raise RTLBuildError(
                    f"state element {element.name!r} has no next-state expression"
                )
            if expr.width != element.width:
                raise RTLBuildError(
                    f"state element {element.name!r} has width {element.width} "
                    f"but its next-state expression has width {expr.width}"
                )

    def structural_hash(self) -> str:
        """Content hash (SHA-256 hex) of the elaborated netlist.

        Two designs hash equal iff they have the same inputs, state
        elements (name, width, reset) and structurally identical
        next-state/output/assumption expressions.  The design *name* is
        deliberately excluded: the hash identifies content, which is what
        lets the serving layer invalidate cached verdicts when the RTL
        behind a version name actually changes (and share them when it
        does not).

        Shared sub-expressions are serialized once (DAG, not tree), so the
        hash is linear in the netlist size and safe on deep expressions;
        a forged cycle is cut, not followed (:func:`serialize_expression`).
        """
        import hashlib

        digest = hashlib.sha256()
        node_ids: Dict[int, int] = {}
        for input_name in sorted(self.inputs):
            digest.update(f"input {input_name}:{self.inputs[input_name]}\n".encode())
        for element in self.state:
            digest.update(
                f"state {element.name}:{element.width}={element.reset}\n".encode()
            )
        for section, exprs in (
            ("next", self.next_state),
            ("output", self.outputs),
            ("assume", self.assumptions),
        ):
            for expr_name in sorted(exprs):
                root_id = serialize_expression(exprs[expr_name], digest, node_ids)
                digest.update(f"{section} {expr_name}=n{root_id}\n".encode())
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, inputs={len(self.inputs)}, "
            f"flip_flops={self.num_flip_flops}, outputs={len(self.outputs)})"
        )


def collect_variables(roots: Iterable[BV]) -> Set[str]:
    """Variable names under *roots*; logic shared between roots is walked once."""
    names: Set[str] = set()
    stack = list(roots)
    seen: Set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, BVVar):
            names.add(node.name)
        stack.extend(node.children)
    return names


def serialize_expression(root: BV, digest: Any, node_ids: Dict[int, int]) -> int:
    """Feed *root*'s graph to the hashlib *digest* in post-order; return
    its dense id.  A node already in *node_ids* is not written again, so
    shared sub-DAGs serialize once; a forged cycle's back edge is cut (its
    child id reads ``-1``), so the walk terminates."""
    grey: Set[int] = set()
    stack: List[Tuple[BV, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in node_ids:
            continue
        if not expanded:
            if id(node) in grey:
                continue  # cycle back edge; terminate regardless
            grey.add(id(node))
            stack.append((node, True))
            stack.extend(
                (child, False)
                for child in node.children
                if id(child) not in node_ids
            )
            continue
        parts: List[str] = []
        for item in node._key():
            if isinstance(item, tuple):
                parts.append(
                    ",".join(
                        str(node_ids.get(id(child), -1)) for child in item
                    )
                )
            else:
                parts.append(str(item))
        node_ids[id(node)] = len(node_ids)
        digest.update(
            (f"n{len(node_ids) - 1}=" + "|".join(parts) + "\n").encode()
        )
    return node_ids[id(root)]


def elaborate(circuit: Circuit, name: str = "") -> Design:
    """Freeze *circuit* into a :class:`Design`.

    Memories are finalised (their scheduled writes become register
    next-states), registers without an explicit next-state expression hold
    their value, and the result is validated.
    """
    for memory in circuit.memories.values():
        memory.finalize()

    state: List[StateElement] = []
    next_state: Dict[str, BV] = {}
    for register_name, register in circuit.registers.items():
        state.append(
            StateElement(register_name, register.width, register.reset)
        )
        next_state[register_name] = (
            register.next if register.next is not None else register.q
        )

    design = Design(
        name=name or circuit.name,
        inputs={input_name: var.width for input_name, var in circuit.inputs.items()},
        state=state,
        next_state=next_state,
        outputs=dict(circuit.outputs),
        assumptions=dict(circuit.assumptions),
    )
    design.validate()
    return design
