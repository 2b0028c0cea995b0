"""Safety properties and environmental assumptions for BMC.

Both are 1-bit expressions over the design's signal namespace.  The namespace
contains:

* primary-input names,
* state-element names (current-cycle values), and
* output names (the unroller substitutes the output's defining expression).

A :class:`SafetyProperty` is checked for violation -- the BMC engine searches
for a reachable cycle where the expression evaluates to 0.  An
:class:`Assumption` constrains every cycle of every trace the engine
considers; this is how Symbolic QED restricts the instruction stream to valid
QED sequences without writing design-specific properties.

:func:`input_pins` reads off the input bits a single-cycle assumption fixes,
so the unroller can bind them to constants instead of fresh inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.expr.bitvec import (
    BV,
    BVAnd,
    BVConst,
    BVEq,
    BVExtract,
    BVNot,
    BVVar,
    ExprError,
)

#: Input bits an assumption fixes: ``(input name, bit index) -> 0 or 1``.
InputPins = Dict[Tuple[str, int], int]


def _require_bit(expr: BV, what: str) -> None:
    if expr.width != 1:
        raise ExprError(f"{what} must be a 1-bit expression, got width {expr.width}")


@dataclass(frozen=True)
class SafetyProperty:
    """A named invariant that must hold at every reachable cycle.

    Attributes
    ----------
    name:
        Identifier used in reports and counterexample summaries.
    expr:
        The 1-bit expression that must evaluate to 1 in every cycle.
    description:
        Optional human-readable explanation (shown in failure reports).
    start_cycle:
        First cycle (inclusive) at which the property is enforced.  Some
        checks -- e.g. the QED consistency check -- are only meaningful once
        ``qed_ready`` can possibly be asserted; leaving the earlier cycles
        unconstrained keeps the CNF smaller.
    """

    name: str
    expr: BV
    description: str = ""
    start_cycle: int = 0

    def __post_init__(self) -> None:
        _require_bit(self.expr, f"property {self.name!r}")
        if self.start_cycle < 0:
            raise ValueError("start_cycle must be non-negative")


@dataclass(frozen=True)
class Assumption:
    """A named environmental constraint applied at every cycle.

    ``only_cycle`` restricts the assumption to a single time frame, which is
    how Single-Instruction properties pin the instruction under test at cycle
    0 while leaving later cycles unconstrained.  The input bits such an
    assumption fixes (see :func:`input_pins`) are unrolled as constants at
    that frame; the assumption itself is still asserted, so the constraint
    set is unchanged and only its encoding shrinks.
    """

    name: str
    expr: BV
    description: str = ""
    only_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        _require_bit(self.expr, f"assumption {self.name!r}")
        if self.only_cycle is not None and self.only_cycle < 0:
            raise ValueError("only_cycle must be non-negative")

    def applies_at(self, cycle: int) -> bool:
        """Return whether the assumption constrains the given cycle."""
        return self.only_cycle is None or self.only_cycle == cycle


def _input_field(expr: BV, inputs: Mapping[str, int]) -> Optional[Tuple[str, int]]:
    """``(name, lowest bit)`` when *expr* is a primary input or a slice of one."""
    if isinstance(expr, BVExtract):
        low = expr.low
        expr = expr.children[0]
    else:
        low = 0
    if isinstance(expr, BVVar) and expr.name in inputs:
        return expr.name, low
    return None


def input_pins(expr: BV, inputs: Mapping[str, int]) -> InputPins:
    """The primary-input bits that every model of *expr* fixes.

    Only the top-level conjunction of *expr* is read: a conjunct that is a
    1-bit input (or input bit), its negation, or an input or input slice
    ``.eq()`` a constant (on either side) pins those bits; every other
    conjunct (``|``, comparisons, anything over state or output names) pins
    nothing.  *inputs* maps the design's primary-input names to widths.
    When conjuncts disagree on a bit the first one wins; the assumption
    then folds to false wherever it is blasted over the pinned bits.
    """
    pins: InputPins = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVAnd):
            stack.extend(reversed(node.children))
            continue
        if isinstance(node, BVEq):
            left, right = node.children
            if isinstance(left, BVConst):
                left, right = right, left
            target = _input_field(left, inputs)
            if target is None or not isinstance(right, BVConst):
                continue
            name, low = target
            for offset in range(left.width):
                pins.setdefault((name, low + offset), (right.value >> offset) & 1)
            continue
        value = 1
        if isinstance(node, BVNot):
            node, value = node.children[0], 0
        target = _input_field(node, inputs)
        if target is not None and node.width == 1:
            pins.setdefault(target, value)
    return pins
