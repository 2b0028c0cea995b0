"""Bit-blasting of word-level expressions into an AIG.

The :class:`BitBlaster` maintains a single :class:`~repro.expr.aig.AIG` and a
binding from :class:`~repro.expr.bitvec.BVVar` names to lists of AIG literals
(LSB first).  The BMC unroller binds state variables of frame *k+1* to the
blasted next-state functions of frame *k*, which is how the transition
relation is composed without ever introducing intermediate CNF variables for
unchanged bits.

Word operations whose operands are all constant are folded here, before
any per-bit gate call: the AIG would fold them to the same constants, so
the graph is unchanged and only the calls are saved.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.expr.aig import AIG, AIG_FALSE, AIG_TRUE
from repro.expr.bitvec import (
    BV,
    BVAdd,
    BVAnd,
    BVAshr,
    BVConcat,
    BVConst,
    BVEq,
    BVExtract,
    BVIte,
    BVLshr,
    BVMul,
    BVNeg,
    BVNot,
    BVOr,
    BVReduceAnd,
    BVReduceOr,
    BVShl,
    BVSlt,
    BVSub,
    BVUlt,
    BVVar,
    BVXor,
    ExprError,
)

Bits = List[int]


def _is_constant(bits: Bits) -> bool:
    """Whether every literal of *bits* is ``AIG_FALSE`` or ``AIG_TRUE``."""
    return max(bits) <= AIG_TRUE


class BitBlaster:
    """Translate bit-vector expressions into AIG literals.

    A variable's literals come from :meth:`bind`, or, when the blaster was
    given ``resolve``, from ``resolve(name)`` the first time an expression
    reads an unbound name.  With ``live_branch_only`` an ``ite`` whose
    select folds to a constant blasts only the branch it selects, so the
    dead branch creates no AIG node.

    The BMC unroller gives each time frame one blaster whose ``resolve``
    looks up the frame's state and outputs.  For a query that pins inputs
    (Single-I, OCS-FV) the frame is demand-driven: a signal is blasted only
    when the property window or an assumption reads it, and dead branches
    are skipped.  Every other query's frames force all of their outputs,
    assumptions and next-state functions as they are built, in a fixed
    order, and blast both branches: fewer or reordered AIG nodes would
    renumber the CNF, and a renumbered CNF moves the solver's search.
    """

    def __init__(
        self,
        aig: Optional[AIG] = None,
        *,
        resolve: Optional[Callable[[str], Bits]] = None,
        live_branch_only: bool = False,
    ) -> None:
        self.aig = aig if aig is not None else AIG()
        self._bindings: Dict[str, Bits] = {}
        self._cache: Dict[BV, Bits] = {}
        self._resolve = resolve
        self._live_branch_only = live_branch_only

    # ------------------------------------------------------------------
    # Variable binding
    # ------------------------------------------------------------------
    def bind(self, name: str, bits: Bits) -> None:
        """Bind variable *name* to an explicit list of AIG literals."""
        self._bindings[name] = list(bits)
        self._cache.clear()

    def forget(self) -> None:
        """Drop the memo of blasted sub-expressions; bindings stay."""
        self._cache.clear()

    def fresh_input(self, name: str, width: int) -> Bits:
        """Create fresh primary inputs for *name* and bind them."""
        bits = [self.aig.add_input(f"{name}[{i}]") for i in range(width)]
        self.bind(name, bits)
        return bits

    def lookup(self, name: str) -> Bits:
        """Return the literals bound to *name*."""
        if name not in self._bindings:
            raise ExprError(f"variable {name!r} is not bound")
        return list(self._bindings[name])

    @staticmethod
    def constant_bits(width: int, value: int) -> Bits:
        """Return constant literals for *value* at *width* bits (LSB first)."""
        return [
            AIG_TRUE if (value >> i) & 1 else AIG_FALSE for i in range(width)
        ]

    # ------------------------------------------------------------------
    # Blasting
    # ------------------------------------------------------------------
    def blast(self, expr: BV) -> Bits:
        """Return the AIG literals (LSB first) computing *expr*."""
        cached = self._cache.get(expr)
        if cached is not None:
            return list(cached)
        bits = self._blast_node(expr)
        if len(bits) != expr.width:
            raise AssertionError(
                f"internal error: blasted width {len(bits)} != {expr.width}"
            )
        self._cache[expr] = list(bits)
        return bits

    def blast_bit(self, expr: BV) -> int:
        """Blast a 1-bit expression and return its single literal."""
        if expr.width != 1:
            raise ExprError("blast_bit requires a 1-bit expression")
        return self.blast(expr)[0]

    # ------------------------------------------------------------------
    def _blast_node(self, expr: BV) -> Bits:
        aig = self.aig
        if isinstance(expr, BVConst):
            return self.constant_bits(expr.width, expr.value)
        if isinstance(expr, BVVar):
            bits = self._bindings.get(expr.name)
            if bits is None:
                if self._resolve is None:
                    raise ExprError(
                        f"variable {expr.name!r} has no binding; call bind() "
                        "or fresh_input() before blasting"
                    )
                bits = self._bindings[expr.name] = self._resolve(expr.name)
            if len(bits) != expr.width:
                raise ExprError(
                    f"variable {expr.name!r} bound to {len(bits)} bits but "
                    f"used with width {expr.width}"
                )
            return list(bits)
        if isinstance(expr, BVNot):
            return [aig.negate(bit) for bit in self.blast(expr.children[0])]
        if isinstance(expr, BVNeg):
            operand = self.blast(expr.children[0])
            inverted = [aig.negate(bit) for bit in operand]
            one = self.constant_bits(expr.width, 1)
            result, _ = aig.ripple_add(inverted, one)
            return result
        if isinstance(expr, BVAnd):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            if _is_constant(left) and _is_constant(right):
                return [a & b for a, b in zip(left, right)]
            return [aig.and_gate(a, b) for a, b in zip(left, right)]
        if isinstance(expr, BVOr):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            if _is_constant(left) and _is_constant(right):
                return [a | b for a, b in zip(left, right)]
            return [aig.or_gate(a, b) for a, b in zip(left, right)]
        if isinstance(expr, BVXor):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            if _is_constant(left) and _is_constant(right):
                return [a ^ b for a, b in zip(left, right)]
            return [aig.xor_gate(a, b) for a, b in zip(left, right)]
        if isinstance(expr, BVAdd):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            result, _ = aig.ripple_add(left, right)
            return result
        if isinstance(expr, BVSub):
            left = self.blast(expr.children[0])
            right = [aig.negate(bit) for bit in self.blast(expr.children[1])]
            result, _ = aig.ripple_add(left, right, AIG_TRUE)
            return result
        if isinstance(expr, BVMul):
            return self._blast_multiply(expr)
        if isinstance(expr, (BVShl, BVLshr, BVAshr)):
            return self._blast_shift(expr)
        if isinstance(expr, BVEq):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            if _is_constant(left) and _is_constant(right):
                return [AIG_TRUE if left == right else AIG_FALSE]
            return [aig.equal(left, right)]
        if isinstance(expr, BVUlt):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            return [aig.unsigned_less_than(left, right)]
        if isinstance(expr, BVSlt):
            left = self.blast(expr.children[0])
            right = self.blast(expr.children[1])
            # Signed comparison: flip the sign bits and compare unsigned.
            left_flipped = list(left)
            right_flipped = list(right)
            left_flipped[-1] = aig.negate(left_flipped[-1])
            right_flipped[-1] = aig.negate(right_flipped[-1])
            return [aig.unsigned_less_than(left_flipped, right_flipped)]
        if isinstance(expr, BVExtract):
            bits = self.blast(expr.children[0])
            return bits[expr.low : expr.high + 1]
        if isinstance(expr, BVConcat):
            # children are MSB-first; the result list is LSB-first.
            result: Bits = []
            for child in reversed(expr.children):
                result.extend(self.blast(child))
            return result
        if isinstance(expr, BVIte):
            select = self.blast(expr.children[0])[0]
            if self._live_branch_only and select <= AIG_TRUE:
                return self.blast(expr.children[1 if select else 2])
            if_true = self.blast(expr.children[1])
            if_false = self.blast(expr.children[2])
            return [
                aig.mux_gate(select, t, f) for t, f in zip(if_true, if_false)
            ]
        if isinstance(expr, BVReduceOr):
            return [aig.or_many(self.blast(expr.children[0]))]
        if isinstance(expr, BVReduceAnd):
            return [aig.and_many(self.blast(expr.children[0]))]
        raise ExprError(f"cannot bit-blast expression node {expr!r}")

    def _blast_multiply(self, expr: BVMul) -> Bits:
        aig = self.aig
        width = expr.width
        left = self.blast(expr.children[0])
        right = self.blast(expr.children[1])
        accumulator = self.constant_bits(width, 0)
        for shift, control in enumerate(right):
            if control == AIG_FALSE:
                continue
            partial = (
                self.constant_bits(shift, 0)[:shift]
                + [aig.and_gate(control, bit) for bit in left[: width - shift]]
            )
            accumulator, _ = aig.ripple_add(accumulator, partial)
        return accumulator

    def _blast_shift(self, expr: BV) -> Bits:
        aig = self.aig
        width = expr.width
        value = self.blast(expr.children[0])
        amount_expr = expr.children[1]
        # Fast path: constant shift amount.
        if isinstance(amount_expr, BVConst):
            return self._shift_by_constant(expr, value, amount_expr.value)
        amount = self.blast(amount_expr)
        # Barrel shifter: apply conditional shifts by powers of two.
        stages = max(1, (width - 1).bit_length())
        result = list(value)
        for stage in range(stages):
            distance = 1 << stage
            if stage < len(amount):
                control = amount[stage]
            else:
                control = AIG_FALSE
            shifted = self._shift_by_constant(expr, result, distance)
            result = [
                aig.mux_gate(control, s, r) for s, r in zip(shifted, result)
            ]
        # Amount bits beyond the index range force the "overshift" result.
        overshift = aig.or_many(amount[stages:]) if len(amount) > stages else AIG_FALSE
        if overshift != AIG_FALSE:
            flushed = self._shift_by_constant(expr, value, width)
            result = [
                aig.mux_gate(overshift, f, r) for f, r in zip(flushed, result)
            ]
        return result

    def _shift_by_constant(self, expr: BV, value: Bits, amount: int) -> Bits:
        width = len(value)
        aig = self.aig
        if isinstance(expr, BVShl):
            fill = [AIG_FALSE] * min(amount, width)
            return (fill + value)[:width]
        if isinstance(expr, BVLshr):
            kept = value[amount:] if amount < width else []
            return kept + [AIG_FALSE] * (width - len(kept))
        if isinstance(expr, BVAshr):
            sign = value[-1]
            kept = value[amount:] if amount < width else []
            return kept + [sign] * (width - len(kept))
        raise ExprError(f"not a shift expression: {expr!r}")
