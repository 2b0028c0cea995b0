"""Immutable bit-vector expression nodes.

Expressions are built with ordinary Python operators on :class:`BV` objects::

    a = BVVar("a", 8)
    b = BVVar("b", 8)
    s = (a + b).eq(BVConst(8, 0))

Widths are checked eagerly: mixing operands of different widths raises
:class:`ExprError` instead of silently truncating, which is the class of
mistake that costs days when modelling RTL.

Every node is hashable and structurally comparable so downstream passes
(bit-blasting, unrolling) can memoise on node identity.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union


class ExprError(ValueError):
    """Raised on malformed expression construction (width mismatch etc.)."""


IntLike = Union[int, "BV"]


class BV:
    """Base class for bit-vector expressions.

    Subclasses define ``op`` (a short mnemonic), ``width`` and ``children``.
    Instances are immutable; all mutation produces new nodes.
    """

    __slots__ = ("width", "children", "_hash")

    op: str = "?"

    def __init__(self, width: int, children: Tuple["BV", ...]) -> None:
        if width <= 0:
            raise ExprError(f"bit-vector width must be positive, got {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("BV nodes are immutable")

    # -- structural identity -------------------------------------------------
    def _key(self) -> Tuple[object, ...]:
        return (self.op, self.width, self.children)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BV):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._key())
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- helpers --------------------------------------------------------------
    def _coerce(self, other: IntLike) -> "BV":
        if isinstance(other, BV):
            if other.width != self.width:
                raise ExprError(
                    f"width mismatch: {self.width} vs {other.width} "
                    f"({self!r} vs {other!r})"
                )
            return other
        if isinstance(other, int):
            return BVConst(self.width, other)
        raise ExprError(f"cannot use {other!r} as a bit-vector operand")

    @property
    def mask(self) -> int:
        """All-ones value of this expression's width."""
        return (1 << self.width) - 1

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: IntLike) -> "BV":
        return BVAdd(self, self._coerce(other))

    def __radd__(self, other: IntLike) -> "BV":
        return self._coerce(other).__add__(self)

    def __sub__(self, other: IntLike) -> "BV":
        return BVSub(self, self._coerce(other))

    def __rsub__(self, other: IntLike) -> "BV":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: IntLike) -> "BV":
        return BVMul(self, self._coerce(other))

    def __neg__(self) -> "BV":
        return BVNeg(self)

    # -- bitwise --------------------------------------------------------------
    def __and__(self, other: IntLike) -> "BV":
        return BVAnd(self, self._coerce(other))

    def __rand__(self, other: IntLike) -> "BV":
        return self.__and__(other)

    def __or__(self, other: IntLike) -> "BV":
        return BVOr(self, self._coerce(other))

    def __ror__(self, other: IntLike) -> "BV":
        return self.__or__(other)

    def __xor__(self, other: IntLike) -> "BV":
        return BVXor(self, self._coerce(other))

    def __rxor__(self, other: IntLike) -> "BV":
        return self.__xor__(other)

    def __invert__(self) -> "BV":
        return BVNot(self)

    # -- shifts ---------------------------------------------------------------
    def __lshift__(self, amount: IntLike) -> "BV":
        return BVShl(self, self._coerce_shift(amount))

    def __rshift__(self, amount: IntLike) -> "BV":
        return BVLshr(self, self._coerce_shift(amount))

    def arith_shift_right(self, amount: IntLike) -> "BV":
        """Arithmetic (sign-preserving) right shift."""
        return BVAshr(self, self._coerce_shift(amount))

    def _coerce_shift(self, amount: IntLike) -> "BV":
        if isinstance(amount, int):
            return BVConst(self.width, amount % (1 << self.width))
        if isinstance(amount, BV):
            return amount
        raise ExprError(f"cannot use {amount!r} as a shift amount")

    # -- comparisons (return 1-bit BV) ----------------------------------------
    def eq(self, other: IntLike) -> "BV":
        """Equality comparison (returns a 1-bit expression)."""
        return BVEq(self, self._coerce(other))

    def ne(self, other: IntLike) -> "BV":
        """Inequality comparison (returns a 1-bit expression)."""
        return BVNot(BVEq(self, self._coerce(other)))

    def ult(self, other: IntLike) -> "BV":
        """Unsigned less-than."""
        return BVUlt(self, self._coerce(other))

    def uge(self, other: IntLike) -> "BV":
        """Unsigned greater-than-or-equal."""
        return BVNot(BVUlt(self, self._coerce(other)))

    def slt(self, other: IntLike) -> "BV":
        """Signed less-than."""
        return BVSlt(self, self._coerce(other))

    # -- slicing --------------------------------------------------------------
    def __getitem__(self, index: Union[int, slice]) -> "BV":
        if isinstance(index, int):
            if index < 0:
                index += self.width
            if not 0 <= index < self.width:
                raise ExprError(
                    f"bit index {index} out of range for width {self.width}"
                )
            return BVExtract(self, index, index)
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise ExprError("bit slices must have step 1")
            low = 0 if index.start is None else index.start
            high = self.width - 1 if index.stop is None else index.stop - 1
            if low < 0:
                low += self.width
            if high < 0:
                high += self.width
            if not (0 <= low <= high < self.width):
                raise ExprError(
                    f"slice [{low}:{high}] out of range for width {self.width}"
                )
            return BVExtract(self, high, low)
        raise ExprError(f"invalid bit index {index!r}")

    def bit(self, index: int) -> "BV":
        """Return bit *index* (LSB = 0) as a 1-bit expression."""
        return self[index]

    def bool_not(self) -> "BV":
        """Logical negation of a 1-bit expression."""
        if self.width != 1:
            raise ExprError("bool_not requires a 1-bit expression")
        return BVNot(self)

    def implies(self, other: "BV") -> "BV":
        """Logical implication between 1-bit expressions."""
        if self.width != 1 or other.width != 1:
            raise ExprError("implies requires 1-bit expressions")
        return BVOr(BVNot(self), other)

    # -- misc -----------------------------------------------------------------
    def zext(self, width: int) -> "BV":
        """Zero-extend to *width* bits."""
        return zero_extend(self, width)

    def sext(self, width: int) -> "BV":
        """Sign-extend to *width* bits."""
        return sign_extend(self, width)

    def __repr__(self) -> str:
        kids = ", ".join(repr(child) for child in self.children)
        return f"{self.op}[{self.width}]({kids})"


class BVConst(BV):
    """A constant bit-vector value."""

    __slots__ = ("value",)
    op = "const"

    def __init__(self, width: int, value: int) -> None:
        super().__init__(width, ())
        object.__setattr__(self, "value", value & ((1 << width) - 1))

    def _key(self) -> Tuple[object, ...]:
        return (self.op, self.width, self.value)

    def __repr__(self) -> str:
        return f"BVConst({self.width}, {self.value})"


class BVVar(BV):
    """A free bit-vector variable (a symbolic input or state element)."""

    __slots__ = ("name",)
    op = "var"

    def __init__(self, name: str, width: int) -> None:
        super().__init__(width, ())
        object.__setattr__(self, "name", name)

    def _key(self) -> Tuple[object, ...]:
        return (self.op, self.width, self.name)

    def __repr__(self) -> str:
        return f"BVVar({self.name!r}, {self.width})"


class _Binary(BV):
    """Helper base class for binary operators with equal operand widths."""

    __slots__ = ()

    def __init__(self, left: BV, right: BV) -> None:
        if left.width != right.width:
            raise ExprError(
                f"{type(self).__name__}: width mismatch {left.width} vs {right.width}"
            )
        super().__init__(left.width, (left, right))


class _Compare(BV):
    """Helper base for comparisons: operands share a width, result is 1 bit."""

    __slots__ = ()

    def __init__(self, left: BV, right: BV) -> None:
        if left.width != right.width:
            raise ExprError(
                f"{type(self).__name__}: width mismatch {left.width} vs {right.width}"
            )
        super().__init__(1, (left, right))


class BVNot(BV):
    """Bitwise complement."""

    __slots__ = ()
    op = "not"

    def __init__(self, operand: BV) -> None:
        super().__init__(operand.width, (operand,))


class BVNeg(BV):
    """Two's-complement negation."""

    __slots__ = ()
    op = "neg"

    def __init__(self, operand: BV) -> None:
        super().__init__(operand.width, (operand,))


class BVAnd(_Binary):
    """Bitwise AND."""

    __slots__ = ()
    op = "and"


class BVOr(_Binary):
    """Bitwise OR."""

    __slots__ = ()
    op = "or"


class BVXor(_Binary):
    """Bitwise XOR."""

    __slots__ = ()
    op = "xor"


class BVAdd(_Binary):
    """Modular addition."""

    __slots__ = ()
    op = "add"


class BVSub(_Binary):
    """Modular subtraction."""

    __slots__ = ()
    op = "sub"


class BVMul(_Binary):
    """Modular multiplication."""

    __slots__ = ()
    op = "mul"


class BVShl(BV):
    """Logical shift left (shift amount may have any width)."""

    __slots__ = ()
    op = "shl"

    def __init__(self, value: BV, amount: BV) -> None:
        super().__init__(value.width, (value, amount))


class BVLshr(BV):
    """Logical shift right."""

    __slots__ = ()
    op = "lshr"

    def __init__(self, value: BV, amount: BV) -> None:
        super().__init__(value.width, (value, amount))


class BVAshr(BV):
    """Arithmetic shift right."""

    __slots__ = ()
    op = "ashr"

    def __init__(self, value: BV, amount: BV) -> None:
        super().__init__(value.width, (value, amount))


class BVEq(_Compare):
    """Equality (1-bit result)."""

    __slots__ = ()
    op = "eq"


class BVUlt(_Compare):
    """Unsigned less-than (1-bit result)."""

    __slots__ = ()
    op = "ult"


class BVSlt(_Compare):
    """Signed less-than (1-bit result)."""

    __slots__ = ()
    op = "slt"


class BVExtract(BV):
    """Bit-field extraction ``operand[high:low]`` (inclusive bounds)."""

    __slots__ = ("high", "low")
    op = "extract"

    def __init__(self, operand: BV, high: int, low: int) -> None:
        if not (0 <= low <= high < operand.width):
            raise ExprError(
                f"extract [{high}:{low}] out of range for width {operand.width}"
            )
        super().__init__(high - low + 1, (operand,))
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "low", low)

    def _key(self) -> Tuple[object, ...]:
        return (self.op, self.width, self.children, self.high, self.low)


class BVConcat(BV):
    """Concatenation; the first child is the most-significant part."""

    __slots__ = ()
    op = "concat"

    def __init__(self, parts: Sequence[BV]) -> None:
        if not parts:
            raise ExprError("concat requires at least one part")
        super().__init__(sum(part.width for part in parts), tuple(parts))


class BVIte(BV):
    """If-then-else multiplexer selected by a 1-bit condition."""

    __slots__ = ()
    op = "ite"

    def __init__(self, condition: BV, if_true: BV, if_false: BV) -> None:
        if condition.width != 1:
            raise ExprError("ite condition must be 1 bit wide")
        if if_true.width != if_false.width:
            raise ExprError(
                f"ite branches differ in width: {if_true.width} vs {if_false.width}"
            )
        super().__init__(if_true.width, (condition, if_true, if_false))


class BVReduceOr(BV):
    """OR-reduction of all bits (1-bit result)."""

    __slots__ = ()
    op = "redor"

    def __init__(self, operand: BV) -> None:
        super().__init__(1, (operand,))


class BVReduceAnd(BV):
    """AND-reduction of all bits (1-bit result)."""

    __slots__ = ()
    op = "redand"

    def __init__(self, operand: BV) -> None:
        super().__init__(1, (operand,))


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------
def concat(*parts: BV) -> BV:
    """Concatenate *parts*, most-significant first."""
    if len(parts) == 1:
        return parts[0]
    return BVConcat(parts)


def mux(condition: BV, if_true: IntLike, if_false: IntLike) -> BV:
    """Two-way multiplexer: ``condition ? if_true : if_false``."""
    if isinstance(if_true, int) and isinstance(if_false, int):
        raise ExprError("at least one mux branch must be a BV to infer width")
    if isinstance(if_true, int):
        assert isinstance(if_false, BV)
        if_true = BVConst(if_false.width, if_true)
    if isinstance(if_false, int):
        assert isinstance(if_true, BV)
        if_false = BVConst(if_true.width, if_false)
    return BVIte(condition, if_true, if_false)


# ``cond`` reads better when the branches are themselves conditions.
cond = mux


def zero_extend(value: BV, width: int) -> BV:
    """Zero-extend *value* to *width* bits (no-op when already that wide)."""
    if width < value.width:
        raise ExprError(f"cannot zero-extend width {value.width} to {width}")
    if width == value.width:
        return value
    return BVConcat((BVConst(width - value.width, 0), value))


def sign_extend(value: BV, width: int) -> BV:
    """Sign-extend *value* to *width* bits."""
    if width < value.width:
        raise ExprError(f"cannot sign-extend width {value.width} to {width}")
    if width == value.width:
        return value
    sign = value[value.width - 1]
    extension = mux(sign, BVConst(width - value.width, (1 << (width - value.width)) - 1), BVConst(width - value.width, 0))
    return BVConcat((extension, value))


def reduce_or(value: BV) -> BV:
    """Return 1 iff any bit of *value* is 1."""
    return BVReduceOr(value)


def reduce_and(value: BV) -> BV:
    """Return 1 iff every bit of *value* is 1."""
    return BVReduceAnd(value)


def all_of(conditions: Iterable[BV]) -> BV:
    """AND together 1-bit *conditions* (returns constant 1 for empty input)."""
    result: BV = BVConst(1, 1)
    for condition in conditions:
        if condition.width != 1:
            raise ExprError("all_of requires 1-bit conditions")
        result = BVAnd(result, condition)
    return result


def any_of(conditions: Iterable[BV]) -> BV:
    """OR together 1-bit *conditions* (returns constant 0 for empty input)."""
    result: BV = BVConst(1, 0)
    for condition in conditions:
        if condition.width != 1:
            raise ExprError("any_of requires 1-bit conditions")
        result = BVOr(result, condition)
    return result
