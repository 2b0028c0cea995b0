"""Circuit construction API.

A :class:`Circuit` collects primary inputs, registers, memories and named
outputs.  :class:`Module` adds hierarchical naming on top so re-usable blocks
(the QED module, the QED-CF module, pipeline stages, safety monitors) can be
instantiated several times without name clashes.

The description style is deliberately close to a synthesisable register
transfer level: every register has exactly one next-state expression and a
reset value, and all combinational logic is pure expressions over current
state and inputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.expr.bitvec import BV, BVConst, BVVar, mux


class RTLBuildError(ValueError):
    """Raised when a circuit is malformed (duplicate names, missing drivers)."""


class Register:
    """A flip-flop (or vector of flip-flops) with a reset value.

    The current-state value is read through :attr:`q` (a
    :class:`~repro.expr.bitvec.BVVar`); the next-state expression is assigned
    through :attr:`next` exactly once, or left unassigned to hold its value.
    """

    def __init__(self, name: str, width: int, reset: int = 0) -> None:
        if width <= 0:
            raise RTLBuildError(f"register {name!r} must have positive width")
        self.name = name
        self.width = width
        self.reset = reset & ((1 << width) - 1)
        self.q = BVVar(name, width)
        self._next: Optional[BV] = None

    @property
    def next(self) -> Optional[BV]:
        """The next-state expression (``None`` means "hold current value")."""
        return self._next

    @next.setter
    def next(self, expr: BV) -> None:
        if not isinstance(expr, BV):
            expr = BVConst(self.width, int(expr))
        if expr.width != self.width:
            raise RTLBuildError(
                f"register {self.name!r} is {self.width} bits but next-state "
                f"expression is {expr.width} bits"
            )
        self._next = expr

    def __repr__(self) -> str:
        return f"Register({self.name!r}, width={self.width}, reset={self.reset})"


class MemoryArray:
    """A small memory modelled as an array of registers.

    The microcontroller cores in this study have small architectural register
    files and small data memories, and the paper explicitly uses a dedicated
    memory model [Ecker 04] to avoid state-space blow-up during BMC; an array
    of registers with mux-tree reads is the equivalent here.
    """

    def __init__(
        self, circuit: "Circuit", name: str, depth: int, width: int, reset: int = 0
    ) -> None:
        if depth <= 0:
            raise RTLBuildError(f"memory {name!r} must have positive depth")
        self.name = name
        self.depth = depth
        self.width = width
        self.words: List[Register] = [
            circuit.register(f"{name}[{index}]", width, reset=reset)
            for index in range(depth)
        ]
        self._pending_next: List[BV] = [word.q for word in self.words]

    def read(self, address: BV) -> BV:
        """Combinational read of the word at *address* (mux tree)."""
        result: BV = self.words[0].q
        for index in range(1, self.depth):
            is_index = address.eq(BVConst(address.width, index))
            result = mux(is_index, self.words[index].q, result)
        return result

    def write(self, address: BV, data: BV, enable: BV) -> None:
        """Schedule a synchronous write of *data* at *address* when *enable*.

        Several writes may be scheduled in one cycle; later calls take
        priority over earlier ones for the same address, which matches the
        "last assignment wins" semantics of procedural RTL.
        """
        if data.width != self.width:
            raise RTLBuildError(
                f"memory {self.name!r} is {self.width} bits wide but the "
                f"written data is {data.width} bits"
            )
        for index, word in enumerate(self.words):
            is_index = address.eq(BVConst(address.width, index))
            take = enable & is_index
            self._pending_next[index] = mux(
                take, data, self._pending_next[index]
            )

    def finalize(self) -> None:
        """Commit the scheduled writes into the word registers."""
        for word, next_expr in zip(self.words, self._pending_next):
            word.next = next_expr

    def state_names(self) -> List[str]:
        """Names of the underlying word registers."""
        return [word.name for word in self.words]


class Circuit:
    """A flat synchronous circuit under construction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: Dict[str, BVVar] = {}
        self._registers: Dict[str, Register] = {}
        self._memories: Dict[str, MemoryArray] = {}
        self._outputs: Dict[str, BV] = {}
        self._assumptions: Dict[str, BV] = {}

    # ------------------------------------------------------------------
    def input(self, name: str, width: int) -> BVVar:
        """Declare a primary input and return its variable."""
        self._check_unused(name)
        variable = BVVar(name, width)
        self._inputs[name] = variable
        return variable

    def register(self, name: str, width: int, reset: int = 0) -> Register:
        """Declare a register and return it."""
        self._check_unused(name)
        register = Register(name, width, reset)
        self._registers[name] = register
        return register

    def memory(self, name: str, depth: int, width: int, reset: int = 0) -> MemoryArray:
        """Declare a register-array memory and return it."""
        if name in self._memories:
            raise RTLBuildError(f"duplicate memory name {name!r}")
        memory = MemoryArray(self, name, depth, width, reset)
        self._memories[name] = memory
        return memory

    def output(self, name: str, expr: BV) -> None:
        """Expose *expr* as a named combinational output."""
        if name in self._outputs:
            raise RTLBuildError(f"duplicate output name {name!r}")
        if not isinstance(expr, BV):
            raise RTLBuildError(f"output {name!r} must be a BV expression")
        self._outputs[name] = expr

    def assume(self, name: str, expr: BV) -> None:
        """Record an environmental constraint (a 1-bit expression).

        Assumptions constrain the primary inputs considered by the bounded
        model checker; the simulator checks them and reports violations (which
        would indicate a malformed testbench).
        """
        if expr.width != 1:
            raise RTLBuildError(f"assumption {name!r} must be 1 bit wide")
        if name in self._assumptions:
            raise RTLBuildError(f"duplicate assumption name {name!r}")
        self._assumptions[name] = expr

    def _check_unused(self, name: str) -> None:
        if name in self._inputs or name in self._registers:
            raise RTLBuildError(f"duplicate signal name {name!r}")

    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Dict[str, BVVar]:
        """Declared primary inputs."""
        return dict(self._inputs)

    @property
    def registers(self) -> Dict[str, Register]:
        """Declared registers (including memory words)."""
        return dict(self._registers)

    @property
    def memories(self) -> Dict[str, MemoryArray]:
        """Declared memories."""
        return dict(self._memories)

    @property
    def outputs(self) -> Dict[str, BV]:
        """Declared combinational outputs."""
        return dict(self._outputs)

    @property
    def assumptions(self) -> Dict[str, BV]:
        """Declared environmental constraints."""
        return dict(self._assumptions)

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"registers={len(self._registers)}, outputs={len(self._outputs)})"
        )


class Module:
    """A hierarchical building block contributing signals to a circuit.

    A module owns a dotted instance path and prefixes every signal it creates
    with that path, so two instances of the same block never collide.
    """

    def __init__(self, circuit: Circuit, path: str) -> None:
        self.circuit = circuit
        self.path = path

    def _qualify(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def input(self, name: str, width: int) -> BVVar:
        """Declare a primary input scoped to this module instance."""
        return self.circuit.input(self._qualify(name), width)

    def register(self, name: str, width: int, reset: int = 0) -> Register:
        """Declare a register scoped to this module instance."""
        return self.circuit.register(self._qualify(name), width, reset)

    def memory(self, name: str, depth: int, width: int, reset: int = 0) -> MemoryArray:
        """Declare a memory scoped to this module instance."""
        return self.circuit.memory(self._qualify(name), depth, width, reset)

    def output(self, name: str, expr: BV) -> None:
        """Expose a named output scoped to this module instance."""
        self.circuit.output(self._qualify(name), expr)

    def assume(self, name: str, expr: BV) -> None:
        """Record an assumption scoped to this module instance."""
        self.circuit.assume(self._qualify(name), expr)
