"""Transition-relation unrolling.

The :class:`Unroller` takes an elaborated :class:`~repro.rtl.design.Design`
and produces, frame by frame, the AIG literals of every input, state element
and output.  Frame 0 state is bound either to concrete reset/initial values
(the QED-consistent start state of the paper) or to fresh symbolic inputs
(the "symbolic starting state" extension mentioned in the paper's future
directions).

Because the initial state of Symbolic QED runs is fully concrete, constant
folding inside the AIG collapses much of the early frames; this is the main
reason the pure-Python BMC stays fast enough for the benchmark harness.
Input bits pinned by a single-cycle assumption fold the same way (see
:class:`Unroller`).

Each frame has its own :class:`~repro.expr.bitblast.BitBlaster`, which
looks up the frame's state and outputs by name.  How much a frame blasts
depends on the query:

* A query that pins inputs (Single-I, OCS-FV) is **demand-driven**.  A
  frame starts with its inputs alone; an output, assumption or
  next-state function is blasted only when the property window or an
  assumption reads it, and an ``ite`` whose select the pins fold to a
  constant blasts only its live branch.  A state read at frame *k* is
  resolved bottom-up: the state it needs in the frames below is found
  first and blasted lowest frame first, so a late window costs no
  recursion per frame.  At frame 0 of a Single-I check, where the EX stage
  is empty, nothing of the ALU is blasted, and at frame 1 only the pinned
  opcode's result is.
* Every other query (Symbolic QED's detect, prove and cube queries)
  **forces** each frame as it is built: all outputs, then the design's
  assumptions, then every next-state function, in declaration order.  Its
  AIG, and so its CNF, is the one an eager unroll builds node for node.
  Blasting less there would renumber nodes, and the renumbered CNF would
  move the solver's search and the counterexamples it finds.

Unrolling itself only *builds* AIG literals -- nothing is committed to CNF
here.  Downstream, the engine walks the cone of influence of the property
window (:meth:`repro.expr.aig.AIG.cone_of`) and the Tseitin encoder
translates exactly the reachable part, so frame outputs the property never
observes cost AIG nodes but no solver variables.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Union

from repro.bmc.property import InputPins
from repro.expr.aig import AIG, AIG_FALSE, AIG_TRUE
from repro.expr.bitblast import BitBlaster, Bits
from repro.expr.bitvec import BV, ExprError
from repro.rtl.design import Design, collect_variables

InitialState = Union[int, str]
SYMBOLIC = "symbolic"


@dataclass
class UnrolledFrame:
    """AIG literals of one time frame.

    A demand-driven frame's ``state`` and ``outputs`` hold only what has
    been read so far; a forced frame's hold every element and output.
    """

    index: int
    inputs: Dict[str, Bits] = field(default_factory=dict)
    state: Dict[str, Bits] = field(default_factory=dict)
    outputs: Dict[str, Bits] = field(default_factory=dict)
    assumption_bits: Dict[str, int] = field(default_factory=dict)


class Unroller:
    """Unroll a design over successive time frames into a shared AIG.

    ``input_pins`` maps a frame index to the input bits fixed at that frame
    (``(name, bit) -> 0 or 1``); each such bit is the constant
    ``AIG_TRUE``/``AIG_FALSE`` in the frame's ``inputs`` instead of a fresh
    AIG input, so it folds through the logic it drives (Single-I's pinned
    instruction reduces decode and the ALU select to the one operation
    under test).  The caller must still assert whatever constraint implies
    the pins -- the unroller only changes how they are encoded.

    Pins also decide how frames are blasted (see the module docstring):
    with at least one pinned bit every frame is demand-driven, without any
    every frame is forced as it is built.  Either way :meth:`unroll` and
    :meth:`blast_at_frame` are the only entry points that blast.
    """

    def __init__(
        self,
        design: Design,
        *,
        initial_state: Optional[Mapping[str, InitialState]] = None,
        aig: Optional[AIG] = None,
        input_pins: Optional[Mapping[int, InputPins]] = None,
    ) -> None:
        self.design = design
        self.aig = aig if aig is not None else AIG()
        self.frames: List[UnrolledFrame] = []
        self._initial_overrides: Dict[str, InitialState] = dict(initial_state or {})
        self._input_pins: Dict[int, InputPins] = {
            frame: pins for frame, pins in (input_pins or {}).items() if pins
        }
        self._on_demand = bool(self._input_pins)
        #: One blaster per frame, parallel to ``frames``.
        self._blasters: List[BitBlaster] = []
        #: Forced frames: the next-state literals entering the next frame.
        self._incoming_state: Dict[str, Bits] = {}
        #: Demand-driven frames: the state names each next-state function
        #: reads, found when a state read first reaches below frame 1.
        self._state_reads: Dict[str, Set[str]] = {}
        #: AIG input literals of the state elements that start symbolic;
        #: consumers (counterexample extraction) read the solver's chosen
        #: start state back through these.
        self.symbolic_initial: Dict[str, Bits] = {}

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of frames unrolled so far."""
        return len(self.frames)

    def _initial_state_bits(self) -> Dict[str, Bits]:
        bits: Dict[str, Bits] = {}
        for element in self.design.state:
            override = self._initial_overrides.get(element.name)
            if override == SYMBOLIC:
                bits[element.name] = [
                    self.aig.add_input(f"{element.name}@init[{i}]")
                    for i in range(element.width)
                ]
                self.symbolic_initial[element.name] = bits[element.name]
            else:
                value = element.reset if override is None else int(override)
                bits[element.name] = BitBlaster.constant_bits(element.width, value)
        return bits

    def unroll_frame(self) -> UnrolledFrame:
        """Add one more time frame and return its literals."""
        design = self.design
        index = len(self.frames)
        if index == 0:
            state = self._initial_state_bits()
        elif self._on_demand:
            state = {}
        else:
            state = self._incoming_state
        # Fresh symbolic inputs for this frame, constants where pinned.
        pins = self._input_pins.get(index, {})
        inputs: Dict[str, Bits] = {
            name: [
                (AIG_TRUE if pins[(name, i)] else AIG_FALSE)
                if (name, i) in pins
                else self.aig.add_input(f"{name}@{index}[{i}]")
                for i in range(width)
            ]
            for name, width in design.inputs.items()
        }
        frame = UnrolledFrame(index=index, inputs=inputs, state=state)
        blaster = BitBlaster(
            self.aig,
            # Through a weak reference: a blaster that kept its unroller
            # alive would close a cycle, and every finished query's AIG
            # would wait for the cyclic garbage collector to be freed.
            resolve=functools.partial(
                Unroller._resolve, weakref.proxy(self), index
            ),
            live_branch_only=self._on_demand,
        )
        for name, bits in state.items():
            blaster.bind(name, bits)
        for name, bits in inputs.items():
            blaster.bind(name, bits)
        self.frames.append(frame)
        self._blasters.append(blaster)

        if not self._on_demand:
            for name, expr in design.outputs.items():
                frame.outputs[name] = blaster.blast(expr)
        for name, expr in design.assumptions.items():
            frame.assumption_bits[name] = blaster.blast_bit(expr)
        if not self._on_demand:
            self._incoming_state = {
                element.name: blaster.blast(design.next_state[element.name])
                for element in design.state
            }
            # Later blasts at a forced frame (property, assumptions) read
            # its signals by name, so the memo of its logic is dead weight.
            blaster.forget()
        return frame

    def unroll(self, num_frames: int) -> List[UnrolledFrame]:
        """Ensure at least *num_frames* frames exist; return all frames."""
        while len(self.frames) < num_frames:
            self.unroll_frame()
        return self.frames

    # ------------------------------------------------------------------
    def _resolve(self, index: int, name: str) -> Bits:
        """Literals of a name frame *index*'s blaster has not seen yet.

        State takes precedence over outputs, as inputs (bound when the
        frame is built) take precedence over both.
        """
        frame = self.frames[index]
        if name in self.design.next_state:
            if name not in frame.state:
                self._resolve_state(index, name)
            return frame.state[name]
        expr = self.design.outputs.get(name)
        if expr is None:
            raise ExprError(f"{name!r} is not a signal of {self.design.name!r}")
        bits = frame.outputs.get(name)
        if bits is None:
            bits = frame.outputs[name] = self._blasters[index].blast(expr)
        return bits

    def _resolve_state(self, index: int, name: str) -> None:
        """Blast state element *name* of demand-driven frame *index*.

        Walks down to the frames whose state this needs and blasts upward
        from the lowest, so each next-state function finds the state it
        reads already resolved.  Frame 0's state is always complete.
        """
        design = self.design
        chain = [(index, {name})]
        while index > 1:
            index -= 1
            below = self.frames[index].state
            missing = {
                read
                for element in chain[-1][1]
                for read in self._reads_of(element)
                if read not in below
            }
            if not missing:
                break
            chain.append((index, missing))
        for index, names in reversed(chain):
            blaster = self._blasters[index - 1]
            state = self.frames[index].state
            for element in design.state:
                if element.name in names and element.name not in state:
                    state[element.name] = blaster.blast(
                        design.next_state[element.name]
                    )

    def _reads_of(self, name: str) -> Set[str]:
        """The state names *name*'s next-state function reads."""
        reads = self._state_reads.get(name)
        if reads is None:
            next_state = self.design.next_state
            reads = self._state_reads[name] = {
                read
                for read in collect_variables([next_state[name]])
                if read in next_state
            }
        return reads

    # ------------------------------------------------------------------
    def blast_at_frame(self, expr: BV, frame_index: int) -> Bits:
        """Blast an expression over the design namespace at a given frame.

        The expression may reference input names, state names and output
        names of the design; an output name stands for the output's
        literals at that frame.
        """
        if frame_index >= len(self.frames):
            raise IndexError(
                f"frame {frame_index} has not been unrolled "
                f"(have {len(self.frames)})"
            )
        return self._blasters[frame_index].blast(expr)

    def blast_bit_at_frame(self, expr: BV, frame_index: int) -> int:
        """Blast a 1-bit expression at a frame; return its single literal."""
        bits = self.blast_at_frame(expr, frame_index)
        if len(bits) != 1:
            raise ValueError("expected a 1-bit expression")
        return bits[0]
