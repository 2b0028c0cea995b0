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

Unrolling itself only *builds* AIG literals -- nothing is committed to CNF
here.  Downstream, the engine walks the cone of influence of the property
window (:meth:`repro.expr.aig.AIG.cone_of`) and the Tseitin encoder
translates exactly the reachable part, so frame outputs the property never
observes cost AIG nodes but no solver variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from repro.bmc.property import InputPins
from repro.expr.aig import AIG, AIG_FALSE, AIG_TRUE
from repro.expr.bitblast import BitBlaster, Bits
from repro.expr.bitvec import BV
from repro.rtl.design import Design

InitialState = Union[int, str]
SYMBOLIC = "symbolic"


@dataclass
class UnrolledFrame:
    """AIG literals of one time frame."""

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
        self._input_pins: Dict[int, InputPins] = dict(input_pins or {})
        # State literals entering the *next* frame to be built.
        self._incoming_state: Optional[Dict[str, Bits]] = None
        #: AIG input literals of the state elements that start symbolic;
        #: consumers (counterexample extraction) read the solver's chosen
        #: start state back through these.
        self.symbolic_initial: Dict[str, Bits] = {}

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of frames unrolled so far."""
        return len(self.frames)

    def _initial_state_bits(self, blaster: BitBlaster) -> Dict[str, Bits]:
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
                bits[element.name] = blaster.constant_bits(element.width, value)
        return bits

    def unroll_frame(self) -> UnrolledFrame:
        """Add one more time frame and return its literals."""
        frame_index = len(self.frames)
        blaster = BitBlaster(self.aig)

        if self._incoming_state is None:
            state_bits = self._initial_state_bits(blaster)
        else:
            state_bits = self._incoming_state

        # Bind current state.
        for name, bits in state_bits.items():
            blaster.bind(name, bits)

        # Fresh symbolic inputs for this frame, constants where pinned.
        pins = self._input_pins.get(frame_index, {})
        input_bits: Dict[str, Bits] = {}
        for name, width in self.design.inputs.items():
            input_bits[name] = [
                (AIG_TRUE if pins[(name, i)] else AIG_FALSE)
                if (name, i) in pins
                else self.aig.add_input(f"{name}@{frame_index}[{i}]")
                for i in range(width)
            ]
            blaster.bind(name, input_bits[name])

        # Outputs of this frame.
        output_bits: Dict[str, Bits] = {}
        for name, expr in self.design.outputs.items():
            output_bits[name] = blaster.blast(expr)

        # Design-level assumptions of this frame.
        assumption_bits: Dict[str, int] = {}
        for name, expr in self.design.assumptions.items():
            assumption_bits[name] = blaster.blast_bit(expr)

        frame = UnrolledFrame(
            index=frame_index,
            inputs=input_bits,
            state=state_bits,
            outputs=output_bits,
            assumption_bits=assumption_bits,
        )
        self.frames.append(frame)

        # Compute the state entering the next frame.
        next_bits: Dict[str, Bits] = {}
        for element in self.design.state:
            next_bits[element.name] = blaster.blast(
                self.design.next_state[element.name]
            )
        self._incoming_state = next_bits
        return frame

    def unroll(self, num_frames: int) -> List[UnrolledFrame]:
        """Ensure at least *num_frames* frames exist; return all frames."""
        while len(self.frames) < num_frames:
            self.unroll_frame()
        return self.frames

    # ------------------------------------------------------------------
    def blast_at_frame(self, expr: BV, frame_index: int) -> Bits:
        """Blast an expression over the design namespace at a given frame.

        The expression may reference input names, state names and output
        names of the design; output names resolve to the literal lists already
        computed for that frame.
        """
        if frame_index >= len(self.frames):
            raise IndexError(
                f"frame {frame_index} has not been unrolled "
                f"(have {len(self.frames)})"
            )
        frame = self.frames[frame_index]
        blaster = BitBlaster(self.aig)
        for name, bits in frame.state.items():
            blaster.bind(name, bits)
        for name, bits in frame.inputs.items():
            blaster.bind(name, bits)
        for name, bits in frame.outputs.items():
            if not blaster.is_bound(name):
                blaster.bind(name, bits)
        return blaster.blast(expr)

    def blast_bit_at_frame(self, expr: BV, frame_index: int) -> int:
        """Blast a 1-bit expression at a frame; return its single literal."""
        bits = self.blast_at_frame(expr, frame_index)
        if len(bits) != 1:
            raise ValueError("expected a 1-bit expression")
        return bits[0]
