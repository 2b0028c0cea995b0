"""Counterexample traces.

A :class:`CounterexampleTrace` is the BMC-side analogue of a waveform: for
every cycle it records the primary-input values chosen by the SAT solver and
the resulting state/output values obtained by concretely re-simulating the
design under those inputs.  Re-simulation doubles as an end-to-end sanity
check of the bit-blasting pipeline (the violated property is re-evaluated on
the concrete trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.expr.bitvec import BV
from repro.expr.eval import evaluate
from repro.rtl.design import Design
from repro.rtl.simulator import Simulator
from repro.rtl.waveform import Waveform


@dataclass
class CounterexampleTrace:
    """A concrete trace violating a safety property."""

    design_name: str
    property_name: str
    length: int
    inputs: List[Dict[str, int]] = field(default_factory=list)
    states: List[Dict[str, int]] = field(default_factory=list)
    outputs: List[Dict[str, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def state_at(self, cycle: int, name: str) -> int:
        """Value of state element *name* at the start of *cycle*."""
        return self.states[cycle][name]

    def to_waveform(self) -> Waveform:
        """Convert the trace into a :class:`~repro.rtl.waveform.Waveform`."""
        waveform = Waveform(self.design_name)
        for cycle in range(self.length):
            merged = dict(self.states[cycle])
            merged.update(self.inputs[cycle])
            waveform.record(cycle, merged, self.outputs[cycle])
        return waveform

    def summary(self, signals: Optional[List[str]] = None) -> str:
        """Human-readable rendering of the trace."""
        header = (
            f"counterexample for {self.property_name!r} on {self.design_name} "
            f"({self.length} cycles)"
        )
        return header + "\n" + self.to_waveform().as_table(signals)


def replay_inputs(
    design: Design,
    input_sequence: List[Dict[str, int]],
    property_expr: Optional[BV],
    property_name: str,
    initial_state: Optional[Dict[str, int]] = None,
) -> CounterexampleTrace:
    """Re-simulate *design* under *input_sequence* and build a trace.

    ``initial_state`` overrides the reset values of the named state elements
    before the first cycle; the BMC engine passes the solver-chosen values of
    symbolic start-state elements here, so the replay reproduces the model
    even when the trace does not begin at the concrete reset state.

    The simulator's assumption checking is disabled: the SAT solver already
    guarantees the assumptions hold, and environmental constraints written
    over output names cannot be checked by the plain simulator namespace.
    """
    simulator = Simulator(design, check_assumptions=False)
    for name, value in (initial_state or {}).items():
        simulator.poke(name, value)
    states: List[Dict[str, int]] = []
    outputs: List[Dict[str, int]] = []
    for inputs in input_sequence:
        states.append(simulator.state)
        outputs.append(simulator.step(inputs))
    trace = CounterexampleTrace(
        design_name=design.name,
        property_name=property_name,
        length=len(input_sequence),
        inputs=[dict(step) for step in input_sequence],
        states=states,
        outputs=outputs,
    )
    return trace


def property_holds_at(
    design: Design, trace: CounterexampleTrace, expr: BV, cycle: int
) -> bool:
    """Evaluate a property expression on a concrete trace cycle."""
    env: Dict[str, int] = dict(trace.states[cycle])
    env.update(trace.inputs[cycle])
    env.update(trace.outputs[cycle])
    return evaluate(expr, env) == 1
