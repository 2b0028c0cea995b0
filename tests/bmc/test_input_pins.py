"""Single-cycle input pins: the extractor and the engine's substitution."""

import pytest

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker, SafetyProperty
from repro.bmc.property import Assumption, input_pins
from repro.expr import AIG_FALSE, AIG_TRUE, BVConst, BVVar, mux
from repro.rtl import Circuit, elaborate

INPUTS = {"enable": 1, "mode": 4}
ENABLE = BVVar("enable", 1)
MODE = BVVar("mode", 4)


NINE = {("mode", 0): 1, ("mode", 1): 0, ("mode", 2): 0, ("mode", 3): 1}
SLICE = {("mode", 1): 0, ("mode", 2): 1}


@pytest.mark.parametrize(
    "expr, pins",
    [
        pytest.param(ENABLE, {("enable", 0): 1}, id="input"),
        pytest.param(~ENABLE, {("enable", 0): 0}, id="not_input"),
        pytest.param(~MODE[3], {("mode", 3): 0}, id="not_input_bit"),
        pytest.param(MODE.eq(BVConst(4, 9)), NINE, id="eq_const"),
        pytest.param(BVConst(4, 9).eq(MODE), NINE, id="const_eq"),
        pytest.param(MODE[1:3].eq(BVConst(2, 2)), SLICE, id="slice_eq_const"),
        pytest.param(BVConst(2, 2).eq(MODE[1:3]), SLICE, id="const_eq_slice"),
        pytest.param(
            ENABLE & (MODE[0:2].eq(BVConst(2, 3)) & ~MODE[3]),
            {("enable", 0): 1, ("mode", 0): 1, ("mode", 1): 1, ("mode", 3): 0},
            id="nested_and",
        ),
        pytest.param(BVConst(1, 1) & ENABLE, {("enable", 0): 1}, id="and_true"),
        # A contradiction keeps the first conjunct's value.
        pytest.param(ENABLE & ~ENABLE, {("enable", 0): 1}, id="contradiction"),
        pytest.param(ENABLE | BVConst(1, 0), {}, id="or_const"),
        pytest.param(ENABLE | MODE[0], {}, id="or"),
        pytest.param(MODE.ult(BVConst(4, 3)), {}, id="ult"),
        pytest.param(MODE.ne(BVConst(4, 3)), {}, id="ne"),
        pytest.param(~(ENABLE & MODE[0]), {}, id="nand"),
        pytest.param(MODE.eq(MODE), {}, id="eq_non_constant"),
        pytest.param(BVVar("count", 4).eq(BVConst(4, 1)), {}, id="state"),
        pytest.param(BVVar("count", 4)[0], {}, id="state_bit"),
        pytest.param(BVVar("value", 4).eq(BVConst(4, 1)), {}, id="output"),
    ],
)
def test_extractor(expr, pins):
    assert input_pins(expr, INPUTS) == pins


def _counter_design():
    circuit = Circuit("pinned_counter")
    enable = circuit.input("enable", 1)
    circuit.input("mode", 4)
    count = circuit.register("count", 4, reset=0)
    count.next = mux(enable, count.q + BVConst(4, 1), count.q)
    circuit.output("value", count.q)
    return elaborate(circuit)


def _check(pins, never):
    """BMC of ``count != never`` with each of *pins* assumed at cycle 0."""
    problem = BMCProblem(
        design=_counter_design(),
        prop=SafetyProperty("never", BVVar("count", 4).ne(BVConst(4, never))),
        assumptions=[
            Assumption(f"pin{index}", expr, only_cycle=0)
            for index, expr in enumerate(pins)
        ],
        max_bound=6,
    )
    checker = BoundedModelChecker(problem)
    return checker, checker.run()


class TestEngine:
    def test_pinned_bits_are_constants_in_the_frame(self):
        checker, _ = _check([ENABLE & MODE[1:3].eq(BVConst(2, 2))], never=1)
        frames = checker._unroller.frames
        assert frames[0].inputs["enable"] == [AIG_TRUE]
        assert frames[0].inputs["mode"][1:3] == [AIG_FALSE, AIG_TRUE]
        assert frames[0].inputs["mode"][0] > AIG_TRUE
        # The pin applies to its own cycle only.
        assert frames[1].inputs["enable"][0] > AIG_TRUE

    def test_counterexample_carries_the_pinned_value(self):
        # ``mode`` never reaches the property cone: only the pin decides it.
        _, result = _check([ENABLE & MODE.eq(BVConst(4, 9))], never=1)
        assert result.status is BMCStatus.VIOLATION
        trace = result.counterexample
        assert trace.inputs[0]["enable"] == 1
        assert trace.inputs[0]["mode"] == 9
        assert result.counterexample_length == 2

    def test_pinned_zero_delays_the_violation(self):
        _, result = _check([~ENABLE], never=3)
        assert result.status is BMCStatus.VIOLATION
        assert result.counterexample.inputs[0]["enable"] == 0
        assert result.counterexample_length == 5

    def test_contradictory_pins_admit_no_trace(self):
        _, result = _check([ENABLE, ~ENABLE], never=1)
        assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND

    def test_declined_pin_gives_the_same_verdict(self):
        pinned = ~ENABLE
        wrapped = pinned | BVConst(1, 0)
        assert input_pins(wrapped, INPUTS) == {}
        checker, unpinned = _check([wrapped], never=3)
        assert checker._unroller.frames[0].inputs["enable"][0] > AIG_TRUE
        _, substituted = _check([pinned], never=3)
        assert unpinned.status is substituted.status is BMCStatus.VIOLATION
        assert unpinned.counterexample_length == substituted.counterexample_length
        assert unpinned.counterexample.inputs[0]["enable"] == 0
