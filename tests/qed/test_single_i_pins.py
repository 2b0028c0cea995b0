"""Single-I verdicts with and without the cycle-0 pin substitution.

The engine unrolls the bits ``pin_<instr>`` fixes as constants.  Wrapping
the pin as ``pin | 0`` hides its shape from the extractor (the AIG folds the
wrapper away), so the same check runs on the unsubstituted encoding; the
two must agree on every instruction, and every counterexample must replay
with the pin holding at cycle 0.
"""

import dataclasses

import pytest

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker
from repro.bmc.property import input_pins
from repro.bmc.trace import property_holds_at, replay_inputs
from repro.expr import BVConst
from repro.indverif import OCSFVChecker
from repro.isa.arch import TINY_PROFILE
from repro.qed import SingleIChecker
from repro.uarch.versions import ALL_VERSIONS

CHECKERS = {
    "single_i": lambda version: SingleIChecker(version, arch=TINY_PROFILE),
    "ocsfv": lambda version: OCSFVChecker(version, arch=TINY_PROFILE)._checker,
}


def _run(checker, instr, assumptions):
    problem = BMCProblem(
        design=checker.design,
        prop=checker.property_for(instr),
        assumptions=assumptions,
        initial_state=checker.initial_state(),
        max_bound=2,
    )
    return BoundedModelChecker(problem).run()


def _assert_replays(checker, instr, result, pins):
    trace = result.counterexample
    design = checker.design
    prop = checker.property_for(instr).expr
    replayed = replay_inputs(
        design, trace.inputs, prop, trace.property_name,
        initial_state=trace.states[0],
    )
    assert not property_holds_at(design, replayed, prop, replayed.length - 1)
    for pin in pins:
        assert property_holds_at(design, replayed, pin.expr, 0)


def _assert_pins_match_unpinned(version, settings):
    checker = CHECKERS[settings](version)
    for instr in checker.instructions:
        pins = checker.assumptions_for(instr)
        assert all(input_pins(pin.expr, checker.design.inputs) for pin in pins)
        wrapped = [
            dataclasses.replace(pin, expr=pin.expr | BVConst(1, 0))
            for pin in pins
        ]
        assert not any(input_pins(pin.expr, checker.design.inputs) for pin in wrapped)
        substituted = _run(checker, instr, pins)
        unsubstituted = _run(checker, instr, wrapped)
        assert substituted.status is unsubstituted.status, instr.name
        for result in (substituted, unsubstituted):
            if result.status is BMCStatus.VIOLATION:
                _assert_replays(checker, instr, result, pins)


@pytest.mark.parametrize("settings", sorted(CHECKERS))
def test_pin_differential(settings):
    _assert_pins_match_unpinned("A.v6", settings)


@pytest.mark.slow
@pytest.mark.parametrize("settings", sorted(CHECKERS))
@pytest.mark.parametrize("version", [version.name for version in ALL_VERSIONS])
def test_pin_differential_all_versions(version, settings):
    _assert_pins_match_unpinned(version, settings)
