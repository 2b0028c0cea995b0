"""Single-I verdicts against the encodings the checker does not use.

The engine unrolls the bits ``pin_<instr>`` fixes as constants, and a query
with pinned bits unrolls on demand: it blasts only what its property window
and assumptions read, and only the live branch of an ``ite`` whose select
the pins fold to a constant.  Wrapping the pin as ``pin | 0`` hides its
shape from the extractor (the AIG folds the wrapper away), so the same
check runs on the unsubstituted encoding, whose frames are blasted eagerly;
the two must agree on every instruction's verdict and counterexample
length, and every counterexample must replay with the pin holding at
cycle 0.

The checker also skips CNF preprocessing, so its verdicts and
counterexample lengths must equal those of the same problem run with
``preprocess=True``.
"""

import dataclasses

import pytest

from repro.bmc import BMCProblem, BMCStatus, BoundedModelChecker
from repro.bmc.property import input_pins
from repro.bmc.trace import property_holds_at, replay_inputs
from repro.expr import BVConst
from repro.indverif import OCSFVChecker
from repro.isa.arch import TINY_PROFILE
from repro.qed import SingleIChecker, single_i
from repro.uarch.versions import ALL_VERSIONS

CHECKERS = {
    "single_i": lambda version: SingleIChecker(version, arch=TINY_PROFILE),
    "ocsfv": lambda version: OCSFVChecker(version, arch=TINY_PROFILE)._checker,
}
VERSIONS = [version.name for version in ALL_VERSIONS]


def _run(checker, instr, assumptions):
    """The checker's problem under *assumptions*, preprocessed."""
    problem = BMCProblem(
        design=checker.design,
        prop=checker.property_for(instr),
        assumptions=assumptions,
        initial_state=checker.initial_state(),
        max_bound=2,
        preprocess=True,
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
    """The pinned run, unrolled on demand, against the eager run of the
    unsubstituted ``pin | 0`` form: same verdict, same counterexample
    length."""
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
        assert (
            substituted.counterexample_length
            == unsubstituted.counterexample_length
        ), instr.name
        for result in (substituted, unsubstituted):
            if result.status is BMCStatus.VIOLATION:
                _assert_replays(checker, instr, result, pins)


@pytest.mark.parametrize("settings", sorted(CHECKERS))
def test_pin_differential(settings):
    _assert_pins_match_unpinned("A.v6", settings)


@pytest.mark.slow
@pytest.mark.parametrize("settings", sorted(CHECKERS))
@pytest.mark.parametrize("version", VERSIONS)
def test_pin_differential_all_versions(version, settings):
    _assert_pins_match_unpinned(version, settings)


def test_late_window_finishes():
    """A pinned query whose window starts at cycle 30 reads state that
    depends on every frame below it; the unroller resolves it bottom-up
    rather than with one nested blast per frame, so it finishes."""
    checker = SingleIChecker("A.v6", arch=TINY_PROFILE)
    instr = next(i for i in checker.instructions if i.name == "ADD")
    problem = BMCProblem(
        design=checker.design,
        prop=dataclasses.replace(checker.property_for(instr), start_cycle=30),
        assumptions=checker.assumptions_for(instr),
        initial_state=checker.initial_state(),
        bound_schedule=[32],
        preprocess=False,
    )
    result = BoundedModelChecker(problem).run()
    assert result.status is BMCStatus.NO_VIOLATION_WITHIN_BOUND
    assert result.frames_proven == 32


def _assert_preprocessing_changes_nothing(version, settings, monkeypatch):
    """Compare every check against its preprocessed run.

    Returns the instructions whose preprocessed run reduced a slab; the
    engine leaves slabs under 24 clauses alone, so on the others the two
    runs are the same encoding.
    """
    checker = CHECKERS[settings](version)
    own_runs = []

    class Recording(BoundedModelChecker):
        def run(self):
            own_runs.append(super().run())
            return own_runs[-1]

    monkeypatch.setattr(single_i, "BoundedModelChecker", Recording)
    reduced = []
    for instr in checker.instructions:
        verdict = checker.check_instruction(instr)
        own = own_runs[-1]
        assert all(stats.preprocess is None for stats in own.per_bound_stats)
        pins = checker.assumptions_for(instr)
        preprocessed = _run(checker, instr, pins)
        if any(s.preprocess is not None for s in preprocessed.per_bound_stats):
            reduced.append(instr.name)
        assert verdict.violated == preprocessed.found_violation, instr.name
        assert (
            verdict.counterexample_cycles == preprocessed.counterexample_length
        ), instr.name
        for result in (own, preprocessed):
            if result.found_violation:
                _assert_replays(checker, instr, result, pins)
    return reduced


@pytest.mark.parametrize(
    "settings, reduced",
    # Under Single-I only the violated SRA leaves a slab worth reducing
    # (736 clauses); under OCS-FV's concrete operands nothing does.
    [("ocsfv", []), ("single_i", ["SRA"])],
    ids=["ocsfv", "single_i"],
)
def test_preprocess_differential(settings, reduced, monkeypatch):
    assert (
        _assert_preprocessing_changes_nothing("A.v6", settings, monkeypatch)
        == reduced
    )


@pytest.mark.slow
@pytest.mark.parametrize("settings", sorted(CHECKERS))
@pytest.mark.parametrize("version", VERSIONS)
def test_preprocess_differential_all_versions(version, settings, monkeypatch):
    _assert_preprocessing_changes_nothing(version, settings, monkeypatch)
