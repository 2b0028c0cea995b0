"""How the unroller blasts its frames: on demand when a query pins inputs,
forced in a fixed order otherwise.

A pinned query blasts only what its property window and assumptions read,
and only the live branch of an ``ite`` whose select the pins fold to a
constant.  An unpinned query must keep building the AIG an eager unroll
builds, node for node, because a renumbered AIG renumbers the CNF and moves
the solver's search; the digests below pin the clause lists of two such
queries, so a change that renumbers a QED formula fails here rather than
moving the benchmark oracle's counterexample lengths.
"""

import dataclasses
import hashlib

import pytest

from repro.bmc import BMCProblem, BoundedModelChecker, SafetyProperty
from repro.bmc import engine as engine_module
from repro.bmc.property import Assumption
from repro.eval import campaign
from repro.expr import AIG, BitBlaster, BVConst, BVVar, mux
from repro.qed.eddiv import QEDMode
from repro.qed.harness import SymbolicQED
from repro.rtl import Circuit, elaborate
from repro.sat.solver import CDCLSolver

SEL = BVVar("sel", 1)
PIN = Assumption("pin", ~SEL, only_cycle=0)
UNPINNED = dataclasses.replace(PIN, expr=PIN.expr | BVConst(1, 0))
PROP = SafetyProperty("never15", BVVar("value", 4).ne(BVConst(4, 15)), start_cycle=1)


def _design(dead_branch):
    """``acc`` takes ``a + b``, or *dead_branch* of ``a, b`` when ``sel``."""
    circuit = Circuit("dead_branch")
    sel = circuit.input("sel", 1)
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    acc = circuit.register("acc", 4, reset=0)
    acc.next = mux(sel, dead_branch(a, b), a + b)
    circuit.output("value", acc.q)
    return elaborate(circuit)


def _product(a, b):
    return a * b


def _zero(a, b):
    return BVConst(4, 0)


def _aig_of(design, pin):
    """The AIG of the check "``value != 15`` at cycle 1" under *pin*."""
    problem = BMCProblem(
        design=design,
        prop=PROP,
        assumptions=[pin],
        bound_schedule=[2],
        preprocess=False,
    )
    checker = BoundedModelChecker(problem)
    checker.run()
    return checker._unroller.aig


def _graph(aig):
    return [
        (aig.is_input(node), aig.node_children(node))
        for node in range(aig.num_nodes)
    ]


def _eager_aig(design, frames, blasts):
    """The AIG an eager unroll builds: each frame's outputs, assumptions and
    next-state functions in declaration order, then each ``(expr, frame)``
    of *blasts* with a fresh blaster over that frame's namespace."""
    aig = AIG()
    state = {
        element.name: BitBlaster.constant_bits(element.width, element.reset)
        for element in design.state
    }
    namespaces = []
    for _ in range(frames):
        blaster = BitBlaster(aig)
        namespace = dict(state)
        for name, width in design.inputs.items():
            namespace[name] = [aig.add_input() for _ in range(width)]
        for name, bits in namespace.items():
            blaster.bind(name, bits)
        outputs = {name: blaster.blast(e) for name, e in design.outputs.items()}
        for expr in design.assumptions.values():
            blaster.blast(expr)
        state = {
            element.name: blaster.blast(design.next_state[element.name])
            for element in design.state
        }
        namespaces.append({**outputs, **namespace})
    for expr, frame in blasts:
        blaster = BitBlaster(aig)
        for name, bits in namespaces[frame].items():
            blaster.bind(name, bits)
        blaster.blast(expr)
    return aig


def test_pinned_frame_skips_the_dead_branch():
    # With ``sel`` pinned to 0 the multiplier is dead: the check builds the
    # graph it builds when that branch is a constant.
    product = _graph(_aig_of(_design(_product), PIN))
    assert product == _graph(_aig_of(_design(_zero), PIN))
    # Forced frames blast the multiplier.
    assert len(_graph(_aig_of(_design(_product), UNPINNED))) > len(
        _graph(_aig_of(_design(_zero), UNPINNED))
    )


@pytest.mark.parametrize("dead_branch", [_product, _zero], ids=["product", "zero"])
def test_unpinned_frames_match_the_eager_unroll(dead_branch):
    design = _design(dead_branch)
    eager = _eager_aig(design, 2, [(UNPINNED.expr, 0), (PROP.expr, 1)])
    assert _graph(_aig_of(design, UNPINNED)) == _graph(eager)


def _handed_clauses(monkeypatch, run):
    """Digest and length of every clause the engine hands its solver."""
    handed = []

    class Recording(CDCLSolver):
        def add_clause(self, literals):
            handed.append(list(literals))
            super().add_clause(literals)

    monkeypatch.setattr(engine_module, "CDCLSolver", Recording)
    run()
    return hashlib.sha256(repr(handed).encode()).hexdigest(), len(handed)


def _prove_b_v6_eddiv_3():
    qed = SymbolicQED(
        "B.v6",
        mode=QEDMode.EDDIV,
        focus_opcodes=("LDI", "MOV", "INC", "ADD", "STA", "LDA"),
        tracked_registers=(0,),
    )
    assert not qed.check(max_bound=3).found_violation


def _detect_consecutive_sub():
    config = campaign.CampaignConfig(
        run_industrial_flow=False, run_directed_tests=False
    )
    assert campaign.detect_bug("consecutive_sub", config).detected_by["eddiv"]


@pytest.mark.parametrize(
    "run, digest, clauses",
    [
        pytest.param(
            _prove_b_v6_eddiv_3,
            "09e472ed689947d3a77670749904e3939f7eb4fc9f1336e84195f62511614443",
            1355,
            id="prove_B.v6_eddiv_3",
        ),
        pytest.param(
            _detect_consecutive_sub,
            "2e22637ac313752dbc95c85e7e4b34fba8577aaa56a3b393cd7801f81f419a7c",
            17071,
            id="detect_consecutive_sub",
        ),
    ],
)
def test_unpinned_clause_lists_are_unchanged(monkeypatch, run, digest, clauses):
    assert _handed_clauses(monkeypatch, run) == (digest, clauses)
