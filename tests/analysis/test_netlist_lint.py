"""Layer-1 netlist lint: a tripping and a clean fixture per check."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.findings import DesignLintError, ERROR, WARNING
from repro.analysis.netlist_lint import (
    CHECK_BAD_WIDTH,
    CHECK_BUGLIB_NO_DIFF,
    CHECK_BUGLIB_UNDECLARED,
    CHECK_COMB_CYCLE,
    CHECK_DANGLING_DRIVER,
    CHECK_DEAD_INPUT,
    CHECK_DEAD_STATE,
    CHECK_MULTIPLY_DRIVEN,
    CHECK_NO_NEXT_STATE,
    CHECK_QED_INJECTION,
    CHECK_QED_ISOLATION,
    CHECK_RESET_RANGE,
    CHECK_UNDRIVEN,
    CHECK_WIDTH_MISMATCH,
    check_design,
    expression_digest,
    lint_bug_library,
    lint_design,
)
from repro.expr import BVConst, BVVar, mux
from repro.rtl.design import Design, StateElement


def _design(**overrides) -> Design:
    """A minimal clean design: a 4-bit counter with an enable input."""
    enable = BVVar("enable", 1)
    count = BVVar("count", 4)
    fields = dict(
        name="fixture",
        inputs={"enable": 1},
        state=[StateElement("count", 4, 0)],
        next_state={"count": mux(enable, count + BVConst(4, 1), count)},
        outputs={"value": count},
        assumptions={},
    )
    fields.update(overrides)
    return Design(**fields)


def forge_cycle(width: int = 4):
    """An expression graph with a genuine cycle (normally unforgeable)."""
    var = BVVar("count", width)
    node = var + BVConst(width, 1)
    # BV.__setattr__ raises, so a cycle can only be forged this way --
    # which is exactly how a deserialization bug would do it.
    object.__setattr__(node, "children", (node, node.children[1]))
    return node


class TestCleanDesign:
    def test_counter_is_clean(self):
        report = lint_design(_design())
        assert report.ok
        assert report.findings == []

    def test_check_design_passes(self):
        check_design(_design())  # must not raise


class TestCombCycle:
    def test_forged_cycle_detected(self):
        report = lint_design(_design(next_state={"count": forge_cycle()}))
        assert not report.ok
        assert report.by_check(CHECK_COMB_CYCLE)

    def test_cycle_short_circuits_support_checks(self):
        # The report must come back (no hang) and carry only the cycle
        # finding -- support-based checks are skipped on a non-DAG.
        report = lint_design(_design(next_state={"count": forge_cycle()}))
        assert {f.check for f in report.findings} == {CHECK_COMB_CYCLE}

    def test_check_design_raises_with_report(self):
        with pytest.raises(DesignLintError) as excinfo:
            check_design(_design(next_state={"count": forge_cycle()}))
        assert excinfo.value.report.by_check(CHECK_COMB_CYCLE)
        assert "comb-cycle" in str(excinfo.value)

    def test_diamond_sharing_is_not_a_cycle(self):
        # Shared sub-DAGs (the common case after CSE) must not be
        # mistaken for cycles.
        shared = BVVar("count", 4) + BVConst(4, 1)
        expr = mux(BVVar("enable", 1), shared, shared ^ shared)
        report = lint_design(_design(next_state={"count": expr}))
        assert report.ok


class TestDeclarationChecks:
    def test_bad_input_width(self):
        report = lint_design(_design(inputs={"enable": 1, "ghostly": 0}))
        assert report.by_check(CHECK_BAD_WIDTH)

    def test_reset_out_of_range(self):
        report = lint_design(
            _design(state=[StateElement("count", 4, reset=16)])
        )
        assert report.by_check(CHECK_RESET_RANGE)

    def test_reset_in_range_clean(self):
        report = lint_design(
            _design(state=[StateElement("count", 4, reset=15)])
        )
        assert not report.by_check(CHECK_RESET_RANGE)

    def test_multiply_driven_input_vs_state(self):
        report = lint_design(_design(inputs={"enable": 1, "count": 4}))
        assert report.by_check(CHECK_MULTIPLY_DRIVEN)

    def test_dangling_driver(self):
        report = lint_design(
            _design(
                next_state={
                    "count": BVVar("count", 4),
                    "nosuch": BVConst(4, 0),
                }
            )
        )
        assert report.by_check(CHECK_DANGLING_DRIVER)


class TestSupportChecks:
    def test_undriven_net(self):
        report = lint_design(
            _design(next_state={"count": BVVar("ghost", 4)})
        )
        names = [f.where for f in report.by_check(CHECK_UNDRIVEN)]
        assert names == ["ghost"]

    def test_property_over_output_not_undriven(self):
        # The engine substitutes output expressions for output names read
        # by a property, so "value" is legal there...
        report = lint_design(_design(), prop=BVVar("value", 4).eq(0))
        assert report.ok

    def test_internal_output_reference_still_undriven(self):
        # ...but an *internal* expression reading an output name is not.
        report = lint_design(
            _design(next_state={"count": BVVar("value", 4)})
        )
        assert report.by_check(CHECK_UNDRIVEN)

    def test_missing_next_state(self):
        report = lint_design(_design(next_state={}))
        assert report.by_check(CHECK_NO_NEXT_STATE)

    def test_width_mismatch(self):
        report = lint_design(
            _design(next_state={"count": BVVar("count", 4).bit(0)})
        )
        assert report.by_check(CHECK_WIDTH_MISMATCH)

    def test_dead_input_is_warning_only(self):
        report = lint_design(
            _design(
                inputs={"enable": 1, "unused": 8},
            )
        )
        findings = report.by_check(CHECK_DEAD_INPUT)
        assert [f.severity for f in findings] == [WARNING]
        assert report.ok  # warnings never block

    def test_dead_state_is_warning_only(self):
        report = lint_design(
            _design(
                state=[
                    StateElement("count", 4, 0),
                    StateElement("shadow", 4, 0),
                ],
                next_state={
                    "count": BVVar("count", 4),
                    "shadow": BVVar("count", 4),
                },
            )
        )
        findings = report.by_check(CHECK_DEAD_STATE)
        assert [f.where for f in findings] == ["shadow"]
        assert report.ok

    def test_dead_state_whitelist(self):
        report = lint_design(
            _design(
                state=[
                    StateElement("count", 4, 0),
                    StateElement("hist_shadow", 4, 0),
                ],
                next_state={
                    "count": BVVar("count", 4),
                    "hist_shadow": BVVar("count", 4),
                },
            )
        )
        assert not report.by_check(CHECK_DEAD_STATE)


def _qed_design(share_state: bool = False, wire_input: bool = True) -> Design:
    """A toy QED-composed design: core counter + one QED queue register."""
    qed_instr = BVVar("qed.instr", 4)
    qed_queue = BVVar("qed.queue0", 4)
    count = BVVar("count", 4)
    queue_next = qed_instr if not share_state else qed_instr + count
    assumptions = {}
    if wire_input:
        # The wiring assumption couples the QED input into the core, the
        # way SymbolicQED's qed_wiring_instruction does.
        assumptions["qed.wiring"] = qed_instr.eq(count)
    return Design(
        name="qed-fixture",
        inputs={"qed.instr": 4},
        state=[
            StateElement("count", 4, 0),
            StateElement("qed.queue0", 4, 0),
        ],
        next_state={
            "count": count + BVConst(4, 1),
            "qed.queue0": queue_next,
        },
        outputs={},
        assumptions=assumptions,
    )


class TestQEDReadiness:
    def test_clean_composition(self):
        report = lint_design(
            _qed_design(), prop=BVVar("qed.queue0", 4).eq(BVVar("count", 4))
        )
        assert report.ok

    def test_state_sharing_trips_isolation(self):
        report = lint_design(
            _qed_design(share_state=True),
            prop=BVVar("qed.queue0", 4).eq(BVVar("count", 4)),
        )
        findings = report.by_check(CHECK_QED_ISOLATION)
        assert findings and findings[0].severity == ERROR
        assert "count" in findings[0].message

    def test_unwired_injection_unreachable(self):
        # Property reads only core state and no assumption couples the
        # QED input in: the focus-set constraints can't influence the
        # check, which is the bug this check exists to catch.
        report = lint_design(
            _qed_design(wire_input=False), prop=BVVar("count", 4).eq(0)
        )
        assert report.by_check(CHECK_QED_INJECTION)

    def test_assumption_coupling_reaches_input(self):
        # The same property becomes reachable once the wiring assumption
        # couples qed.instr to the core state the property reads.
        report = lint_design(
            _qed_design(wire_input=True), prop=BVVar("count", 4).eq(0)
        )
        assert not report.by_check(CHECK_QED_INJECTION)


class TestExpressionDigest:
    def test_digest_distinguishes_structure(self):
        a = BVVar("x", 4) + BVConst(4, 1)
        b = BVVar("x", 4) + BVConst(4, 2)
        assert expression_digest(a) != expression_digest(b)
        assert expression_digest(a) == expression_digest(
            BVVar("x", 4) + BVConst(4, 1)
        )

    def test_digest_terminates_on_forged_cycle(self):
        expression_digest(forge_cycle())  # must not hang

    def test_hashing_terminates_on_the_integration_cycle(self):
        # Both hashes cut a forged back edge.  A walk that followed it
        # would grow its stack forever, so the child runs under a memory
        # cap and a timeout: it fails, not hangs.
        here = os.path.dirname(os.path.abspath(__file__))
        child = textwrap.dedent(
            f"""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            sys.path.insert(0, {here!r})
            from test_lint_integration import _cyclic_design
            from repro.analysis.netlist_lint import expression_digest
            design = _cyclic_design()
            print(design.structural_hash())
            print(expression_digest(design.next_state["count"]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(here, os.pardir, os.pardir, "src"),
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digests = proc.stdout.split()
        assert len(digests) == 2
        assert all(len(digest) == 64 for digest in digests)


class TestBugLibrary:
    def test_real_library_is_clean(self):
        report = lint_bug_library()
        assert report.ok, report.render()

    def test_undeclared_diff_detected(self, monkeypatch):
        # Shrink a bug's declaration to a subset of what it really
        # touches: the stray signals must be reported.
        from repro.uarch import bugs as bugs_module

        bug = bugs_module.bug_by_id("jr_target_offby1")
        monkeypatch.setitem(
            bugs_module._BY_ID,
            "jr_target_offby1",
            # 'pc' still declared; 'cf_target' no longer is.
            __import__("dataclasses").replace(bug, signals=("pc",)),
        )
        report = lint_bug_library()
        findings = report.by_check(CHECK_BUGLIB_UNDECLARED)
        assert any("cf_target" in f.message for f in findings)

    def test_ineffective_declaration_detected(self, monkeypatch):
        # A bug none of whose declared patterns match the diff is not
        # doing what its declaration claims.
        from repro.uarch import bugs as bugs_module

        bug = bugs_module.bug_by_id("cmpi_carry_spec")
        monkeypatch.setitem(
            bugs_module._BY_ID,
            "cmpi_carry_spec",
            __import__("dataclasses").replace(
                bug, signals=("no_such_signal_*",)
            ),
        )
        report = lint_bug_library()
        assert report.by_check(CHECK_BUGLIB_NO_DIFF)

    def test_each_design_node_is_hashed_once(self, monkeypatch):
        # A node's digest is hashed from its children's, one memo per
        # design: the library lint of one version hashes each node of its
        # netlist and of its clean base exactly once, however many
        # signals share it.
        import hashlib
        from dataclasses import replace

        from repro.isa.arch import TINY_PROFILE
        from repro.uarch.core import build_core
        from repro.uarch.designs import build_design, config_for_version
        from repro.uarch.versions import version_by_name

        version = version_by_name("A.v6")
        buggy = build_design(version, arch=TINY_PROFILE)
        clean = build_core(
            replace(config_for_version(version, arch=TINY_PROFILE), bugs=frozenset())
        )

        def node_count(design):
            seen, stack = set(), [
                *design.next_state.values(),
                *design.outputs.values(),
                *design.assumptions.values(),
            ]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node.children)
            return len(seen)

        hashed = []
        sha256 = hashlib.sha256

        def counting(data=b""):
            hashed.append(data)
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        assert lint_bug_library([version]).ok
        assert len(hashed) == node_count(buggy) + node_count(clean)
