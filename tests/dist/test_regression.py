"""Sequential vs. distributed Symbolic QED: verdicts must never diverge.

The distributed proof engine is a pure scheduling change -- cube partition
and worker pool -- so on every one of the sixteen design versions of the
case study, inline and over a two-worker pool, it must return exactly the
verdict of the sequential engine, and its counterexamples must replay (the harness
interprets them through the same simulator path).  Small bounds keep the
sweep inside the tier-1 budget; the detection SAT side is exercised by the
A.v5 QED-mem bug, whose counterexample fits the small-bound regime.
"""

import json

import pytest

from repro.dist import SplitConfig
from repro.qed import QEDMode, SymbolicQED
from repro.uarch.versions import ALL_VERSIONS

#: The campaign's baseline focus set: legal in EDDI-V mode on every version.
FOCUS = ["LDI", "MOV", "INC", "ADD"]
SMALL_BOUND = 4


class TestAllVersionsAgree:
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    @pytest.mark.parametrize(
        "version", ALL_VERSIONS, ids=[v.name for v in ALL_VERSIONS]
    )
    def test_sequential_and_distributed_verdicts_match(self, version, workers):
        harness = SymbolicQED(
            version, mode=QEDMode.EDDIV, focus_opcodes=FOCUS
        )
        sequential = harness.check(max_bound=SMALL_BOUND)
        distributed = harness.check(
            max_bound=SMALL_BOUND, split=SplitConfig(workers=workers)
        )
        assert distributed.found_violation == sequential.found_violation
        assert (
            distributed.bmc_result.frames_proven
            == sequential.bmc_result.frames_proven
        )
        assert distributed.cubes_solved > 0
        assert sequential.cubes_solved == 0


class TestDetectionSide:
    def test_qed_mem_bug_detected_by_both_engines(self):
        harness = SymbolicQED(
            "A.v5", mode=QEDMode.EDDIV_MEM, tracked_registers=(0,)
        )
        sequential = harness.check(max_bound=9)
        distributed = harness.check(max_bound=9, split=SplitConfig(workers=1))
        assert sequential.found_violation
        assert distributed.found_violation
        # Equivalent counterexamples after replay: both traces came back
        # through the simulator and were interpreted as QED failures.
        assert sequential.counterexample is not None
        assert distributed.counterexample is not None
        assert (
            distributed.counterexample.length_cycles
            <= distributed.bmc_result.bound_reached
        )


class TestDistributedDeterminism:
    def test_single_worker_qed_run_is_byte_identical(self):
        def run():
            harness = SymbolicQED(
                "B.v6", mode=QEDMode.EDDIV, focus_opcodes=FOCUS
            )
            result = harness.check(
                max_bound=3, split=SplitConfig(workers=1)
            )
            rows = []
            for stats in result.per_bound_stats:
                cubes = (
                    [
                        [
                            list(c.literals),
                            c.verdict,
                            c.depth,
                            c.conflicts,
                            c.decisions,
                            c.propagations,
                            c.learned_clauses,
                        ]
                        for c in stats.dist.cubes
                    ]
                    if stats.dist
                    else None
                )
                rows.append(
                    [stats.bound, stats.verdict, stats.conflicts, cubes]
                )
            return json.dumps(rows, sort_keys=True)

        assert run() == run()


class TestDynamicResplitting:
    def test_tiny_cube_budget_resplits_but_verdict_stands(self):
        harness = SymbolicQED(
            "B.v6", mode=QEDMode.EDDIV, focus_opcodes=FOCUS
        )
        reference = harness.check(max_bound=SMALL_BOUND)
        squeezed = harness.check(
            max_bound=SMALL_BOUND,
            split=SplitConfig(workers=1, cube_conflict_budget=10),
        )
        assert squeezed.found_violation == reference.found_violation
        assert squeezed.cubes_resplit > 0


class TestConflictBudgetUnknown:
    def test_exhausted_budget_yields_unknown_not_false_proof(self):
        # B.v6 EDDI-V at bound 4 needs real conflicts (unlike the folding
        # counter designs), so a 1-conflict global budget must end UNKNOWN
        # with the final window unproven -- never a fake proof.
        harness = SymbolicQED(
            "B.v6", mode=QEDMode.EDDIV, focus_opcodes=FOCUS
        )
        result = harness.check(
            max_bound=SMALL_BOUND,
            single_query=False,
            max_conflicts_per_query=1,
            split=SplitConfig(workers=1, cube_conflict_budget=1),
        )
        bmc = result.bmc_result
        assert not result.found_violation
        assert bmc.frames_proven < SMALL_BOUND
        assert any(s.verdict == "unknown" for s in bmc.per_bound_stats)
