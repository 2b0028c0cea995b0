"""Directed Simulation Tests (DST).

Designer-written testbenches that verify specific features or functions:
state transitions (reset, halt, restart), representative instructions of each
class, and the memory interface.  As in the paper, directed tests are not
meant to be comprehensive -- the suite below checks the architectural basics
and deliberately exercises "typical" scenarios rather than the corner-case
interactions where the seeded bugs hide; bugs found (and immediately fixed)
by designers during bring-up are not recorded, so DST contributes no entries
to the detection comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.isa.assembler import assemble
from repro.isa.encoding import nop_word
from repro.rtl.simulator import Simulator
from repro.uarch.core import dmem_word_name, register_word_name
from repro.uarch.designs import build_design
from repro.uarch.rom import RomProgram, attach_rom
from repro.uarch.versions import DesignVersion


@dataclass
class DirectedTest:
    """One directed test: a program plus expected architectural results."""

    name: str
    description: str
    source: str
    expected_regs: Dict[int, int] = field(default_factory=dict)
    expected_mem: Dict[int, int] = field(default_factory=dict)
    expect_halted: bool = True
    max_cycles: int = 64
    requires_extension: bool = False


@dataclass
class DirectedTestResult:
    """Outcome of one directed test on one design version."""

    test_name: str
    passed: bool
    failures: List[str] = field(default_factory=list)
    cycles: int = 0


class DirectedTestSuite:
    """A collection of directed tests runnable against any design version."""

    def __init__(self, arch: ArchParams = TINY_PROFILE) -> None:
        self.arch = arch
        self.tests: List[DirectedTest] = []

    def add(self, test: DirectedTest) -> None:
        """Add a test to the suite."""
        self.tests.append(test)

    # ------------------------------------------------------------------
    def run_test(
        self, version: Union[DesignVersion, str], test: DirectedTest
    ) -> DirectedTestResult:
        """Run one test on one design version and check its expectations."""
        design = build_design(version, arch=self.arch)
        program = assemble(test.source, self.arch)
        rom = RomProgram.from_program(program)
        driver = attach_rom(rom)
        simulator = Simulator(design)

        cycles = 0
        for _ in range(test.max_cycles):
            inputs = driver.inputs_for(simulator.peek("pc"))
            simulator.step(inputs)
            cycles += 1
            if simulator.peek("halted"):
                # Let the pipeline drain one more cycle for the final commit.
                simulator.step({"instr_in": nop_word(self.arch), "instr_valid": 0})
                cycles += 1
                break

        failures: List[str] = []
        if test.expect_halted and not simulator.peek("halted"):
            failures.append("core did not halt")
        for register, expected in test.expected_regs.items():
            actual = simulator.peek(register_word_name(register))
            if actual != expected:
                failures.append(
                    f"R{register} = {actual}, expected {expected}"
                )
        for address, expected in test.expected_mem.items():
            actual = simulator.peek(dmem_word_name(address))
            if actual != expected:
                failures.append(
                    f"mem[{address}] = {actual}, expected {expected}"
                )
        return DirectedTestResult(
            test_name=test.name,
            passed=not failures,
            failures=failures,
            cycles=cycles,
        )

    def run_all(
        self, version: Union[DesignVersion, str], *, with_extension: bool = True
    ) -> List[DirectedTestResult]:
        """Run every applicable test on one design version."""
        results = []
        for test in self.tests:
            if test.requires_extension and not with_extension:
                continue
            results.append(self.run_test(version, test))
        return results

    def detected_bug(self, results: List[DirectedTestResult]) -> bool:
        """Whether any directed test failed (i.e. a bug was observed)."""
        return any(not result.passed for result in results)


def default_directed_suite(arch: ArchParams = TINY_PROFILE) -> DirectedTestSuite:
    """The designer-written directed suite used across all versions.

    The programs verify basic functionality per instruction class; operand
    values are the "nice" values a designer reaches for, which is exactly why
    the seeded interaction bugs slip through (their triggers require specific
    back-to-back patterns the directed tests do not produce).
    """
    mask = arch.xlen_mask
    suite = DirectedTestSuite(arch)

    suite.add(
        DirectedTest(
            name="reset_and_halt",
            description="core comes out of reset executing and honours HALT",
            source="""
                LDI R1, #1
                NOP
                HALT
            """,
            expected_regs={1: 1},
        )
    )
    suite.add(
        DirectedTest(
            name="alu_basic",
            description="representative ALU register-register operations",
            source="""
                LDI R1, #3
                NOP
                LDI R2, #2
                NOP
                ADD R3, R1, R2
                NOP
                SUB R4, R1, R2
                NOP
                AND R5, R1, R2
                NOP
                HALT
            """,
            expected_regs={3: 5 & mask, 4: 1, 5: 2},
        )
    )
    suite.add(
        DirectedTest(
            name="immediate_and_unary",
            description="immediate ALU forms and unary operations",
            source="""
                LDI R1, #5
                NOP
                ADDI R2, R1, #2
                NOP
                NOT R3, R1
                NOP
                INC R4, R1
                NOP
                HALT
            """,
            expected_regs={2: 7 & mask, 3: (~5) & mask, 4: 6 & mask},
        )
    )
    suite.add(
        DirectedTest(
            name="memory_store_load",
            description="store then (later) load through the data memory",
            source="""
                LDI R1, #3
                NOP
                STA #1, R1
                NOP
                NOP
                LDA R2, #1
                NOP
                HALT
            """,
            expected_regs={2: 3},
            expected_mem={1: 3},
        )
    )
    suite.add(
        DirectedTest(
            name="branch_taken_and_not_taken",
            description="flag-based branch in both directions",
            source="""
                LDI R1, #1
                NOP
                CMPI R1, #1
                BZ @skip
                LDI R2, #7
            skip:
                LDI R3, #2
                NOP
                CMPI R1, #2
                BZ @end
                LDI R4, #4
                NOP
            end:
                HALT
            """,
            expected_regs={2: 0, 3: 2, 4: 4},
        )
    )
    suite.add(
        DirectedTest(
            name="jump_and_link",
            description="unconditional jumps and the link register",
            source="""
                JMP @target
                LDI R1, #7
            target:
                LDI R2, #1
                NOP
                HALT
            """,
            expected_regs={1: 0, 2: 1},
        )
    )
    suite.add(
        DirectedTest(
            name="saturating_add_extension",
            description="SATADD extension sanity (Designs B and C only)",
            source="""
                LDI R1, #3
                NOP
                LDI R2, #2
                NOP
                SATADD R3, R1, R2
                NOP
                HALT
            """,
            expected_regs={3: min(5, mask)},
            requires_extension=True,
        )
    )
    return suite
