"""Constrained Random Simulation (CRS).

A UVM-style environment: a constrained stimulus generator produces random but
valid programs with the biases a verification plan would call out
(back-to-back register reuse, store/load address collisions, branch-heavy
sections), the RTL core executes them on the cycle-accurate simulator, and a
scoreboard compares the architectural state against the specification
(golden) model after every committed instruction.  Functional coverage is
collected by :mod:`repro.indverif.coverage`.

Because the scoreboard's reference is the *specification document* of the
design version, CRS finds every RTL bug whose trigger it manages to generate,
but is structurally blind to specification bugs -- which reproduces the
paper's Fig. 8/9 split (CRS finds all recorded logic bugs, Symbolic QED finds
one more).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.isa.encoding import decode, encode, nop_word
from repro.isa.golden import GoldenModel
from repro.isa.instructions import Instruction, instructions_for_design
from repro.indverif.coverage import CoverageModel
from repro.rtl.simulator import Simulator
from repro.uarch.core import dmem_word_name, register_word_name
from repro.uarch.designs import build_design, golden_model_for_version
from repro.uarch.versions import DesignVersion, version_by_name


@dataclass
class CRSConfig:
    """Knobs of the constrained-random environment."""

    num_programs: int = 40
    program_length: int = 24
    seed: int = 2019
    #: probability of re-using the previous destination register as this
    #: instruction's destination or source (RAW/WAW hazard bias).
    reuse_register_bias: float = 0.35
    #: probability of a memory instruction re-using the previous address.
    reuse_address_bias: float = 0.5
    #: fraction of control-flow instructions in the mix.
    control_flow_fraction: float = 0.15
    max_cycles_per_program: int = 64

    # -- canonical serialization ---------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical, versioned JSON form (every knob explicit, sorted)."""
        return {
            "format": 1,
            "num_programs": self.num_programs,
            "program_length": self.program_length,
            "seed": self.seed,
            "reuse_register_bias": self.reuse_register_bias,
            "reuse_address_bias": self.reuse_address_bias,
            "control_flow_fraction": self.control_flow_fraction,
            "max_cycles_per_program": self.max_cycles_per_program,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CRSConfig":
        """Inverse of :meth:`to_json_dict` (validates the format tag)."""
        if data.get("format", 1) != 1:
            raise ValueError(f"unsupported CRSConfig format {data.get('format')!r}")
        return cls(
            num_programs=int(data.get("num_programs", 40)),
            program_length=int(data.get("program_length", 24)),
            seed=int(data.get("seed", 2019)),
            reuse_register_bias=float(data.get("reuse_register_bias", 0.35)),
            reuse_address_bias=float(data.get("reuse_address_bias", 0.5)),
            control_flow_fraction=float(data.get("control_flow_fraction", 0.15)),
            max_cycles_per_program=int(data.get("max_cycles_per_program", 64)),
        )


@dataclass
class CRSMismatch:
    """One scoreboard mismatch observed during simulation."""

    program_index: int
    commit_index: int
    instruction: str
    detail: str


@dataclass
class CRSResult:
    """Outcome of a CRS regression on one design version."""

    design_name: str
    programs_run: int = 0
    instructions_committed: int = 0
    mismatches: List[CRSMismatch] = field(default_factory=list)
    coverage: Optional[CoverageModel] = None

    @property
    def detected_bug(self) -> bool:
        """Whether the scoreboard flagged at least one mismatch."""
        return bool(self.mismatches)


class ConstrainedRandomSim:
    """The CRS environment for one design version."""

    def __init__(
        self,
        design: Union[DesignVersion, str],
        *,
        arch: ArchParams = TINY_PROFILE,
        config: Optional[CRSConfig] = None,
    ) -> None:
        self.version = (
            design if isinstance(design, DesignVersion) else version_by_name(design)
        )
        self.arch = arch
        self.config = config or CRSConfig()
        self.design = build_design(self.version, arch=arch)
        self.golden: GoldenModel = golden_model_for_version(self.version, arch=arch)
        self.isa: List[Instruction] = instructions_for_design(
            with_extension=self.version.with_extension
        )
        self._data_instructions = [
            i for i in self.isa if not i.is_control_flow and i.name != "HALT"
        ]
        self._cf_instructions = [i for i in self.isa if i.is_control_flow]

    # ------------------------------------------------------------------
    # Stimulus generation
    # ------------------------------------------------------------------
    def generate_program(self, rng: random.Random) -> List[int]:
        """Generate one constrained-random program (a list of words)."""
        cfg = self.config
        arch = self.arch
        words: List[int] = []
        previous_rd: Optional[int] = None
        previous_addr: Optional[int] = None
        for _ in range(cfg.program_length):
            if self._cf_instructions and rng.random() < cfg.control_flow_fraction:
                instr = rng.choice(self._cf_instructions)
            else:
                instr = rng.choice(self._data_instructions)
            rd = rng.randrange(arch.num_regs)
            rs1 = rng.randrange(arch.num_regs)
            rs2 = rng.randrange(arch.num_regs)
            if previous_rd is not None and rng.random() < cfg.reuse_register_bias:
                rd = previous_rd
            if previous_rd is not None and rng.random() < cfg.reuse_register_bias:
                rs1 = previous_rd
            imm = rng.randrange(1 << arch.imm_width)
            if instr.is_memory:
                if previous_addr is not None and rng.random() < cfg.reuse_address_bias:
                    imm = previous_addr
                imm = imm % arch.dmem_words
                previous_addr = imm
            if instr.is_control_flow:
                # Keep branch targets forward and close so programs terminate.
                imm = min(
                    len(words) + 1 + rng.randrange(3), arch.imem_words - 1
                )
            words.append(
                encode(
                    arch,
                    instr,
                    rd=rd if instr.writes_rd and instr.fixed_rd is None else 0,
                    rs1=rs1 if instr.reads_rs1 else 0,
                    rs2=rs2 if instr.reads_rs2 else 0,
                    imm=imm if instr.uses_imm else 0,
                )
            )
            if instr.writes_rd:
                previous_rd = instr.fixed_rd if instr.fixed_rd is not None else rd
        words.append(encode(arch, "HALT"))
        return words

    # ------------------------------------------------------------------
    # Scoreboarded simulation
    # ------------------------------------------------------------------
    def _compare_states(self, simulator: Simulator, golden_state) -> Optional[str]:
        arch = self.arch
        for register in range(arch.num_regs):
            rtl = simulator.peek(register_word_name(register))
            ref = golden_state.regs[register]
            if rtl != ref:
                return f"R{register}: rtl={rtl} golden={ref}"
        for address in range(arch.dmem_words):
            rtl = simulator.peek(dmem_word_name(address))
            ref = golden_state.dmem[address]
            if rtl != ref:
                return f"mem[{address}]: rtl={rtl} golden={ref}"
        rtl_flags = (
            simulator.peek("flag_z"),
            simulator.peek("flag_c"),
            simulator.peek("flag_n"),
        )
        ref_flags = (golden_state.flag_z, golden_state.flag_c, golden_state.flag_n)
        if rtl_flags != ref_flags:
            return f"flags: rtl={rtl_flags} golden={ref_flags}"
        return None

    def run_program(
        self, words: List[int], program_index: int, result: CRSResult
    ) -> None:
        """Simulate one program and scoreboard it against the golden model."""
        arch = self.arch
        simulator = Simulator(self.design)
        golden_state = self.golden.initial_state()
        commits = 0
        for _ in range(self.config.max_cycles_per_program):
            pc = simulator.peek("pc")
            word = words[pc] if pc < len(words) else nop_word(arch)
            in_ex = simulator.peek("ex_instr")
            outputs = simulator.step({"instr_in": word, "instr_valid": 1})
            if outputs["commit"]:
                commits += 1
                executed_word = decode(arch, in_ex)
                if result.coverage is not None:
                    result.coverage.record(
                        executed_word,
                        branch_taken=bool(outputs["cf_taken"])
                        if executed_word.instruction is not None
                        and executed_word.instruction.is_branch
                        else None,
                    )
                if not golden_state.halted:
                    ref_word = (
                        words[golden_state.pc]
                        if golden_state.pc < len(words)
                        else nop_word(arch)
                    )
                    golden_state = self.golden.execute_word(golden_state, ref_word)
                mismatch = self._compare_states(simulator, golden_state)
                if mismatch is not None:
                    result.mismatches.append(
                        CRSMismatch(
                            program_index=program_index,
                            commit_index=commits,
                            instruction=executed_word.render(),
                            detail=mismatch,
                        )
                    )
                    break
            if simulator.peek("halted"):
                break
        result.instructions_committed += commits

    # ------------------------------------------------------------------
    def run(self) -> CRSResult:
        """Run the whole constrained-random regression."""
        rng = random.Random(self.config.seed)
        result = CRSResult(
            design_name=self.version.name,
            coverage=CoverageModel(
                self.arch, with_extension=self.version.with_extension
            ),
        )
        for program_index in range(self.config.num_programs):
            words = self.generate_program(rng)
            self.run_program(words, program_index, result)
            result.programs_run += 1
            if result.mismatches and program_index >= 4:
                # The regression keeps running a few programs after the first
                # failure (to gather more evidence) but does not need the
                # full budget once a bug is on the board.
                break
        return result
