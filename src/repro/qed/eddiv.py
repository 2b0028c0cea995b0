"""EDDI-V transformation rules.

EDDI-V (Error Detection using Duplicated Instructions for Validation) splits
the architectural register file and the data memory into two halves and pairs
register ``Ra`` with ``Ra+N/2`` and memory word ``m`` with ``m+M/2``.  The QED
module applies the transformation *on the fly* to whatever instruction stream
the BMC tool explores: an original instruction references only the lower
halves; its duplicate is the same instruction with every register specifier
moved to the upper half and (for absolute-addressed memory operations) the
address moved to the upper memory half.

This module holds the pieces of that transformation that are shared between
the QED module RTL, the harness assumptions and the counterexample decoder:

* the register / memory pairing (:class:`EDDIVMapping`),
* the per-mode sets of instructions allowed inside QED sequences
  (:func:`allowed_instructions`), and
* the pure-Python word-level duplicate transformation
  (:meth:`EDDIVMapping.duplicate_word`) used to decode counterexamples and to
  cross-check the RTL transformation in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from repro.isa.arch import ArchParams
from repro.isa.encoding import decode, encode_fields
from repro.isa.instructions import (
    Instruction,
    instruction_by_name,
    instructions_for_design,
)


class QEDMode(Enum):
    """Which Symbolic QED configuration is being run."""

    EDDIV = "eddiv"
    EDDIV_CF = "eddiv_cf"
    EDDIV_MEM = "eddiv_mem"


@dataclass(frozen=True)
class EDDIVMapping:
    """Register and memory pairing used by EDDI-V for one architecture."""

    arch: ArchParams

    # ------------------------------------------------------------------
    @property
    def half_regs(self) -> int:
        """Number of registers per half."""
        return self.arch.half_regs

    @property
    def half_dmem(self) -> int:
        """Number of data-memory words per half."""
        return self.arch.half_dmem

    def duplicate_register(self, index: int) -> int:
        """The duplicate register paired with original register *index*."""
        if not 0 <= index < self.half_regs:
            raise ValueError(
                f"register R{index} is not in the original half "
                f"(0..{self.half_regs - 1})"
            )
        return index + self.half_regs

    def original_register(self, index: int) -> int:
        """The original register paired with duplicate register *index*."""
        if not self.half_regs <= index < self.arch.num_regs:
            raise ValueError(
                f"register R{index} is not in the duplicate half "
                f"({self.half_regs}..{self.arch.num_regs - 1})"
            )
        return index - self.half_regs

    def register_pairs(self) -> List[Tuple[int, int]]:
        """All (original, duplicate) register pairs."""
        return [(a, a + self.half_regs) for a in range(self.half_regs)]

    def memory_pairs(self) -> List[Tuple[int, int]]:
        """All (original, duplicate) data-memory word pairs."""
        return [(m, m + self.half_dmem) for m in range(self.half_dmem)]

    # ------------------------------------------------------------------
    def duplicate_word(self, word: int) -> int:
        """Transform an original instruction word into its duplicate.

        This is the reference (software) version of the transformation that
        the QED module performs in RTL: register specifiers move to the upper
        half and LDA/STA addresses move to the upper memory half.
        """
        enc = decode(self.arch, word)
        rd = enc.rd + self.half_regs if enc.rd < self.half_regs else enc.rd
        rs1 = enc.rs1 + self.half_regs if enc.rs1 < self.half_regs else enc.rs1
        rs2 = enc.rs2 + self.half_regs if enc.rs2 < self.half_regs else enc.rs2
        imm = enc.imm
        if enc.instruction is not None and enc.instruction.name in ("LDA", "STA"):
            if imm < self.half_dmem:
                imm = imm + self.half_dmem
        return encode_fields(
            self.arch, enc.opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm
        )

    def is_original_word(self, word: int) -> bool:
        """Whether an instruction word only references the original halves."""
        enc = decode(self.arch, word)
        instr = enc.instruction
        if instr is None:
            return False
        fields = []
        if instr.writes_rd and instr.fixed_rd is None:
            fields.append(enc.rd)
        if instr.reads_rs1:
            fields.append(enc.rs1)
        if instr.reads_rs2:
            fields.append(enc.rs2)
        if any(f >= self.half_regs for f in fields):
            return False
        if instr.name in ("LDA", "STA") and enc.imm >= self.half_dmem:
            return False
        return True


#: Instruction classes excluded from every QED sequence (they either stop the
#: core, have no architectural effect worth duplicating, or cannot be made
#: QED-consistent on this core).
_ALWAYS_EXCLUDED = {"HALT", "JAL"}

#: Memory instructions with register-indirect addressing cannot be offset by
#: the QED module (the address lives in a register whose value is identical in
#: both halves), so they are excluded from the register-halving modes; the
#: absolute-addressed LDA/STA are kept and their addresses are transformed.
_REGISTER_INDIRECT_MEMORY = {"LD", "ST", "LDO", "STO"}


def allowed_instructions(
    arch: ArchParams, mode: QEDMode, *, with_extension: bool
) -> List[Instruction]:
    """The instructions the BMC tool may inject in QED sequences for *mode*.

    * ``EDDIV`` -- data instructions only (no control flow), excluding
      instructions with a fixed destination register (they cannot be paired
      under register halving) and register-indirect memory operations.
    * ``EDDIV_CF`` -- the ``EDDIV`` set plus control-flow instructions
      (conditional branches, JMP and JR).
    * ``EDDIV_MEM`` -- data instructions including the fixed-destination
      ``LDIL``; memory operations are excluded because the module manages the
      spill/restore traffic itself.
    """
    base = instructions_for_design(with_extension=with_extension)
    selected: List[Instruction] = []
    for instr in base:
        if instr.name in _ALWAYS_EXCLUDED:
            continue
        if mode in (QEDMode.EDDIV, QEDMode.EDDIV_CF):
            if instr.fixed_rd is not None:
                continue
            if instr.name in _REGISTER_INDIRECT_MEMORY:
                continue
            if instr.is_control_flow and mode is QEDMode.EDDIV:
                continue
            selected.append(instr)
        else:  # EDDIV_MEM
            if instr.is_control_flow or instr.is_memory:
                continue
            selected.append(instr)
    return selected


def nop_encoding(arch: ArchParams) -> int:
    """The canonical NOP word used by the QED modules for idle cycles."""
    return encode_fields(arch, instruction_by_name("NOP").opcode)
