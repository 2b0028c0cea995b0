"""Binary instruction encoding and decoding.

The encoding is a single fixed-width word::

    | opcode (6) | rd (4) | rs1 (4) | rs2 (4) | imm (imm_width) |

Fields an instruction does not use are don't-care and encoded as zero by the
assembler; the decoder always extracts all fields and lets the consumer pick
the ones that matter (exactly how the RTL decode stage works).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.arch import ArchParams
from repro.isa.instructions import (
    Instruction,
    OPCODE_WIDTH,
    instruction_by_name,
    instruction_by_opcode,
)


class EncodingError(ValueError):
    """Raised when a field does not fit its encoding slot."""


@dataclass(frozen=True)
class EncodedInstruction:
    """A decoded view of one instruction word."""

    word: int
    instruction: Optional[Instruction]
    opcode: int
    rd: int
    rs1: int
    rs2: int
    imm: int

    @property
    def mnemonic(self) -> str:
        """Instruction mnemonic, or ``ILLEGAL`` for undefined opcodes."""
        return self.instruction.name if self.instruction else "ILLEGAL"

    def render(self) -> str:
        """Human-readable disassembly of the instruction."""
        if self.instruction is None:
            return f"ILLEGAL(0x{self.word:x})"
        instr = self.instruction
        parts = []
        if instr.writes_rd and instr.fixed_rd is None:
            parts.append(f"R{self.rd}")
        if instr.fixed_rd is not None:
            parts.append(f"R{instr.fixed_rd}")
        if instr.reads_rs1:
            parts.append(f"R{self.rs1}")
        if instr.reads_rs2:
            parts.append(f"R{self.rs2}")
        if instr.uses_imm:
            parts.append(f"#{self.imm}")
        return instr.name + (" " + ", ".join(parts) if parts else "")


def field_layout(arch: ArchParams) -> dict:
    """Return the bit positions of each field for *arch*.

    The returned dict maps field name to ``(low_bit, width)``.
    """
    imm_width = arch.imm_width
    return {
        "imm": (0, imm_width),
        "rs2": (imm_width, 4),
        "rs1": (imm_width + 4, 4),
        "rd": (imm_width + 8, 4),
        "opcode": (imm_width + 12, OPCODE_WIDTH),
    }


def encode_fields(
    arch: ArchParams,
    opcode: int,
    rd: int = 0,
    rs1: int = 0,
    rs2: int = 0,
    imm: int = 0,
) -> int:
    """Pack raw field values into an instruction word."""
    layout = field_layout(arch)
    values = {"opcode": opcode, "rd": rd, "rs1": rs1, "rs2": rs2, "imm": imm}
    word = 0
    for field, (low, width) in layout.items():
        value = values[field]
        if not 0 <= value < (1 << width):
            raise EncodingError(
                f"field {field}={value} does not fit in {width} bits"
            )
        word |= value << low
    return word


def encode(
    arch: ArchParams,
    instruction: Union[str, Instruction],
    *,
    rd: int = 0,
    rs1: int = 0,
    rs2: int = 0,
    imm: int = 0,
) -> int:
    """Encode an instruction given by mnemonic or catalogue entry.

    Register indices are validated against the architecture profile and
    immediates against the immediate field width.
    """
    if isinstance(instruction, str):
        instruction = instruction_by_name(instruction)
    for label, index, used in [
        ("rd", rd, instruction.writes_rd and instruction.fixed_rd is None),
        ("rs1", rs1, instruction.reads_rs1),
        ("rs2", rs2, instruction.reads_rs2),
    ]:
        if used and not 0 <= index < arch.num_regs:
            raise EncodingError(
                f"{label}={index} out of range for {arch.num_regs} registers"
            )
    if instruction.uses_imm and not 0 <= imm < (1 << arch.imm_width):
        raise EncodingError(
            f"imm={imm} does not fit in {arch.imm_width} bits"
        )
    if instruction.fixed_rd is not None:
        rd = instruction.fixed_rd
    return encode_fields(
        arch, instruction.opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm
    )


def decode(arch: ArchParams, word: int) -> EncodedInstruction:
    """Decode an instruction word into its fields."""
    layout = field_layout(arch)
    fields = {
        name: (word >> low) & ((1 << width) - 1)
        for name, (low, width) in layout.items()
    }
    instruction = instruction_by_opcode(fields["opcode"])
    return EncodedInstruction(
        word=word & ((1 << arch.instr_width) - 1),
        instruction=instruction,
        opcode=fields["opcode"],
        rd=fields["rd"],
        rs1=fields["rs1"],
        rs2=fields["rs2"],
        imm=fields["imm"],
    )


def nop_word(arch: ArchParams) -> int:
    """Return the canonical NOP encoding (all fields zero)."""
    return encode(arch, "NOP")
