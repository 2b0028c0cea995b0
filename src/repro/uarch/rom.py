"""Instruction-ROM wrappers for simulation.

During directed and constrained-random simulation the core fetches from a
program ROM; during BMC the ROM is detached and the QED module drives the
instruction port instead (exactly the paper's setup, where the QED module is
inserted at the fetch unit only inside the BMC tool).

Design A uses a dual-ROM interface: even addresses are served by bank 0 and
odd addresses by bank 1.  Designs B and C use a single ROM.  The two wrappers
produce identical instruction streams; the structural difference is what made
adapting the Symbolic QED setup from Design A to B/C a one-person-day task in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.isa.arch import ArchParams
from repro.isa.assembler import Program
from repro.isa.encoding import nop_word


@dataclass
class RomProgram:
    """A program image placed in the instruction ROM."""

    arch: ArchParams
    words: List[int]

    @classmethod
    def from_program(cls, program: Program) -> "RomProgram":
        """Build a ROM image from an assembled :class:`Program`."""
        return cls(arch=program.arch, words=list(program.words))

    def fetch(self, address: int) -> int:
        """Return the instruction at *address* (NOP beyond the image)."""
        if 0 <= address < len(self.words):
            return self.words[address]
        return nop_word(self.arch)

    def fetch_dual(self, address: int) -> Dict[str, int]:
        """Model the dual-ROM interface: both banks respond, one is selected.

        Returns the words presented by the even and odd banks for *address*;
        the bank select is the address LSB.
        """
        even_address = address & ~1
        odd_address = address | 1
        return {
            "bank0": self.fetch(even_address),
            "bank1": self.fetch(odd_address),
            "selected": self.fetch(address),
        }


class attach_rom:
    """Drive a core simulation from a ROM image.

    This is a lightweight testbench helper rather than an RTL block: it reads
    the simulator's PC each cycle, looks up the instruction in the ROM image
    (honouring the dual- or single-ROM interface of the design family) and
    produces the input map for :meth:`repro.rtl.simulator.Simulator.step`.
    """

    def __init__(
        self,
        rom: RomProgram,
        *,
        interface: str = "single",
        extra_inputs: Mapping[str, int] | None = None,
    ) -> None:
        if interface not in ("single", "dual"):
            raise ValueError("interface must be 'single' or 'dual'")
        self.rom = rom
        self.interface = interface
        self.extra_inputs = dict(extra_inputs or {})
        self.fetch_log: List[int] = []

    def inputs_for(self, pc: int) -> Dict[str, int]:
        """Input map for one cycle given the current fetch PC."""
        if self.interface == "dual":
            word = self.rom.fetch_dual(pc)["selected"]
        else:
            word = self.rom.fetch(pc)
        self.fetch_log.append(pc)
        inputs = {"instr_in": word, "instr_valid": 1}
        inputs.update(self.extra_inputs)
        return inputs
