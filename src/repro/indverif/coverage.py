"""Functional coverage collection for the simulation-based flows.

The industrial CRS flow's completion criterion is guided by code and
functional coverage [Wile 05].  This model collects the functional-coverage
dimensions that matter for a small in-order core:

* opcode coverage (every instruction executed at least once),
* instruction-class coverage,
* branch outcome coverage (taken / not taken per conditional branch),
* destination/source register coverage,
* back-to-back instruction-pair coverage (the cross bin that matters for the
  interaction bugs seeded in this study).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.isa.arch import ArchParams
from repro.isa.encoding import EncodedInstruction
from repro.isa.instructions import instructions_for_design


@dataclass
class CoverageModel:
    """Accumulates functional coverage over executed instructions."""

    arch: ArchParams
    with_extension: bool = True
    opcodes_seen: Set[str] = field(default_factory=set)
    classes_seen: Set[str] = field(default_factory=set)
    branch_outcomes: Set[Tuple[str, bool]] = field(default_factory=set)
    destinations_seen: Set[int] = field(default_factory=set)
    pair_bins: Set[Tuple[str, str]] = field(default_factory=set)
    executed_instructions: int = 0
    _previous_mnemonic: Optional[str] = None

    # ------------------------------------------------------------------
    def record(self, enc: EncodedInstruction, *, branch_taken: Optional[bool] = None) -> None:
        """Record one executed instruction."""
        self.executed_instructions += 1
        if enc.instruction is None:
            return
        instr = enc.instruction
        self.opcodes_seen.add(instr.name)
        self.classes_seen.add(instr.iclass.value)
        if instr.writes_rd:
            destination = instr.fixed_rd if instr.fixed_rd is not None else enc.rd
            self.destinations_seen.add(destination % self.arch.num_regs)
        if instr.is_branch and branch_taken is not None:
            self.branch_outcomes.add((instr.name, branch_taken))
        if self._previous_mnemonic is not None:
            self.pair_bins.add((self._previous_mnemonic, instr.name))
        self._previous_mnemonic = instr.name

    # ------------------------------------------------------------------
    @property
    def opcode_coverage(self) -> float:
        """Fraction of the ISA's opcodes that have been executed."""
        total = len(instructions_for_design(with_extension=self.with_extension))
        return len(self.opcodes_seen) / total if total else 0.0

    @property
    def class_coverage(self) -> float:
        """Fraction of instruction classes exercised."""
        total = len(
            {
                instr.iclass.value
                for instr in instructions_for_design(
                    with_extension=self.with_extension
                )
            }
        )
        return len(self.classes_seen) / total if total else 0.0

    @property
    def branch_outcome_coverage(self) -> float:
        """Fraction of (branch, taken/not-taken) bins exercised."""
        branches = [
            instr
            for instr in instructions_for_design(
                with_extension=self.with_extension
            )
            if instr.is_branch
        ]
        total = 2 * len(branches)
        return len(self.branch_outcomes) / total if total else 0.0

    @property
    def destination_coverage(self) -> float:
        """Fraction of architectural registers used as a destination."""
        return len(self.destinations_seen) / self.arch.num_regs

    def summary(self) -> Dict[str, float]:
        """All coverage metrics in one dictionary."""
        return {
            "opcode": self.opcode_coverage,
            "instruction_class": self.class_coverage,
            "branch_outcome": self.branch_outcome_coverage,
            "destination_register": self.destination_coverage,
            "instruction_pairs": float(len(self.pair_bins)),
            "executed_instructions": float(self.executed_instructions),
        }
