"""A small two-pass assembler.

The assembler exists so directed tests (:mod:`repro.indverif.dst`) and the
example programs can be written as readable source instead of hand-packed
words.  Syntax::

    ; comment
    start:
        LDI  R1, #3
        LDI  R2, #4
        ADD  R3, R1, R2
        CMPI R3, #7
        BZ   @done
        HALT
    done:
        STA  #0, R3
        HALT

Operands are written in the order destination, sources, immediate; register
operands are ``R<n>``, immediates ``#<value>``, and branch/jump targets may
reference labels with ``@label``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.isa.arch import ArchParams
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction, instruction_by_name


class AssemblerError(ValueError):
    """Raised on malformed assembly source."""


@dataclass
class Program:
    """An assembled program."""

    arch: ArchParams
    words: List[int] = field(default_factory=list)
    source_lines: List[str] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.words)

    def listing(self) -> str:
        """Return an address / word / source listing."""
        lines = []
        for address, (word, source) in enumerate(
            zip(self.words, self.source_lines)
        ):
            lines.append(f"{address:3d}: {word:0{6}x}  {source}")
        return "\n".join(lines)


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*):$")
_TOKEN_SPLIT_RE = re.compile(r"[,\s]+")


def _strip_comment(line: str) -> str:
    for marker in (";", "//", "#!"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line.strip()


def _parse_operand(token: str) -> Tuple[str, object]:
    token = token.strip()
    if not token:
        raise AssemblerError("empty operand")
    if token[0] in "Rr" and token[1:].isdigit():
        return "reg", int(token[1:])
    if token.startswith("#"):
        try:
            return "imm", int(token[1:], 0)
        except ValueError as exc:
            raise AssemblerError(f"bad immediate {token!r}") from exc
    if token.startswith("@"):
        return "label", token[1:]
    try:
        return "imm", int(token, 0)
    except ValueError as exc:
        raise AssemblerError(f"cannot parse operand {token!r}") from exc


def _operand_slots(instruction: Instruction) -> List[str]:
    """The operand order expected in source for *instruction*."""
    slots: List[str] = []
    if instruction.writes_rd and instruction.fixed_rd is None:
        slots.append("rd")
    if instruction.name in ("ST", "STO", "STA"):
        # Stores are written "ST [addr-operands], value" -> address first.
        if instruction.reads_rs1:
            slots.append("rs1")
        if instruction.uses_imm:
            slots.append("imm")
        slots.append("rs2")
        return slots
    if instruction.reads_rs1:
        slots.append("rs1")
    if instruction.reads_rs2:
        slots.append("rs2")
    if instruction.uses_imm:
        slots.append("imm")
    return slots


def assemble(source: str, arch: ArchParams) -> Program:
    """Assemble *source* into a :class:`Program` for *arch*."""
    # Pass 1: collect labels and instruction lines.
    pending: List[Tuple[str, str]] = []  # (mnemonic line, original source)
    labels: Dict[str, int] = {}
    for raw_line in source.splitlines():
        line = _strip_comment(raw_line)
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            label = label_match.group(1)
            if label in labels:
                raise AssemblerError(f"duplicate label {label!r}")
            labels[label] = len(pending)
            continue
        pending.append((line, raw_line.strip()))

    if len(pending) > arch.imem_words:
        raise AssemblerError(
            f"program has {len(pending)} instructions but the instruction "
            f"memory holds only {arch.imem_words}"
        )

    # Pass 2: encode.
    program = Program(arch=arch, labels=dict(labels))
    for address, (line, original) in enumerate(pending):
        tokens = [t for t in _TOKEN_SPLIT_RE.split(line) if t]
        mnemonic, operand_tokens = tokens[0], tokens[1:]
        try:
            instruction = instruction_by_name(mnemonic)
        except KeyError as exc:
            raise AssemblerError(f"line {address}: {exc}") from exc
        slots = _operand_slots(instruction)
        if len(operand_tokens) != len(slots):
            raise AssemblerError(
                f"line {address}: {mnemonic} expects {len(slots)} operands "
                f"({', '.join(slots)}), got {len(operand_tokens)}"
            )
        fields = {"rd": 0, "rs1": 0, "rs2": 0, "imm": 0}
        for slot, token in zip(slots, operand_tokens):
            kind, value = _parse_operand(token)
            if slot == "imm":
                if kind == "label":
                    if value not in labels:
                        raise AssemblerError(
                            f"line {address}: unknown label {value!r}"
                        )
                    fields["imm"] = labels[value]
                elif kind == "imm":
                    fields["imm"] = int(value)
                else:
                    raise AssemblerError(
                        f"line {address}: expected immediate, got register"
                    )
            else:
                if kind != "reg":
                    raise AssemblerError(
                        f"line {address}: operand for {slot} must be a register"
                    )
                fields[slot] = int(value)
        try:
            word = encode(
                arch,
                instruction,
                rd=fields["rd"],
                rs1=fields["rs1"],
                rs2=fields["rs2"],
                imm=fields["imm"],
            )
        except Exception as exc:
            raise AssemblerError(f"line {address}: {exc}") from exc
        program.words.append(word)
        program.source_lines.append(original)
    return program
