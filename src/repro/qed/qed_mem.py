"""Enhanced EDDI-V: duplication using memory.

Register halving cannot include instructions whose destination register is
architecturally fixed (the paper's example: a load-immediate that can only
write ``R0``; our ISA's ``LDIL``).  The duplication-using-memory QED module
removes the halving requirement: the original and the duplicate sub-sequence
execute on the *same* registers, and the module inserts the store/load
traffic that spills the original results to one memory region, restores the
starting values, replays the sequence and spills the duplicate results to a
second region.  The QED check then compares the two memory regions.

The module is a small FSM driving the core's fetch interface::

    COLLECT  -- the BMC tool injects the body instructions (recorded),
    SAVE1    -- STA of every tracked register into the original region,
    RESTORE  -- LDA of every tracked register from the duplicate region
                (which still holds the initial values),
    REPLAY   -- the recorded body instructions are injected again,
    SAVE2    -- STA of every tracked register into the duplicate region,
    DONE     -- the sequence is complete; ``qed_ready`` may assert.

As in the paper, the module tracks which registers participate so that only
the necessary loads and stores are inserted; this implementation uses a fixed
*tracked register set* (a configuration parameter) and constrains the body
instructions to those registers, which is the static equivalent of the
source/destination bit tracking described in Section 5.B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.expr.bitvec import BV, BVConst, BVVar, mux
from repro.isa.arch import ArchParams
from repro.isa.encoding import encode
from repro.qed.eddiv import QEDMode, allowed_instructions, nop_encoding
from repro.qed.qed_module import _extract, _is_any_opcode
from repro.rtl.circuit import Circuit
from repro.uarch.config import CoreConfig

#: FSM phase encoding.
PHASE_COLLECT = 0
PHASE_SAVE1 = 1
PHASE_RESTORE = 2
PHASE_REPLAY = 3
PHASE_SAVE2 = 4
PHASE_DONE = 5
_PHASE_WIDTH = 3

#: Maximum number of body instructions that can be recorded and replayed.
DEFAULT_BODY_DEPTH = 2


@dataclass
class QEDMemHandles:
    """Expressions and state names exposed by the memory-duplication module."""

    arch: ArchParams
    tracked_registers: Tuple[int, ...]
    body_depth: int
    instr_input: BVVar
    advance_input: BVVar
    finish_input: BVVar
    instruction_out: BV
    valid_out: BV
    phase_name: str
    body_names: List[str]
    body_count_name: str
    original_slots: List[int]
    duplicate_slots: List[int]


def build_qed_mem_module(
    circuit: Circuit,
    config: CoreConfig,
    *,
    tracked_registers: Sequence[int] = (0, 1),
    body_depth: int = DEFAULT_BODY_DEPTH,
    prefix: str = "qedmem",
) -> QEDMemHandles:
    """Build the duplication-using-memory QED module into *circuit*."""
    arch = config.arch
    tracked = tuple(tracked_registers)
    if not tracked:
        raise ValueError("tracked_registers must not be empty")
    if len(tracked) > arch.half_dmem:
        raise ValueError(
            "each memory half must have room for every tracked register"
        )
    if any(not 0 <= r < arch.num_regs for r in tracked):
        raise ValueError("tracked register out of range")
    if body_depth < 1:
        raise ValueError("body_depth must be at least 1")

    allowed = allowed_instructions(
        arch, QEDMode.EDDIV_MEM, with_extension=config.with_extension
    )
    allowed_names = [instr.name for instr in allowed]

    original_slots = list(range(len(tracked)))
    duplicate_slots = [arch.half_dmem + slot for slot in original_slots]

    # ------------------------------------------------------------------
    # BMC-controlled inputs.
    # ------------------------------------------------------------------
    instr_input = circuit.input(f"{prefix}.instr", arch.instr_width)
    advance_input = circuit.input(f"{prefix}.advance", 1)
    finish_input = circuit.input(f"{prefix}.finish", 1)

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------
    phase = circuit.register(f"{prefix}.phase", _PHASE_WIDTH, reset=PHASE_COLLECT)
    body_regs = [
        circuit.register(f"{prefix}.body{i}", arch.instr_width, reset=0)
        for i in range(body_depth)
    ]
    count_width = max(2, (body_depth + 1).bit_length())
    body_count = circuit.register(f"{prefix}.body_count", count_width, reset=0)
    index_width = max(2, (max(len(tracked), body_depth)).bit_length())
    step_index = circuit.register(f"{prefix}.step", index_width, reset=0)

    def phase_is(value: int) -> BV:
        return phase.q.eq(BVConst(_PHASE_WIDTH, value))

    in_collect = phase_is(PHASE_COLLECT)
    in_save1 = phase_is(PHASE_SAVE1)
    in_restore = phase_is(PHASE_RESTORE)
    in_replay = phase_is(PHASE_REPLAY)
    in_save2 = phase_is(PHASE_SAVE2)

    # ------------------------------------------------------------------
    # Pre-encoded spill / restore instructions.
    # ------------------------------------------------------------------
    save_orig_words = [
        encode(arch, "STA", rs2=reg, imm=slot)
        for reg, slot in zip(tracked, original_slots)
    ]
    restore_words = [
        encode(arch, "LDA", rd=reg, imm=slot)
        for reg, slot in zip(tracked, duplicate_slots)
    ]
    save_dup_words = [
        encode(arch, "STA", rs2=reg, imm=slot)
        for reg, slot in zip(tracked, duplicate_slots)
    ]

    def select_by_index(words: List[int]) -> BV:
        selected: BV = BVConst(arch.instr_width, words[0])
        for position, word in enumerate(words[1:], start=1):
            selected = mux(
                step_index.q.eq(BVConst(index_width, position)),
                BVConst(arch.instr_width, word),
                selected,
            )
        return selected

    def select_body() -> BV:
        selected: BV = body_regs[0].q
        for position, register in enumerate(body_regs[1:], start=1):
            selected = mux(
                step_index.q.eq(BVConst(index_width, position)),
                register.q,
                selected,
            )
        return selected

    # ------------------------------------------------------------------
    # Output selection.
    # ------------------------------------------------------------------
    collect_inject = in_collect & advance_input & body_count.q.ult(
        BVConst(count_width, body_depth)
    )
    nop_word = BVConst(arch.instr_width, nop_encoding(arch))
    instruction_out = nop_word
    instruction_out = mux(collect_inject, instr_input, instruction_out)
    instruction_out = mux(in_save1, select_by_index(save_orig_words), instruction_out)
    instruction_out = mux(in_restore, select_by_index(restore_words), instruction_out)
    instruction_out = mux(in_replay, select_body(), instruction_out)
    instruction_out = mux(in_save2, select_by_index(save_dup_words), instruction_out)
    valid_out = (
        collect_inject | in_save1 | in_restore | in_replay | in_save2
    )

    # ------------------------------------------------------------------
    # Body recording.
    # ------------------------------------------------------------------
    for position, register in enumerate(body_regs):
        record_here = collect_inject & body_count.q.eq(
            BVConst(count_width, position)
        )
        register.next = mux(record_here, instr_input, register.q)
    body_count.next = mux(
        collect_inject, body_count.q + BVConst(count_width, 1), body_count.q
    )

    # ------------------------------------------------------------------
    # FSM transitions.
    # ------------------------------------------------------------------
    last_tracked = BVConst(index_width, len(tracked) - 1)
    at_last_tracked = step_index.q.eq(last_tracked)
    at_last_body = step_index.q.eq(
        _truncate_minus_one(body_count.q, index_width)
    )

    leave_collect = in_collect & finish_input & body_count.q.ne(
        BVConst(count_width, 0)
    )
    leave_save1 = in_save1 & at_last_tracked
    leave_restore = in_restore & at_last_tracked
    leave_replay = in_replay & at_last_body
    leave_save2 = in_save2 & at_last_tracked

    next_phase = phase.q
    next_phase = mux(leave_collect, BVConst(_PHASE_WIDTH, PHASE_SAVE1), next_phase)
    next_phase = mux(leave_save1, BVConst(_PHASE_WIDTH, PHASE_RESTORE), next_phase)
    next_phase = mux(leave_restore, BVConst(_PHASE_WIDTH, PHASE_REPLAY), next_phase)
    next_phase = mux(leave_replay, BVConst(_PHASE_WIDTH, PHASE_SAVE2), next_phase)
    next_phase = mux(leave_save2, BVConst(_PHASE_WIDTH, PHASE_DONE), next_phase)
    phase.next = next_phase

    advancing = in_save1 | in_restore | in_replay | in_save2
    phase_change = (
        leave_collect | leave_save1 | leave_restore | leave_replay | leave_save2
    )
    step_index.next = mux(
        phase_change,
        BVConst(index_width, 0),
        mux(advancing, step_index.q + BVConst(index_width, 1), step_index.q),
    )

    # ------------------------------------------------------------------
    # Environmental constraints on the body instructions.
    # ------------------------------------------------------------------
    in_opcode = _extract(instr_input, arch, "opcode")
    in_rd = _extract(instr_input, arch, "rd")
    in_rs1 = _extract(instr_input, arch, "rs1")
    in_rs2 = _extract(instr_input, arch, "rs2")

    circuit.assume(
        f"{prefix}.valid_opcode", _is_any_opcode(in_opcode, allowed_names)
    )

    def field_in_tracked(fieldexpr: BV) -> BV:
        cond: BV = BVConst(1, 0)
        for reg in tracked:
            cond = cond | fieldexpr.eq(BVConst(4, reg))
        return cond

    circuit.assume(
        f"{prefix}.tracked_registers_only",
        field_in_tracked(in_rd) & field_in_tracked(in_rs1) & field_in_tracked(in_rs2),
    )

    return QEDMemHandles(
        arch=arch,
        tracked_registers=tracked,
        body_depth=body_depth,
        instr_input=instr_input,
        advance_input=advance_input,
        finish_input=finish_input,
        instruction_out=instruction_out,
        valid_out=valid_out,
        phase_name=phase.name,
        body_names=[reg.name for reg in body_regs],
        body_count_name=body_count.name,
        original_slots=original_slots,
        duplicate_slots=duplicate_slots,
    )


def _truncate_minus_one(count: BV, width: int) -> BV:
    """``count - 1`` resized to *width* bits (helper for the replay cursor)."""
    value = count - BVConst(count.width, 1)
    if value.width == width:
        return value
    if value.width > width:
        return value[0:width]
    from repro.expr.bitvec import zero_extend

    return zero_extend(value, width)
