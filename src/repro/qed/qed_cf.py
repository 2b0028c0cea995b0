"""Enhanced EDDI-V for control-flow errors: the QED-CF module.

The QED-CF module (Fig. 5 of the paper) is instantiated between the QED
module and the core's fetch stage.  It captures the outcome (direction and
target) of each *original* control-flow instruction in a small queue and
compares it with the outcome of the corresponding *duplicate* control-flow
instruction.  On a match the QED sequence continues untouched; on a mismatch
the BMC tool is allowed to inject an arbitrary valid instruction
(``any_instr``) in place of the next duplicate, which corrupts the duplicate
half and surfaces the error as an ordinary EDDI-V register-pair failure.

To avoid false failures the harness imposes the two ordering conditions of
the paper (specialised for this 2-stage in-order core) plus one refinement:

(a) a flag-using control-flow instruction must directly follow an
    arithmetic flag-setting instruction of the *same* half (original follows
    original, duplicate follows duplicate), so the flags it samples are fully
    determined by that predecessor;
(b) the instruction injected directly after any control-flow instruction must
    belong to the same half, so that a pipeline flush removes corresponding
    instructions from both halves; and
(d) a flag-using control-flow instruction may not be injected two cycles
    after another control-flow instruction, which guarantees its flag-setting
    predecessor cannot itself have been flushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.expr.bitvec import BV, BVConst, BVVar, mux
from repro.isa.instructions import FlagsUpdate, instructions_for_design
from repro.qed.qed_module import QEDModuleHandles, _is_any_opcode
from repro.rtl.circuit import Circuit
from repro.uarch.config import CoreConfig

#: Depth of the control-flow outcome queue (matches the EDDI-V queue depth).
DEFAULT_CF_QUEUE_DEPTH = 2


@dataclass
class QEDCFHandles:
    """Expressions and state names exposed by the QED-CF module."""

    any_instr_input: BVVar
    instruction_out: BV
    valid_out: BV
    mismatch_now: BV
    state_names: List[str]


def build_qed_cf_module(
    circuit: Circuit,
    config: CoreConfig,
    base: QEDModuleHandles,
    *,
    queue_depth: int = DEFAULT_CF_QUEUE_DEPTH,
    prefix: str = "qedcf",
) -> QEDCFHandles:
    """Insert the QED-CF module between the QED module and the core.

    ``circuit`` must already contain the core (so its ``cf_valid`` /
    ``cf_taken`` / ``cf_target`` outputs exist) and the base QED module.
    """
    arch = config.arch
    outputs = circuit.outputs
    core_cf_valid = outputs["cf_valid"]
    core_cf_taken = outputs["cf_taken"]
    core_cf_target = outputs["cf_target"]

    isa = instructions_for_design(with_extension=config.with_extension)
    cf_names = [i.name for i in isa if i.is_control_flow and i.name != "JAL"]
    flag_cf_names = [i.name for i in isa if i.is_control_flow and i.uses_flags]
    arith_names = [
        i.name
        for i in isa
        if i.flags in (FlagsUpdate.ARITH_ADD, FlagsUpdate.ARITH_SUB)
    ]

    # BMC-controlled replacement instruction used after a mismatch.
    any_instr = circuit.input(f"{prefix}.any_instr", arch.instr_width)

    # ------------------------------------------------------------------
    # Track which half the instruction currently in EX belongs to.
    # ------------------------------------------------------------------
    in_ex_original = circuit.register(f"{prefix}.in_ex_original", 1, reset=0)
    in_ex_original.next = base.original_input

    # History used by the ordering-condition assumptions.
    last_inject_valid = circuit.register(f"{prefix}.last_inject_valid", 1, reset=0)
    last_original = circuit.register(f"{prefix}.last_original", 1, reset=0)
    last_was_cf = circuit.register(f"{prefix}.last_was_cf", 1, reset=0)
    last2_was_cf = circuit.register(f"{prefix}.last2_was_cf", 1, reset=0)
    last_arith_flags = circuit.register(f"{prefix}.last_arith_flags", 1, reset=0)

    out_is_cf = _is_any_opcode(base.out_opcode, cf_names)
    out_is_flag_cf = _is_any_opcode(base.out_opcode, flag_cf_names)
    out_is_arith = _is_any_opcode(base.out_opcode, arith_names)

    last_inject_valid.next = base.inject_valid_input
    last_original.next = base.original_input
    last_was_cf.next = base.inject_valid_input & out_is_cf
    last2_was_cf.next = last_was_cf.q
    last_arith_flags.next = base.inject_valid_input & out_is_arith

    # ------------------------------------------------------------------
    # Outcome queue for original control-flow instructions.
    # ------------------------------------------------------------------
    taken_regs = [
        circuit.register(f"{prefix}.taken{i}", 1, reset=0)
        for i in range(queue_depth)
    ]
    target_regs = [
        circuit.register(f"{prefix}.target{i}", arch.pc_width, reset=0)
        for i in range(queue_depth)
    ]
    count_width = max(2, (queue_depth + 1).bit_length())
    cf_count = circuit.register(f"{prefix}.count", count_width, reset=0)

    orig_cf_exec = core_cf_valid & in_ex_original.q
    dup_cf_exec = core_cf_valid & ~in_ex_original.q

    cf_count.next = mux(
        orig_cf_exec,
        cf_count.q + BVConst(count_width, 1),
        mux(dup_cf_exec, cf_count.q - BVConst(count_width, 1), cf_count.q),
    )
    for index in range(queue_depth):
        shifted_taken = (
            taken_regs[index + 1].q if index + 1 < queue_depth else BVConst(1, 0)
        )
        shifted_target = (
            target_regs[index + 1].q
            if index + 1 < queue_depth
            else BVConst(arch.pc_width, 0)
        )
        pushed_here = orig_cf_exec & cf_count.q.eq(BVConst(count_width, index))
        taken_regs[index].next = mux(
            dup_cf_exec,
            shifted_taken,
            mux(pushed_here, core_cf_taken, taken_regs[index].q),
        )
        target_regs[index].next = mux(
            dup_cf_exec,
            shifted_target,
            mux(pushed_here, core_cf_target, target_regs[index].q),
        )

    # ------------------------------------------------------------------
    # Mismatch detection and instruction substitution.
    # ------------------------------------------------------------------
    head_taken = taken_regs[0].q
    head_target = target_regs[0].q
    queue_empty = cf_count.q.eq(BVConst(count_width, 0))
    outcome_differs = head_taken.ne(core_cf_taken) | (
        head_taken & core_cf_taken & head_target.ne(core_cf_target)
    )
    mismatch_now = dup_cf_exec & (queue_empty | outcome_differs)

    instruction_out = mux(mismatch_now, any_instr, base.instruction_out)
    valid_out = base.valid_out

    # Assumption: the replacement instruction is a valid, non-control-flow
    # data instruction (anything stronger is unnecessary -- the BMC tool will
    # pick whatever corrupts the duplicate half fastest).
    from repro.isa.encoding import field_layout

    low, width = field_layout(arch)["opcode"]
    any_opcode = any_instr[low : low + width]
    non_cf_names = [
        i.name
        for i in isa
        if not i.is_control_flow and i.name not in ("HALT",)
    ]
    circuit.assume(
        f"{prefix}.any_instr_valid", _is_any_opcode(any_opcode, non_cf_names)
    )

    # ------------------------------------------------------------------
    # Ordering conditions (a), (b) and (d).
    # ------------------------------------------------------------------
    inject = base.inject_valid_input
    original = base.original_input
    circuit.assume(
        f"{prefix}.condition_b_same_half_after_cf",
        last_was_cf.q.implies(inject & original.eq(last_original.q)),
    )
    circuit.assume(
        f"{prefix}.condition_a_flag_cf_context",
        (inject & out_is_flag_cf).implies(
            last_inject_valid.q
            & last_arith_flags.q
            & original.eq(last_original.q)
            & ~last2_was_cf.q
        ),
    )

    state_names = (
        [reg.name for reg in taken_regs]
        + [reg.name for reg in target_regs]
        + [
            cf_count.name,
            in_ex_original.name,
            last_inject_valid.name,
            last_original.name,
            last_was_cf.name,
            last2_was_cf.name,
            last_arith_flags.name,
        ]
    )
    return QEDCFHandles(
        any_instr_input=any_instr,
        instruction_out=instruction_out,
        valid_out=valid_out,
        mismatch_now=mismatch_now,
        state_names=state_names,
    )
