"""The QED module (register-halving EDDI-V with arbitrary interleaving).

The QED module sits between the BMC tool's free instruction inputs and the
core's fetch interface.  It is only present in the model handed to the BMC
tool -- never in the fabricated design -- exactly as in the paper.

Behaviour (following the enhanced module of [Ganesan 18] used in the case
study):

* The BMC tool drives three free inputs each cycle: an instruction word
  (``qed.instr``), an ``original`` flag, and an ``inject_valid`` flag.
* When an *original* instruction is injected it is forwarded to the core
  unchanged (the harness constrains it to reference only lower-half
  registers) and recorded in a small FIFO queue.
* When a *duplicate* is requested, the head of the queue is popped,
  transformed on the fly (register specifiers moved to the upper half,
  LDA/STA addresses moved to the upper memory half) and forwarded instead.
* Original and duplicate sub-sequences may interleave arbitrarily, subject
  only to the queue capacity -- this is the key difference from the original
  Lin 15 / Singh 18 module, which required all originals to finish first.

The module's state (queue contents, occupancy, ``pairs_done``) is ordinary
design state, so the property generator can refer to it when building the
``qed_ready`` condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.expr.bitvec import BV, BVConst, BVVar, concat, mux
from repro.isa.arch import ArchParams
from repro.isa.encoding import field_layout
from repro.isa.instructions import Instruction, instruction_by_name
from repro.qed.eddiv import QEDMode, allowed_instructions, nop_encoding
from repro.rtl.circuit import Circuit
from repro.uarch.config import CoreConfig

#: Depth of the pending-duplication queue.  Two outstanding originals are
#: enough to expose every interaction bug in the library while keeping the
#: unrolled state small; the depth is a parameter for experimentation.
DEFAULT_QUEUE_DEPTH = 2


@dataclass
class QEDModuleHandles:
    """Expressions and state names exposed by the QED module."""

    arch: ArchParams
    mode: QEDMode
    queue_depth: int
    # BMC-controlled inputs.
    instr_input: BVVar
    original_input: BVVar
    inject_valid_input: BVVar
    # Module state-element names.
    queue_names: List[str]
    count_name: str
    pairs_done_name: str
    # Wiring expressions (to be tied to the core's fetch interface).
    instruction_out: BV
    valid_out: BV
    # Decoded views of the instruction actually presented to the core.
    out_opcode: BV
    # Allowed instruction catalogue for this mode.
    allowed: List[Instruction]


def _extract(word: BV, arch: ArchParams, field: str) -> BV:
    low, width = field_layout(arch)[field]
    return word[low : low + width]


def _is_any_opcode(opcode: BV, names: List[str]) -> BV:
    result: BV = BVConst(1, 0)
    for name in names:
        result = result | opcode.eq(BVConst(6, instruction_by_name(name).opcode))
    return result


def build_qed_module(
    circuit: Circuit,
    config: CoreConfig,
    *,
    mode: QEDMode = QEDMode.EDDIV,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    focus_opcodes: "Sequence[str] | None" = None,
    prefix: str = "qed",
) -> QEDModuleHandles:
    """Build the QED module into *circuit* and return its handles.

    The returned :attr:`~QEDModuleHandles.instruction_out` /
    :attr:`~QEDModuleHandles.valid_out` expressions are what the harness ties
    to the core's ``instr_in`` / ``instr_valid`` inputs.

    ``focus_opcodes`` optionally restricts the instructions the BMC tool may
    inject to a named subset of the mode's allowed set.  The full set is the
    faithful configuration; focused runs are how the evaluation campaign keeps
    the pure-Python SAT backend within the per-bug runtimes the paper reports
    for a commercial engine (the restriction is an environment constraint on
    the stimulus, not a property change, so it cannot introduce false
    failures).
    """
    if queue_depth < 1:
        raise ValueError("queue_depth must be at least 1")
    arch = config.arch
    allowed = allowed_instructions(
        arch, mode, with_extension=config.with_extension
    )
    if focus_opcodes is not None:
        focus = {name.upper() for name in focus_opcodes}
        unknown = focus - {instr.name for instr in allowed}
        if unknown:
            raise ValueError(
                f"focus opcodes not allowed in mode {mode.value}: {sorted(unknown)}"
            )
        allowed = [instr for instr in allowed if instr.name in focus]
    allowed_names = [instr.name for instr in allowed]

    # ------------------------------------------------------------------
    # BMC-controlled inputs.
    # ------------------------------------------------------------------
    instr_input = circuit.input(f"{prefix}.instr", arch.instr_width)
    original_input = circuit.input(f"{prefix}.original", 1)
    inject_valid_input = circuit.input(f"{prefix}.inject_valid", 1)

    # ------------------------------------------------------------------
    # Queue of originals awaiting duplication.
    # ------------------------------------------------------------------
    queue_regs = [
        circuit.register(f"{prefix}.queue{i}", arch.instr_width, reset=0)
        for i in range(queue_depth)
    ]
    count_width = max(2, (queue_depth + 1).bit_length())
    count = circuit.register(f"{prefix}.count", count_width, reset=0)
    pairs_done = circuit.register(f"{prefix}.pairs_done", 1, reset=0)

    push = inject_valid_input & original_input
    pop = inject_valid_input & ~original_input

    count.next = mux(
        push,
        count.q + BVConst(count_width, 1),
        mux(pop, count.q - BVConst(count_width, 1), count.q),
    )
    pairs_done.next = pairs_done.q | pop

    # Shift-register FIFO: entry 0 is the head.
    for index, register in enumerate(queue_regs):
        shifted_in = (
            queue_regs[index + 1].q
            if index + 1 < queue_depth
            else BVConst(arch.instr_width, 0)
        )
        pushed_here = push & count.q.eq(BVConst(count_width, index))
        # Push and pop cannot coincide (push requires original=1, pop requires
        # original=0), so a plain shift on pop and in-place write on push is
        # sufficient.
        register.next = mux(
            pop, shifted_in, mux(pushed_here, instr_input, register.q)
        )

    # ------------------------------------------------------------------
    # Duplicate transformation of the queue head.
    # ------------------------------------------------------------------
    head = queue_regs[0].q
    head_opcode = _extract(head, arch, "opcode")
    head_rd = _extract(head, arch, "rd")
    head_rs1 = _extract(head, arch, "rs1")
    head_rs2 = _extract(head, arch, "rs2")
    head_imm = _extract(head, arch, "imm")

    half_const4 = BVConst(4, arch.half_regs)
    dup_rd = head_rd | half_const4
    dup_rs1 = head_rs1 | half_const4
    dup_rs2 = head_rs2 | half_const4
    is_abs_mem = _is_any_opcode(head_opcode, ["LDA", "STA"])
    dup_imm = mux(
        is_abs_mem,
        head_imm + BVConst(arch.imm_width, arch.half_dmem),
        head_imm,
    )
    duplicate_word = concat(head_opcode, dup_rd, dup_rs1, dup_rs2, dup_imm)

    # ------------------------------------------------------------------
    # Output to the core's fetch interface.
    # ------------------------------------------------------------------
    nop_word = BVConst(arch.instr_width, nop_encoding(arch))
    instruction_out = mux(
        inject_valid_input,
        mux(original_input, instr_input, duplicate_word),
        nop_word,
    )
    valid_out = inject_valid_input
    out_opcode = _extract(instruction_out, arch, "opcode")

    # ------------------------------------------------------------------
    # Environmental constraints (the paper's point: these are *generic*, they
    # encode "any valid QED sequence", not design-specific behaviour).
    # ------------------------------------------------------------------
    in_opcode = _extract(instr_input, arch, "opcode")
    in_rd = _extract(instr_input, arch, "rd")
    in_rs1 = _extract(instr_input, arch, "rs1")
    in_rs2 = _extract(instr_input, arch, "rs2")
    in_imm = _extract(instr_input, arch, "imm")

    circuit.assume(
        f"{prefix}.valid_opcode", _is_any_opcode(in_opcode, allowed_names)
    )
    half = BVConst(4, arch.half_regs)
    circuit.assume(
        f"{prefix}.original_registers",
        in_rd.ult(half) & in_rs1.ult(half) & in_rs2.ult(half),
    )
    circuit.assume(
        f"{prefix}.original_memory_half",
        _is_any_opcode(in_opcode, ["LDA", "STA"]).implies(
            in_imm.ult(BVConst(arch.imm_width, arch.half_dmem))
        ),
    )
    circuit.assume(
        f"{prefix}.pop_requires_pending",
        pop.implies(count.q.ne(BVConst(count_width, 0))),
    )
    circuit.assume(
        f"{prefix}.push_requires_space",
        push.implies(count.q.ult(BVConst(count_width, queue_depth))),
    )

    return QEDModuleHandles(
        arch=arch,
        mode=mode,
        queue_depth=queue_depth,
        instr_input=instr_input,
        original_input=original_input,
        inject_valid_input=inject_valid_input,
        queue_names=[reg.name for reg in queue_regs],
        count_name=count.name,
        pairs_done_name=pairs_done.name,
        instruction_out=instruction_out,
        valid_out=valid_out,
        out_opcode=out_opcode,
        allowed=allowed,
    )
