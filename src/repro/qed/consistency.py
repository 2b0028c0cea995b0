"""The QED consistency property.

A *QED-consistent* architectural state is one in which every original /
duplicate register pair and memory pair holds equal values and no instruction
is left in flight.  The case study starts every BMC run from the core's
operating mode with the pipeline empty and all registers and memory locations
equal to zero -- which is exactly the reset state of our cores, so the
harness runs BMC from reset with no initial-state overrides.

The property checked by the BMC tool is the one from the paper's appendix::

    qed_ready  ->  AND_{a in 0..n/2-1}  (Ra == Ra')

extended with the corresponding data-memory pairs.  ``qed_ready`` asserts
once the duplicate sub-sequence has fully executed and the pipeline has
drained.
"""

from __future__ import annotations

from repro.bmc.property import SafetyProperty
from repro.expr.bitvec import BV, BVConst, BVVar
from repro.isa.arch import ArchParams
from repro.qed.qed_mem import PHASE_DONE, _PHASE_WIDTH, QEDMemHandles
from repro.qed.qed_module import QEDModuleHandles
from repro.uarch.core import dmem_word_name, register_word_name


def _register_pairs_equal(arch: ArchParams) -> BV:
    condition: BV = BVConst(1, 1)
    for original in range(arch.half_regs):
        duplicate = original + arch.half_regs
        condition = condition & BVVar(register_word_name(original), arch.xlen).eq(
            BVVar(register_word_name(duplicate), arch.xlen)
        )
    return condition


def _memory_pairs_equal(arch: ArchParams) -> BV:
    condition: BV = BVConst(1, 1)
    for original in range(arch.half_dmem):
        duplicate = original + arch.half_dmem
        condition = condition & BVVar(dmem_word_name(original), arch.xlen).eq(
            BVVar(dmem_word_name(duplicate), arch.xlen)
        )
    return condition


def qed_consistency_property(
    arch: ArchParams,
    qed: QEDModuleHandles,
    *,
    include_memory: bool = True,
    name: str = "qed_consistency",
) -> SafetyProperty:
    """The EDDI-V consistency property for a register-halving QED run."""
    count_width = max(2, (qed.queue_depth + 1).bit_length())
    queue_empty = BVVar(qed.count_name, count_width).eq(BVConst(count_width, 0))
    pairs_done = BVVar(qed.pairs_done_name, 1)
    pipeline_empty = ~BVVar("ex_valid", 1)
    qed_ready = queue_empty & pairs_done & pipeline_empty

    consistent = _register_pairs_equal(arch)
    if include_memory:
        consistent = consistent & _memory_pairs_equal(arch)

    return SafetyProperty(
        name=name,
        expr=qed_ready.implies(consistent),
        description=(
            "once the duplicate sub-sequence has completed and the pipeline "
            "has drained, every original/duplicate register and memory pair "
            "must hold equal values"
        ),
        start_cycle=2,
    )


def qed_memory_consistency_property(
    arch: ArchParams,
    handles: QEDMemHandles,
    *,
    name: str = "qed_memory_consistency",
) -> SafetyProperty:
    """The consistency property for a duplication-using-memory QED run."""
    phase_done = BVVar(handles.phase_name, _PHASE_WIDTH).eq(
        BVConst(_PHASE_WIDTH, PHASE_DONE)
    )
    pipeline_empty = ~BVVar("ex_valid", 1)
    qed_ready = phase_done & pipeline_empty

    consistent: BV = BVConst(1, 1)
    for original_slot, duplicate_slot in zip(
        handles.original_slots, handles.duplicate_slots
    ):
        consistent = consistent & BVVar(
            dmem_word_name(original_slot), arch.xlen
        ).eq(BVVar(dmem_word_name(duplicate_slot), arch.xlen))

    return SafetyProperty(
        name=name,
        expr=qed_ready.implies(consistent),
        description=(
            "after the original and duplicate sub-sequences have been spilled "
            "to their memory regions, corresponding locations must hold equal "
            "values"
        ),
        start_cycle=2,
    )
