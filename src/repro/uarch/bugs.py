"""The seeded bug library.

Fourteen bugs are seeded across the sixteen design versions, chosen so that
the measured detection breakdown reproduces Fig. 10 of the paper:

* five microarchitectural interaction bugs detectable by baseline Symbolic
  QED (EDDI-V with the interleaving QED module) -- 5/14 = 35.7%,
* four control-flow bugs (wrong branch direction or wrong jump target) that
  require the QED-CF enhancement -- 4/14 = 28.6%,
* one bug on an instruction with a fixed destination register that requires
  the duplication-using-memory enhancement -- 1/14 = 7.1%,
* four single-instruction behaviour/specification bugs caught by Single-I
  properties -- 4/14 = 28.6%.

One of the Single-I bugs (``cmpi_carry_spec``) is a *specification* bug: the
RTL and the specification (golden model) agree with each other, so the
constrained-random flow cannot see it -- it is the "+7%" of Fig. 8 that only
Symbolic QED reports, present in Design A's final version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


#: Symbolic QED feature names used for attribution (Fig. 10).
FEATURE_EDDIV = "eddiv"
FEATURE_QED_CF = "qed_cf"
FEATURE_QED_MEM = "qed_mem"
FEATURE_SINGLE_I = "single_i"

FEATURES: Tuple[str, ...] = (
    FEATURE_EDDIV,
    FEATURE_QED_CF,
    FEATURE_QED_MEM,
    FEATURE_SINGLE_I,
)


@dataclass(frozen=True)
class Bug:
    """One seeded logic or specification bug."""

    bug_id: str
    title: str
    description: str
    kind: str  # "rtl" or "spec"
    primary_feature: str
    detected_by_crs: bool
    trigger: str
    #: fnmatch patterns of the netlist signals this bug's injection may
    #: touch.  The bug-library sanity check
    #: (:func:`repro.analysis.netlist_lint.lint_bug_library`) diffs each
    #: buggy version against its clean base and fails when the diff strays
    #: outside these patterns -- a bug that silently rewires unrelated
    #: logic would corrupt the detection study it exists to calibrate.
    signals: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("rtl", "spec"):
            raise ValueError("bug kind must be 'rtl' or 'spec'")
        if self.primary_feature not in FEATURES:
            raise ValueError(f"unknown feature {self.primary_feature!r}")


BUGS: List[Bug] = [
    # ----------------------------------------------------------------- EDDI-V
    Bug(
        bug_id="wrport_collision",
        title="Register-file write port drops back-to-back writes",
        description=(
            "When two consecutive committed instructions write the same "
            "destination register, the second write is silently dropped."
        ),
        kind="rtl",
        primary_feature=FEATURE_EDDIV,
        detected_by_crs=True,
        signals=('wb_enable', 'hist_wb_valid', 'regs*', 'safety_parity_reg'),
        trigger="two consecutive writes to the same register",
    ),
    Bug(
        bug_id="alu_after_load",
        title="ALU operand corrupted after a load",
        description=(
            "The second ALU operand has its least-significant bit forced high "
            "when the previous committed instruction was a load."
        ),
        kind="rtl",
        primary_feature=FEATURE_EDDIV,
        detected_by_crs=True,
        signals=('wb_value', 'flag_*', 'next_flag_*', 'regs*', 'safety_parity_reg'),
        trigger="register-register ALU instruction immediately after a load",
    ),
    Bug(
        bug_id="consecutive_sub",
        title="Back-to-back SUB off by one",
        description=(
            "The second of two consecutive SUB instructions produces a result "
            "that is one too large."
        ),
        kind="rtl",
        primary_feature=FEATURE_EDDIV,
        detected_by_crs=True,
        signals=('wb_value', 'flag_n', 'flag_z', 'next_flag_n', 'next_flag_z', 'regs*', 'safety_parity_reg'),
        trigger="two consecutive SUB instructions",
    ),
    Bug(
        bug_id="st_ld_stale",
        title="Load after store to the same address returns corrupted data",
        description=(
            "A load issued in the cycle immediately after a store to the same "
            "data-memory address takes the write-data forwarding path, which "
            "flips the least-significant bit of the returned value."
        ),
        kind="rtl",
        primary_feature=FEATURE_EDDIV,
        detected_by_crs=True,
        signals=('mem_rdata', 'wb_value', 'flag_n', 'flag_z', 'next_flag_n', 'next_flag_z', 'regs*', 'safety_parity_reg'),
        trigger="load immediately following a store to the same address",
    ),
    Bug(
        bug_id="inplace_after_store",
        title="In-place update dropped after a store",
        description=(
            "An instruction whose destination equals its first source (an "
            "in-place update) loses its write-back when the previous committed "
            "instruction was a store."
        ),
        kind="rtl",
        primary_feature=FEATURE_EDDIV,
        detected_by_crs=True,
        signals=('wb_enable', 'hist_wb_valid', 'regs*', 'safety_parity_reg'),
        trigger="rd == rs1 instruction immediately after a store",
    ),
    # ----------------------------------------------------------------- QED-CF
    Bug(
        bug_id="bz_flag_misread",
        title="BZ samples the wrong flag",
        description=(
            "BZ evaluates the N flag instead of Z when the previous write-back "
            "targeted an upper-half register, taking the branch in the wrong "
            "direction."
        ),
        kind="rtl",
        primary_feature=FEATURE_QED_CF,
        detected_by_crs=True,
        signals=('pc', 'ex_valid', 'cf_taken'),
        trigger="BZ after a flag-setting write to an upper-half register",
    ),
    Bug(
        bug_id="bnz_carry_confusion",
        title="BNZ suppressed by carry",
        description=(
            "BNZ is not taken when the carry flag is set and the previous "
            "write-back targeted an upper-half register."
        ),
        kind="rtl",
        primary_feature=FEATURE_QED_CF,
        detected_by_crs=True,
        signals=('pc', 'ex_valid', 'cf_taken'),
        trigger="BNZ with C=1 after a write to an upper-half register",
    ),
    Bug(
        bug_id="jr_target_offby1",
        title="JR target off by one for upper-half registers",
        description=(
            "JR through an upper-half register jumps one instruction past the "
            "intended target address."
        ),
        kind="rtl",
        primary_feature=FEATURE_QED_CF,
        detected_by_crs=True,
        signals=('pc', 'cf_target'),
        trigger="JR with rs1 in the upper half of the register file",
    ),
    Bug(
        bug_id="beq_high_inverted",
        title="BEQ comparison inverted for upper-half registers",
        description=(
            "BEQ branches on inequality instead of equality when both source "
            "registers lie in the upper half of the register file."
        ),
        kind="rtl",
        primary_feature=FEATURE_QED_CF,
        detected_by_crs=True,
        signals=('pc', 'ex_valid', 'cf_taken'),
        trigger="BEQ with both sources in the upper half",
    ),
    # ------------------------------------------------------------ QED memory
    Bug(
        bug_id="ldil_after_load",
        title="LDIL corrupted after a load",
        description=(
            "LDIL (load-immediate with fixed destination R0) corrupts bit 0 of "
            "the immediate when the previous committed instruction was a load."
        ),
        kind="rtl",
        primary_feature=FEATURE_QED_MEM,
        detected_by_crs=True,
        signals=('wb_value', 'flag_n', 'flag_z', 'next_flag_n', 'next_flag_z', 'regs*', 'safety_parity_reg'),
        trigger="LDIL immediately after a load",
    ),
    # -------------------------------------------------------------- Single-I
    Bug(
        bug_id="sra_zero_fill",
        title="SRA shifts in zeros",
        description=(
            "The register-register arithmetic shift right fills with zeros "
            "instead of the sign bit (it behaves like SRL)."
        ),
        kind="rtl",
        primary_feature=FEATURE_SINGLE_I,
        detected_by_crs=True,
        signals=('wb_value', 'flag_n', 'flag_z', 'next_flag_n', 'next_flag_z', 'regs*', 'safety_parity_reg'),
        trigger="SRA of a negative value",
    ),
    Bug(
        bug_id="cmpi_carry_spec",
        title="CMPI stops updating the carry flag (specification bug)",
        description=(
            "CMPI no longer updates the carry flag.  The design specification "
            "was amended to match the RTL, so simulation against the "
            "specification model cannot expose the deviation from the original "
            "architectural intent."
        ),
        kind="spec",
        primary_feature=FEATURE_SINGLE_I,
        detected_by_crs=False,
        signals=('flag_c', 'next_flag_c'),
        trigger="CMPI followed by a carry-dependent decision",
    ),
    Bug(
        bug_id="ror_direction",
        title="ROR rotates the wrong way",
        description="ROR performs a rotate-left instead of a rotate-right.",
        kind="rtl",
        primary_feature=FEATURE_SINGLE_I,
        detected_by_crs=True,
        signals=('wb_value', 'flag_n', 'flag_z', 'next_flag_n', 'next_flag_z', 'regs*', 'safety_parity_reg'),
        trigger="ROR of an asymmetric bit pattern",
    ),
    Bug(
        bug_id="satadd_clamp",
        title="SATADD saturates one short of the maximum",
        description=(
            "The saturating add clamps to MAX-1 instead of MAX on overflow "
            "(extension instruction, Designs B and C only)."
        ),
        kind="rtl",
        primary_feature=FEATURE_SINGLE_I,
        detected_by_crs=True,
        signals=('wb_value', 'flag_n', 'flag_z', 'next_flag_n', 'next_flag_z', 'regs*', 'safety_parity_reg'),
        trigger="SATADD overflow",
    ),
]

_BY_ID: Dict[str, Bug] = {bug.bug_id: bug for bug in BUGS}


def bug_by_id(bug_id: str) -> Bug:
    """Look up a bug by identifier."""
    try:
        return _BY_ID[bug_id]
    except KeyError:
        raise KeyError(f"unknown bug id {bug_id!r}") from None
