"""Single-Instruction (Single-I) properties.

For every instruction of the ISA, a property describes its architecturally
intended behaviour with *symbolic* operand values, and is checked with the
pipeline otherwise empty (the paper's Question 5.C).  The properties are
written from the ISA catalogue -- the original architectural intent -- and
are therefore independent of the design specification document (the golden
model); this independence is exactly what lets Single-I expose the
``cmpi_carry_spec`` specification bug that the simulation-based flows cannot
see.

The same generator is reused (with deliberately weakened settings) by the
OCS-FV baseline in :mod:`repro.indverif.ocsfv`.

Single-I queries reach the solver without CNF preprocessing.  The engine
unrolls the pinned instruction under test as constants, so a correct
instruction's slab folds to a couple of clauses, and only a violated one
leaves a real slab: 340-736 clauses, which preprocessing took 7-15 ms to
reduce for a 1-2 ms solve.  A SAT answer is still confirmed by the
engine's counterexample replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.bmc.engine import BMCProblem, BMCStatus, BoundedModelChecker
from repro.bmc.property import Assumption, SafetyProperty
from repro.bmc.unroller import SYMBOLIC
from repro.expr.bitvec import BV, BVConst, BVVar, concat, mux, zero_extend
from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.isa.encoding import field_layout
from repro.isa.instructions import (
    FlagsUpdate,
    Instruction,
    InstructionClass,
    instructions_for_design,
)
from repro.obs import trace as obs_trace
from repro.rtl.design import Design
from repro.uarch.config import CoreConfig
from repro.uarch.core import build_core
from repro.uarch.designs import config_for_version
from repro.uarch.versions import DesignVersion


def _resize(expr: BV, width: int) -> BV:
    if expr.width == width:
        return expr
    if expr.width < width:
        return zero_extend(expr, width)
    return expr[0:width]


def _core_signal(name: str, width: int) -> BV:
    return BVVar(name, width)


@dataclass
class _SpecResult:
    """Expected architectural effect of one instruction."""

    writes: bool = False
    value: Optional[BV] = None
    wb_addr_is_fixed_zero: bool = False
    carry: Optional[BV] = None
    sets_flags: bool = False
    sets_carry: bool = False
    is_store: bool = False
    mem_addr: Optional[BV] = None
    is_load: bool = False
    is_cf: bool = False
    taken: Optional[BV] = None
    target: Optional[BV] = None
    halts: bool = False


def _specification(instr: Instruction, arch: ArchParams) -> _SpecResult:
    """Architecturally intended behaviour of *instr* over the EX-stage view."""
    xlen = arch.xlen
    mask = arch.xlen_mask
    a = _core_signal("ex_rs1_val", xlen)
    b = _core_signal("ex_rs2_val", xlen)
    imm = _core_signal("ex_imm", arch.imm_width)
    imm_data = _resize(imm, xlen)
    flag_z = _core_signal("flag_z", 1)
    flag_c = _core_signal("flag_c", 1)
    flag_n = _core_signal("flag_n", 1)

    spec = _SpecResult()
    spec.sets_flags = instr.sets_flags
    spec.sets_carry = instr.flags in (FlagsUpdate.ARITH_ADD, FlagsUpdate.ARITH_SUB)

    def add_like(x: BV, y: BV) -> None:
        extended = zero_extend(x, xlen + 1) + zero_extend(y, xlen + 1)
        spec.value = extended[0:xlen]
        spec.carry = extended[xlen]

    def sub_like(x: BV, y: BV) -> None:
        spec.value = x - y
        spec.carry = ~x.ult(y)

    name = instr.name
    operand_b = imm_data if instr.iclass is InstructionClass.ALU_RI else b

    if name in ("NOP",):
        return spec
    if name == "HALT":
        spec.halts = True
        return spec

    if instr.writes_rd:
        spec.writes = True
        spec.wb_addr_is_fixed_zero = instr.fixed_rd == 0 and instr.name == "LDIL"

    if name in ("ADD", "ADDI"):
        add_like(a, operand_b)
    elif name in ("SUB", "SUBI"):
        sub_like(a, operand_b)
    elif name in ("AND", "ANDI"):
        spec.value = a & operand_b
    elif name in ("OR", "ORI"):
        spec.value = a | operand_b
    elif name in ("XOR", "XORI"):
        spec.value = a ^ operand_b
    elif name == "NAND":
        spec.value = ~(a & b)
    elif name == "NOR":
        spec.value = ~(a | b)
    elif name == "XNOR":
        spec.value = ~(a ^ b)
    elif name == "MUL":
        spec.value = a * b
    elif name == "MIN":
        spec.value = mux(a.ult(b), a, b)
    elif name == "MAX":
        spec.value = mux(a.ult(b), b, a)
    elif name in ("SLL", "SLLI"):
        spec.value = a << operand_b
    elif name in ("SRL", "SRLI"):
        spec.value = a >> operand_b
    elif name in ("SRA", "SRAI"):
        spec.value = a.arith_shift_right(operand_b)
    elif name == "NOT":
        spec.value = ~a
    elif name == "NEG":
        spec.value = -a
        spec.carry = a.eq(BVConst(xlen, 0))
    elif name == "MOV":
        spec.value = a
    elif name == "INC":
        add_like(a, BVConst(xlen, 1))
    elif name == "DEC":
        spec.value = a - BVConst(xlen, 1)
        spec.carry = a.ne(BVConst(xlen, 0))
    elif name == "ROL":
        spec.value = concat(a[0 : xlen - 1], a[xlen - 1])
    elif name == "ROR":
        spec.value = concat(a[0], a[1:xlen])
    elif name == "SWAP":
        half = xlen // 2
        spec.value = concat(a[0:half], a[half:xlen])
    elif name == "PARITY":
        bit: BV = a[0]
        for index in range(1, xlen):
            bit = bit ^ a[index]
        spec.value = zero_extend(bit, xlen)
    elif name == "ABS":
        spec.value = mux(a[xlen - 1], -a, a)
    elif name == "SATADD":
        extended = zero_extend(a, xlen + 1) + zero_extend(b, xlen + 1)
        spec.value = mux(extended[xlen], BVConst(xlen, mask), extended[0:xlen])
        spec.carry = extended[xlen]
    elif name == "LDI":
        spec.value = imm_data
    elif name == "LDIH":
        spec.value = _resize(imm_data << BVConst(xlen, xlen // 2), xlen)
    elif name == "LDIL":
        spec.value = imm_data
    elif name in ("LD", "LDO", "LDA"):
        spec.is_load = True
        spec.mem_addr = _memory_address_spec(name, a, imm_data, arch)
    elif name in ("ST", "STO", "STA"):
        spec.is_store = True
        spec.mem_addr = _memory_address_spec(name, a, imm_data, arch)
    elif name == "CMP":
        sub_like(a, b)
        spec.writes = False
    elif name == "CMPI":
        sub_like(a, imm_data)
        spec.writes = False
    elif name == "TST":
        spec.value = a
        spec.writes = False
    elif instr.iclass is InstructionClass.BRANCH_FLAG:
        spec.is_cf = True
        spec.taken = {
            "BZ": flag_z,
            "BNZ": ~flag_z,
            "BC": flag_c,
            "BNC": ~flag_c,
            "BN": flag_n,
            "BNN": ~flag_n,
        }[name]
        spec.target = _resize(imm, arch.pc_width)
    elif name in ("BEQ", "BNE"):
        spec.is_cf = True
        spec.taken = a.eq(b) if name == "BEQ" else a.ne(b)
        spec.target = _resize(imm, arch.pc_width)
    elif name == "JMP":
        spec.is_cf = True
        spec.taken = BVConst(1, 1)
        spec.target = _resize(imm, arch.pc_width)
    elif name == "JR":
        spec.is_cf = True
        spec.taken = BVConst(1, 1)
        spec.target = _resize(a, arch.pc_width)
    elif name == "JAL":
        spec.is_cf = True
        spec.taken = BVConst(1, 1)
        spec.target = _resize(imm, arch.pc_width)
        spec.value = _resize(
            _core_signal("ex_pc_out", arch.pc_width) + BVConst(arch.pc_width, 1),
            xlen,
        )
    else:  # pragma: no cover - catalogue and spec must stay in sync
        raise NotImplementedError(f"no Single-I specification for {name}")
    return spec


def _memory_address_spec(name: str, a: BV, imm_data: BV, arch: ArchParams) -> BV:
    if name in ("LD", "ST"):
        base = a
    elif name in ("LDO", "STO"):
        base = a + imm_data
    else:  # LDA / STA
        base = imm_data
    return _resize(base, arch.dmem_addr_width)


def single_i_property(
    instr: Instruction,
    arch: ArchParams,
    *,
    check_carry: bool = True,
    check_flags: bool = True,
    name_prefix: str = "single_i",
) -> SafetyProperty:
    """Build the Single-I property for *instr*.

    The property is expressed over the core's EX-stage outputs at the cycle
    in which the instruction executes; the accompanying assumption (see
    :meth:`SingleIChecker.assumptions_for`) pins the injected instruction.
    ``check_carry`` / ``check_flags`` exist so the OCS-FV baseline can model
    its weaker, human-written property set.
    """
    xlen = arch.xlen
    spec = _specification(instr, arch)
    commit = _core_signal("commit", 1)
    opcode = _core_signal("ex_opcode", 6)
    executing = commit & opcode.eq(BVConst(6, instr.opcode))

    wb_enable = _core_signal("wb_enable", 1)
    wb_addr = _core_signal("wb_addr", arch.reg_index_width)
    wb_value = _core_signal("wb_value", xlen)
    ex_rd = _core_signal("ex_rd", 4)
    mem_we = _core_signal("mem_we", 1)
    mem_addr = _core_signal("mem_addr", arch.dmem_addr_width)
    mem_wdata = _core_signal("mem_wdata", xlen)
    cf_valid = _core_signal("cf_valid", 1)
    cf_taken = _core_signal("cf_taken", 1)
    cf_target = _core_signal("cf_target", arch.pc_width)
    next_z = _core_signal("next_flag_z", 1)
    next_c = _core_signal("next_flag_c", 1)
    next_n = _core_signal("next_flag_n", 1)
    flag_z = _core_signal("flag_z", 1)
    flag_c = _core_signal("flag_c", 1)
    flag_n = _core_signal("flag_n", 1)
    halt_now = _core_signal("halt_now", 1)

    checks: BV = BVConst(1, 1)

    if spec.writes:
        checks = checks & wb_enable
        expected_addr = (
            BVConst(arch.reg_index_width, 0)
            if spec.wb_addr_is_fixed_zero
            else _resize(ex_rd, arch.reg_index_width)
        )
        checks = checks & wb_addr.eq(expected_addr)
        if spec.value is not None:
            checks = checks & wb_value.eq(spec.value)
    elif not spec.is_load:
        checks = checks & ~wb_enable

    if spec.is_load:
        checks = checks & wb_enable & ~mem_we
        if spec.mem_addr is not None:
            checks = checks & mem_addr.eq(spec.mem_addr)
    if spec.is_store:
        checks = checks & mem_we & ~wb_enable
        if spec.mem_addr is not None:
            checks = checks & mem_addr.eq(spec.mem_addr)
        checks = checks & mem_wdata.eq(_core_signal("ex_rs2_val", xlen))
    if not spec.is_store and not spec.is_load and instr.name != "HALT":
        checks = checks & ~mem_we

    if spec.is_cf:
        checks = checks & cf_valid
        if spec.taken is not None:
            checks = checks & cf_taken.eq(spec.taken)
        if spec.target is not None and spec.taken is not None:
            checks = checks & spec.taken.implies(cf_target.eq(spec.target))
    elif instr.name not in ("HALT",):
        checks = checks & ~cf_valid

    if spec.halts:
        checks = checks & halt_now

    if check_flags and spec.value is not None:
        if spec.sets_flags:
            checks = checks & next_z.eq(spec.value.eq(BVConst(xlen, 0)))
            checks = checks & next_n.eq(spec.value[xlen - 1])
            if check_carry:
                if spec.sets_carry and spec.carry is not None:
                    checks = checks & next_c.eq(spec.carry)
                elif not spec.sets_carry:
                    checks = checks & next_c.eq(flag_c)
        else:
            checks = checks & next_z.eq(flag_z)
            checks = checks & next_n.eq(flag_n)
            if check_carry:
                checks = checks & next_c.eq(flag_c)

    return SafetyProperty(
        name=f"{name_prefix}_{instr.name.lower()}",
        expr=executing.implies(checks),
        description=f"architectural intent of {instr.name}: {instr.description}",
        start_cycle=1,
    )


@dataclass
class SingleIResult:
    """Outcome of checking one Single-I property."""

    instruction: str
    violated: bool
    #: Duration of the check's ``single_i.check`` span (engine build and run).
    runtime_seconds: float
    counterexample_cycles: int = 0
    counterexample_instructions: int = 0


class SingleIChecker:
    """Generate and check Single-I properties on a design version."""

    def __init__(
        self,
        design: Union[CoreConfig, DesignVersion, str],
        *,
        arch: ArchParams = TINY_PROFILE,
        symbolic_operands: bool = True,
        check_carry: bool = True,
        check_flags: bool = True,
        name_prefix: str = "single_i",
    ) -> None:
        if isinstance(design, CoreConfig):
            self.config = design
        else:
            self.config = config_for_version(design, arch=arch)
        self.symbolic_operands = symbolic_operands
        self.check_carry = check_carry
        self.check_flags = check_flags
        self.name_prefix = name_prefix
        self.design: Design = build_core(self.config)
        self.instructions = instructions_for_design(
            with_extension=self.config.with_extension
        )

    # ------------------------------------------------------------------
    def initial_state(self) -> Dict[str, object]:
        """Initial-state overrides: symbolic operands, empty pipeline."""
        overrides: Dict[str, object] = {}
        if not self.symbolic_operands:
            return overrides
        arch = self.config.arch
        for index in range(arch.num_regs):
            overrides[f"regs[{index}]"] = SYMBOLIC
        for flag in ("flag_z", "flag_c", "flag_n"):
            overrides[flag] = SYMBOLIC
        return overrides

    def assumptions_for(self, instr: Instruction) -> List[Assumption]:
        """Pin the cycle-0 injected instruction to *instr* with valid fields."""
        arch = self.config.arch
        layout = field_layout(arch)
        instr_in = BVVar("instr_in", arch.instr_width)
        instr_valid = BVVar("instr_valid", 1)

        def fetch(fieldname: str) -> BV:
            low, width = layout[fieldname]
            return instr_in[low : low + width]

        opcode_pinned = fetch("opcode").eq(BVConst(6, instr.opcode))
        regs_valid = (
            fetch("rd").ult(BVConst(4, arch.num_regs))
            & fetch("rs1").ult(BVConst(4, arch.num_regs))
            & fetch("rs2").ult(BVConst(4, arch.num_regs))
        )
        return [
            Assumption(
                name=f"pin_{instr.name.lower()}",
                expr=instr_valid & opcode_pinned & regs_valid,
                description=f"cycle 0 injects a {instr.name} with valid fields",
                only_cycle=0,
            )
        ]

    def property_for(self, instr: Instruction) -> SafetyProperty:
        """The Single-I property of *instr* under this checker's settings."""
        return single_i_property(
            instr,
            self.config.arch,
            check_carry=self.check_carry,
            check_flags=self.check_flags,
            name_prefix=self.name_prefix,
        )

    # ------------------------------------------------------------------
    def check_instruction(
        self, instr: Union[Instruction, str], *, max_bound: int = 2
    ) -> SingleIResult:
        """Check one instruction's Single-I property.

        The query skips CNF preprocessing: with the instruction pinned, a
        violated instruction's slab is at most a few hundred clauses
        (736 for ``sra_zero_fill``), where preprocessing cost 7-15 ms
        against a 1-2 ms solve, and a correct one's is about two clauses.
        """
        if isinstance(instr, str):
            matches = [i for i in self.instructions if i.name == instr.upper()]
            if not matches:
                raise KeyError(f"instruction {instr!r} not in this design's ISA")
            instr = matches[0]
        problem = BMCProblem(
            design=self.design,
            prop=self.property_for(instr),
            assumptions=self.assumptions_for(instr),
            initial_state=self.initial_state(),
            max_bound=max_bound,
            preprocess=False,
        )
        with obs_trace.span("single_i.check", instruction=instr.name) as span:
            result = BoundedModelChecker(problem).run()
        violated = result.status is BMCStatus.VIOLATION
        return SingleIResult(
            instruction=instr.name,
            violated=violated,
            runtime_seconds=span.seconds,
            counterexample_cycles=result.counterexample_length if violated else 0,
            counterexample_instructions=1 if violated else 0,
        )

    def check_all(
        self,
        *,
        max_bound: int = 2,
        instructions: Optional[Sequence[str]] = None,
    ) -> List[SingleIResult]:
        """Check every instruction (or the named subset) and return results.

        Results follow the ISA's order.  A name outside this design's ISA
        raises ``KeyError`` (naming every such name) rather than being
        dropped, since a "not violated" would then rest on fewer checks
        than were asked for.
        """
        selected = self.instructions
        if instructions is not None:
            known = {i.name for i in self.instructions}
            unknown = [name for name in instructions if name.upper() not in known]
            if unknown:
                raise KeyError(
                    f"instructions {unknown!r} not in this design's ISA"
                )
            names = {name.upper() for name in instructions}
            selected = [i for i in self.instructions if i.name in names]
        return [
            self.check_instruction(instr, max_bound=max_bound)
            for instr in selected
        ]

    def violated_instructions(
        self, results: Optional[List[SingleIResult]] = None
    ) -> List[str]:
        """Names of instructions whose Single-I property fails."""
        if results is None:
            results = self.check_all()
        return [r.instruction for r in results if r.violated]
