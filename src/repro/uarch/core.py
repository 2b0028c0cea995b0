"""The 2-stage in-order pipelined microcontroller core.

The pipeline has two stages, matching the cores of the industrial case study:

* **IF** -- the instruction word presented on ``instr_in`` (by a ROM wrapper
  during simulation, or by the QED module during BMC) is captured into the
  ``ex_instr`` register together with a valid bit and the fetch PC.
* **EX** -- the captured instruction is decoded, operands are read from the
  register file, the ALU / memory / branch unit executes, results are written
  back and the flags register is updated, all in one cycle.  Taken branches
  flush the instruction currently being fetched (one-cycle flush, exactly the
  situation the paper's QED-CF conditions are designed for).

The core carries a small monitoring block (write-back history, a parity
monitor and a watchdog counter) standing in for the ASIL safety mechanisms of
the industrial designs; the seeded bugs use the history registers as their
trigger context.

Bug injection: :func:`build_core_circuit` accepts the set of bug identifiers
to inject (see :mod:`repro.uarch.bugs`).  A bug is a small, localised change
to the datapath expressions -- the same way the real RTL versions differed.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.expr.bitvec import (
    BV,
    BVConst,
    concat,
    mux,
    zero_extend,
)
from repro.isa.encoding import field_layout
from repro.isa.instructions import (
    FlagsUpdate,
    Instruction,
    InstructionClass,
    instructions_for_design,
    instruction_by_name,
)
from repro.rtl.circuit import Circuit
from repro.rtl.design import Design, elaborate
from repro.uarch.config import CoreConfig

#: Names of the combinational outputs every core exposes (used by the QED
#: harness, the Single-I / OCS-FV property generators and the testbenches).
CORE_OUTPUTS: Tuple[str, ...] = (
    "pc_out",
    "ex_pc_out",
    "commit",
    "ex_valid_out",
    "ex_opcode",
    "ex_rd",
    "ex_rs1",
    "ex_rs2",
    "ex_imm",
    "ex_rs1_val",
    "ex_rs2_val",
    "wb_enable",
    "wb_addr",
    "wb_value",
    "mem_we",
    "mem_addr",
    "mem_wdata",
    "mem_rdata",
    "cf_valid",
    "cf_taken",
    "cf_target",
    "next_flag_z",
    "next_flag_c",
    "next_flag_n",
    "halt_now",
    "safety_parity",
    "watchdog",
)


def _resize(expr: BV, width: int) -> BV:
    """Zero-extend or truncate *expr* to *width* bits."""
    if expr.width == width:
        return expr
    if expr.width < width:
        return zero_extend(expr, width)
    return expr[0:width]


def _bit(value: int) -> BV:
    return BVConst(1, value)


def build_core_circuit(config: CoreConfig, circuit: Circuit | None = None) -> Circuit:
    """Construct (but do not elaborate) the core circuit for *config*.

    When *circuit* is given, the core is built into that existing circuit;
    this is how the Symbolic QED harness places the QED module and the core
    side by side in one model for BMC.
    """
    arch = config.arch
    bugs = config.bugs
    xlen = arch.xlen
    mask = arch.xlen_mask
    if circuit is None:
        circuit = Circuit(config.name)

    # ------------------------------------------------------------------
    # Ports and state
    # ------------------------------------------------------------------
    instr_in = circuit.input("instr_in", arch.instr_width)
    instr_valid = circuit.input("instr_valid", 1)

    pc = circuit.register("pc", arch.pc_width, reset=0)
    ex_instr = circuit.register("ex_instr", arch.instr_width, reset=0)
    ex_valid = circuit.register("ex_valid", 1, reset=0)
    ex_pc = circuit.register("ex_pc", arch.pc_width, reset=0)
    halted = circuit.register("halted", 1, reset=0)
    flag_z = circuit.register("flag_z", 1, reset=0)
    flag_c = circuit.register("flag_c", 1, reset=0)
    flag_n = circuit.register("flag_n", 1, reset=0)

    regs = circuit.memory("regs", arch.num_regs, xlen)
    dmem = circuit.memory("dmem", arch.dmem_words, xlen)

    # Monitoring / history block (stands in for the ASIL monitoring logic and
    # provides the microarchitectural context the seeded bugs key on).
    hist_wb_valid = circuit.register("hist_wb_valid", 1, reset=0)
    hist_wb_addr = circuit.register("hist_wb_addr", arch.reg_index_width, reset=0)
    hist_was_load = circuit.register("hist_was_load", 1, reset=0)
    hist_was_store = circuit.register("hist_was_store", 1, reset=0)
    hist_store_addr = circuit.register(
        "hist_store_addr", arch.dmem_addr_width, reset=0
    )
    hist_opcode = circuit.register("hist_opcode", 6, reset=0)
    parity_reg = circuit.register("safety_parity_reg", 1, reset=0)
    watchdog = circuit.register("watchdog_counter", 3, reset=0)

    # ------------------------------------------------------------------
    # Decode (EX stage works on the captured instruction word)
    # ------------------------------------------------------------------
    layout = field_layout(arch)

    def fetch_field(name: str) -> BV:
        low, width = layout[name]
        return ex_instr.q[low : low + width]

    opcode = fetch_field("opcode")
    rd_field = fetch_field("rd")
    rs1_field = fetch_field("rs1")
    rs2_field = fetch_field("rs2")
    imm_field = fetch_field("imm")

    isa = instructions_for_design(with_extension=config.with_extension)
    is_op: Dict[str, BV] = {
        instr.name: opcode.eq(BVConst(6, instr.opcode)) for instr in isa
    }
    if "SATADD" not in is_op:
        is_op["SATADD"] = _bit(0)

    def any_op(names: List[str]) -> BV:
        result: BV = _bit(0)
        for name in names:
            result = result | is_op[name]
        return result

    by_class: Dict[InstructionClass, List[Instruction]] = {}
    for instr in isa:
        by_class.setdefault(instr.iclass, []).append(instr)

    def class_pred(iclass: InstructionClass) -> BV:
        return any_op([i.name for i in by_class.get(iclass, [])])

    is_alu_rr = class_pred(InstructionClass.ALU_RR) | is_op["SATADD"]
    is_alu_ri = class_pred(InstructionClass.ALU_RI)
    is_unary = class_pred(InstructionClass.UNARY)
    is_imm_load = class_pred(InstructionClass.IMM_LOAD)
    is_compare = class_pred(InstructionClass.COMPARE)
    is_branch_flag = class_pred(InstructionClass.BRANCH_FLAG)
    is_branch_reg = class_pred(InstructionClass.BRANCH_REG)
    is_jump = class_pred(InstructionClass.JUMP)
    is_load_op = any_op([i.name for i in isa if i.is_load])
    is_store_op = any_op([i.name for i in isa if i.is_store])
    is_cf_op = any_op([i.name for i in isa if i.is_control_flow])
    writes_rd_op = any_op([i.name for i in isa if i.writes_rd])
    sets_flags_op = any_op([i.name for i in isa if i.sets_flags])
    arith_add_op = any_op(
        [i.name for i in isa if i.flags is FlagsUpdate.ARITH_ADD]
    )
    arith_sub_op = any_op(
        [i.name for i in isa if i.flags is FlagsUpdate.ARITH_SUB]
    )

    ex_commit = ex_valid.q & ~halted.q

    # ------------------------------------------------------------------
    # Register file read
    # ------------------------------------------------------------------
    rd_idx = _resize(rd_field, arch.reg_index_width)
    rs1_idx = _resize(rs1_field, arch.reg_index_width)
    rs2_idx = _resize(rs2_field, arch.reg_index_width)
    rs1_val = regs.read(rs1_idx)
    rs2_val = regs.read(rs2_idx)

    half = arch.half_regs
    rs1_high = rs1_idx.uge(BVConst(arch.reg_index_width, half))
    rs2_high = rs2_idx.uge(BVConst(arch.reg_index_width, half))
    hist_wb_high = hist_wb_addr.q.uge(BVConst(arch.reg_index_width, half))

    # Immediate as data (truncated / extended to the data-path width).
    imm_data = _resize(imm_field, xlen)

    # ------------------------------------------------------------------
    # ALU
    # ------------------------------------------------------------------
    alu_b_raw = mux(is_alu_ri | is_op["CMPI"], imm_data, rs2_val)
    if "alu_after_load" in bugs:
        # Bug: the second ALU operand is corrupted (LSB forced high) when the
        # previous committed instruction was a load.
        alu_b = mux(
            hist_was_load.q & is_alu_rr, alu_b_raw | BVConst(xlen, 1), alu_b_raw
        )
    else:
        alu_b = alu_b_raw

    add_ext = zero_extend(rs1_val, xlen + 1) + zero_extend(alu_b, xlen + 1)
    add_result = add_ext[0:xlen]
    add_carry = add_ext[xlen]
    sub_result_plain = rs1_val - alu_b
    if "consecutive_sub" in bugs:
        # Bug: two back-to-back SUB instructions make the second one off by one.
        sub_result = mux(
            is_op["SUB"] & hist_opcode.q.eq(BVConst(6, instruction_by_name("SUB").opcode)),
            sub_result_plain + BVConst(xlen, 1),
            sub_result_plain,
        )
    else:
        sub_result = sub_result_plain
    no_borrow = ~rs1_val.ult(alu_b)

    and_result = rs1_val & alu_b
    or_result = rs1_val | alu_b
    xor_result = rs1_val ^ alu_b
    mul_result = rs1_val * alu_b
    min_result = mux(rs1_val.ult(alu_b), rs1_val, alu_b)
    max_result = mux(rs1_val.ult(alu_b), alu_b, rs1_val)
    sll_result = rs1_val << alu_b
    srl_result = rs1_val >> alu_b
    sra_result_plain = rs1_val.arith_shift_right(alu_b)
    sra_result = srl_result if "sra_zero_fill" in bugs else sra_result_plain

    not_result = ~rs1_val
    neg_result = -rs1_val
    neg_carry = rs1_val.eq(BVConst(xlen, 0))
    inc_ext = zero_extend(rs1_val, xlen + 1) + BVConst(xlen + 1, 1)
    inc_result = inc_ext[0:xlen]
    inc_carry = inc_ext[xlen]
    dec_result = rs1_val - BVConst(xlen, 1)
    dec_no_borrow = rs1_val.ne(BVConst(xlen, 0))
    rol_result = concat(rs1_val[0 : xlen - 1], rs1_val[xlen - 1])
    ror_result_plain = concat(rs1_val[0], rs1_val[1:xlen])
    ror_result = rol_result if "ror_direction" in bugs else ror_result_plain
    half_bits = xlen // 2
    swap_result = concat(rs1_val[0:half_bits], rs1_val[half_bits:xlen])
    parity_bit: BV = rs1_val[0]
    for bit_index in range(1, xlen):
        parity_bit = parity_bit ^ rs1_val[bit_index]
    parity_result = zero_extend(parity_bit, xlen)
    abs_result = mux(rs1_val[xlen - 1], neg_result, rs1_val)

    sat_limit = mask - 1 if "satadd_clamp" in bugs else mask
    satadd_result = mux(add_carry, BVConst(xlen, sat_limit), add_result)

    ldi_result = imm_data
    ldih_result = _resize(imm_data << BVConst(xlen, half_bits), xlen)
    if "ldil_after_load" in bugs:
        # Bug: LDIL (fixed destination R0) corrupts bit 0 of the immediate
        # when the previous committed instruction was a load.
        ldil_result = mux(
            hist_was_load.q, imm_data ^ BVConst(xlen, 1), imm_data
        )
    else:
        ldil_result = imm_data

    jal_link = _resize(ex_pc.q + BVConst(arch.pc_width, 1), xlen)

    # ------------------------------------------------------------------
    # Data memory
    # ------------------------------------------------------------------
    addr_base = mux(
        any_op(["LDA", "STA"]),
        imm_data,
        mux(any_op(["LDO", "STO"]), rs1_val + imm_data, rs1_val),
    )
    mem_addr = _resize(addr_base, arch.dmem_addr_width)
    mem_rdata_plain = dmem.read(mem_addr)
    if "st_ld_stale" in bugs:
        # Bug: a load immediately following a store to the same address goes
        # through the (broken) write-data forwarding path, which flips the
        # least-significant bit of the returned data.
        mem_rdata = mux(
            hist_was_store.q & hist_store_addr.q.eq(mem_addr),
            mem_rdata_plain ^ BVConst(xlen, 1),
            mem_rdata_plain,
        )
    else:
        mem_rdata = mem_rdata_plain
    mem_we = ex_commit & is_store_op
    dmem.write(mem_addr, rs2_val, mem_we)

    # ------------------------------------------------------------------
    # Result selection
    # ------------------------------------------------------------------
    result_candidates: List[Tuple[BV, BV]] = [
        (is_op["ADD"] | is_op["ADDI"], add_result),
        (is_op["SUB"] | is_op["SUBI"], sub_result),
        (is_op["AND"] | is_op["ANDI"], and_result),
        (is_op["OR"] | is_op["ORI"], or_result),
        (is_op["XOR"] | is_op["XORI"], xor_result),
        (is_op["NAND"], ~and_result),
        (is_op["NOR"], ~or_result),
        (is_op["XNOR"], ~xor_result),
        (is_op["MUL"], mul_result),
        (is_op["MIN"], min_result),
        (is_op["MAX"], max_result),
        (is_op["SLL"] | is_op["SLLI"], sll_result),
        (is_op["SRL"] | is_op["SRLI"], srl_result),
        (is_op["SRA"] | is_op["SRAI"], sra_result),
        (is_op["NOT"], not_result),
        (is_op["NEG"], neg_result),
        (is_op["MOV"], rs1_val),
        (is_op["INC"], inc_result),
        (is_op["DEC"], dec_result),
        (is_op["ROL"], rol_result),
        (is_op["ROR"], ror_result),
        (is_op["SWAP"], swap_result),
        (is_op["PARITY"], parity_result),
        (is_op["ABS"], abs_result),
        (is_op["LDI"], ldi_result),
        (is_op["LDIH"], ldih_result),
        (is_op["LDIL"], ldil_result),
        (is_op["LD"] | is_op["LDO"] | is_op["LDA"], mem_rdata),
        (is_op["CMP"] | is_op["CMPI"], sub_result),
        (is_op["TST"], rs1_val),
        (is_op["JAL"], jal_link),
        (is_op["SATADD"], satadd_result),
    ]
    result: BV = BVConst(xlen, 0)
    for condition, value in result_candidates:
        result = mux(condition, value, result)

    # SRAI shares the SRA data path but is unaffected by the SRA seeded bug
    # (the bug lives in the register-register shifter).
    if "sra_zero_fill" in bugs:
        result = mux(is_op["SRAI"], sra_result_plain, result)

    # ------------------------------------------------------------------
    # Write-back
    # ------------------------------------------------------------------
    wb_addr = mux(is_op["LDIL"], BVConst(arch.reg_index_width, 0), rd_idx)
    wb_enable = ex_commit & writes_rd_op
    if "wrport_collision" in bugs:
        # Bug: the register-file write port drops the second of two
        # back-to-back writes to the same register.
        wb_enable = wb_enable & ~(hist_wb_valid.q & hist_wb_addr.q.eq(wb_addr))
    if "inplace_after_store" in bugs:
        # Bug: an in-place update (rd == rs1) immediately after a store loses
        # its write-back.
        reads_rs1_op = any_op([i.name for i in isa if i.reads_rs1])
        wb_enable = wb_enable & ~(
            hist_was_store.q & writes_rd_op & reads_rs1_op & rd_idx.eq(rs1_idx)
        )
    wb_value = result
    regs.write(wb_addr, wb_value, wb_enable)

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    flag_value = result
    flags_write = ex_commit & sets_flags_op
    next_z = mux(flags_write, flag_value.eq(BVConst(xlen, 0)), flag_z.q)
    next_n = mux(flags_write, flag_value[xlen - 1], flag_n.q)

    carry_candidates: List[Tuple[BV, BV]] = [
        (is_op["ADD"] | is_op["ADDI"] | is_op["SATADD"], add_carry),
        (is_op["SUB"] | is_op["SUBI"] | is_op["CMP"] | is_op["CMPI"], no_borrow),
        (is_op["INC"], inc_carry),
        (is_op["DEC"], dec_no_borrow),
        (is_op["NEG"], neg_carry),
    ]
    carry_value: BV = flag_c.q
    for condition, value in carry_candidates:
        carry_value = mux(condition, value, carry_value)
    carry_write = ex_commit & (arith_add_op | arith_sub_op)
    if "cmpi_carry_spec" in bugs:
        # Specification-level issue: CMPI stops updating the carry flag.  The
        # design specification (golden model) was amended to match, so only a
        # property written from the original architectural intent notices.
        carry_write = carry_write & ~is_op["CMPI"]
    next_c = mux(carry_write, carry_value, flag_c.q)

    flag_z.next = next_z
    flag_n.next = next_n
    flag_c.next = next_c

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    bz_taken = flag_z.q
    if "bz_flag_misread" in bugs:
        # Bug: BZ samples the N flag instead of Z when the previously written
        # destination register lies in the upper half of the register file.
        bz_taken = mux(hist_wb_valid.q & hist_wb_high, flag_n.q, flag_z.q)
    bnz_taken = ~flag_z.q
    if "bnz_carry_confusion" in bugs:
        # Bug: BNZ is suppressed when the carry flag is set and the previous
        # write-back targeted an upper-half register.
        bnz_taken = ~flag_z.q & ~(flag_c.q & hist_wb_valid.q & hist_wb_high)

    beq_taken = rs1_val.eq(rs2_val)
    bne_taken = rs1_val.ne(rs2_val)
    if "beq_high_inverted" in bugs:
        # Bug: BEQ inverts its comparison when both source registers lie in
        # the upper half of the register file and the comparator bank is
        # still busy with the previous write-back.
        beq_taken = mux(
            rs1_high & rs2_high & hist_wb_valid.q,
            rs1_val.ne(rs2_val),
            beq_taken,
        )

    taken_candidates: List[Tuple[BV, BV]] = [
        (is_op["BZ"], bz_taken),
        (is_op["BNZ"], bnz_taken),
        (is_op["BC"], flag_c.q),
        (is_op["BNC"], ~flag_c.q),
        (is_op["BN"], flag_n.q),
        (is_op["BNN"], ~flag_n.q),
        (is_op["BEQ"], beq_taken),
        (is_op["BNE"], bne_taken),
        (is_op["JMP"] | is_op["JR"] | is_op["JAL"], _bit(1)),
    ]
    cf_taken: BV = _bit(0)
    for condition, value in taken_candidates:
        cf_taken = mux(condition, value, cf_taken)

    imm_target = _resize(imm_field, arch.pc_width)
    jr_target_val = rs1_val
    if "jr_target_offby1" in bugs:
        # Bug: JR through an upper-half register jumps one word past the
        # intended target when the previous instruction produced a write-back
        # (the target adder erroneously reuses the write-back increment).
        jr_target_val = mux(
            rs1_high & hist_wb_valid.q, rs1_val + BVConst(xlen, 1), rs1_val
        )
    jr_target = _resize(jr_target_val, arch.pc_width)
    cf_target = mux(is_op["JR"], jr_target, imm_target)

    cf_valid = ex_commit & is_cf_op
    branch_taken = cf_valid & cf_taken
    halt_now = ex_commit & is_op["HALT"]

    pc_plus_1 = pc.q + BVConst(arch.pc_width, 1)
    pc.next = mux(
        halted.q | halt_now,
        pc.q,
        mux(branch_taken, cf_target, pc_plus_1),
    )
    ex_instr.next = instr_in
    ex_pc.next = pc.q
    ex_valid.next = instr_valid & ~branch_taken & ~halt_now & ~halted.q
    halted.next = halted.q | halt_now

    # ------------------------------------------------------------------
    # Monitoring / history
    # ------------------------------------------------------------------
    hist_wb_valid.next = wb_enable
    hist_wb_addr.next = wb_addr
    hist_was_load.next = ex_commit & is_load_op
    hist_was_store.next = mem_we
    hist_store_addr.next = mem_addr
    hist_opcode.next = mux(ex_commit, opcode, BVConst(6, 0))
    parity_bit_wb: BV = wb_value[0]
    for bit_index in range(1, xlen):
        parity_bit_wb = parity_bit_wb ^ wb_value[bit_index]
    parity_reg.next = mux(wb_enable, parity_bit_wb, parity_reg.q)
    watchdog.next = mux(
        ex_commit,
        BVConst(3, 0),
        mux(watchdog.q.eq(BVConst(3, 7)), watchdog.q, watchdog.q + BVConst(3, 1)),
    )

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    circuit.output("pc_out", pc.q)
    circuit.output("ex_pc_out", ex_pc.q)
    circuit.output("commit", ex_commit)
    circuit.output("ex_valid_out", ex_valid.q)
    circuit.output("ex_opcode", opcode)
    circuit.output("ex_rd", rd_field)
    circuit.output("ex_rs1", rs1_field)
    circuit.output("ex_rs2", rs2_field)
    circuit.output("ex_imm", imm_field)
    circuit.output("ex_rs1_val", rs1_val)
    circuit.output("ex_rs2_val", rs2_val)
    circuit.output("wb_enable", wb_enable)
    circuit.output("wb_addr", wb_addr)
    circuit.output("wb_value", wb_value)
    circuit.output("mem_we", mem_we)
    circuit.output("mem_addr", mem_addr)
    circuit.output("mem_wdata", rs2_val)
    circuit.output("mem_rdata", mem_rdata)
    circuit.output("cf_valid", cf_valid)
    circuit.output("cf_taken", cf_valid & cf_taken)
    circuit.output("cf_target", cf_target)
    circuit.output("next_flag_z", next_z)
    circuit.output("next_flag_c", next_c)
    circuit.output("next_flag_n", next_n)
    circuit.output("halt_now", halt_now)
    circuit.output("safety_parity", parity_reg.q)
    circuit.output("watchdog", watchdog.q)
    return circuit


@functools.lru_cache(maxsize=64)
def build_core(config: CoreConfig) -> Design:
    """Build and elaborate a core for *config*, once per process.

    Every caller of one configuration shares the netlist, so it is
    read-only.  Thread-safe: two threads that miss together may each build
    a copy, both correct.  Bounded, since a server builds whatever arch a
    client names; the 16 versions and their clean bases fit.
    ``clear_version_lint_memo()`` drops the cache.
    """
    return elaborate(build_core_circuit(config), name=config.name)


def register_word_name(index: int) -> str:
    """State-element name of architectural register *index*."""
    return f"regs[{index}]"


def dmem_word_name(index: int) -> str:
    """State-element name of data-memory word *index*."""
    return f"dmem[{index}]"
