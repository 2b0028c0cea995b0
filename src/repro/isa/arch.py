"""Architecture profiles.

The industrial designs are ~1,800 flip-flops and ~70,000 gates; a pure-Python
BMC cannot unroll a design of that size in seconds, so the reproduction scales
the datapath while keeping the structural properties Symbolic QED relies on
(2-stage in-order pipeline, >50-instruction ISA, register file with an even
number of registers so EDDI-V can split it into halves, a small data memory
that can also be split, and a flags register consumed only by branches).

Three profiles are provided:

* ``TINY_PROFILE`` -- 4-bit datapath, 8 registers.  Used by the unit tests and
  most of the benchmark harness so BMC queries solve in seconds (the regime
  the paper reports for the commercial engine on the real cores).
* ``SMALL_PROFILE`` -- 8-bit datapath, 16 registers.  The default for
  examples; closer to the published designs.
* ``FULL_PROFILE`` -- 16-bit datapath, 16 registers, larger memory.  Used to
  measure how the approach scales (optional long-running benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArchParams:
    """Parameters of one architecture profile.

    Attributes
    ----------
    name:
        Profile identifier used in reports.
    xlen:
        Data-path width in bits (register and memory word size).
    num_regs:
        Number of architectural registers.  Must be even so that EDDI-V can
        pair register ``a`` with register ``a + num_regs/2``.
    dmem_words:
        Number of data-memory words.  Must be even so that EDDI-V can split
        the memory space into an original and a duplicate half.
    imem_words:
        Number of instruction-memory (ROM) words available to programs.
    imm_width:
        Width of the immediate field in the instruction encoding.
    """

    name: str
    xlen: int
    num_regs: int
    dmem_words: int
    imem_words: int
    imm_width: int = 6

    def __post_init__(self) -> None:
        if self.xlen < 2:
            raise ValueError("xlen must be at least 2 bits")
        if self.num_regs < 4 or self.num_regs % 2:
            raise ValueError("num_regs must be an even number >= 4")
        if self.num_regs > 16:
            raise ValueError("the encoding supports at most 16 registers")
        if self.dmem_words < 2 or self.dmem_words % 2:
            raise ValueError("dmem_words must be an even number >= 2")
        if self.imm_width < 4 or self.imm_width > 8:
            raise ValueError("imm_width must be between 4 and 8 bits")

    # ------------------------------------------------------------------
    @property
    def reg_field_width(self) -> int:
        """Width of a register-specifier field in the encoding (fixed at 4)."""
        return 4

    @property
    def reg_index_width(self) -> int:
        """Number of bits needed to index the register file."""
        return max(1, (self.num_regs - 1).bit_length())

    @property
    def dmem_addr_width(self) -> int:
        """Number of bits needed to address the data memory."""
        return max(1, (self.dmem_words - 1).bit_length())

    @property
    def pc_width(self) -> int:
        """Width of the program counter."""
        return max(1, (self.imem_words - 1).bit_length())

    @property
    def instr_width(self) -> int:
        """Width of one encoded instruction word."""
        # opcode(6) + rd(4) + rs1(4) + rs2(4) + imm(imm_width)
        return 6 + 4 + 4 + 4 + self.imm_width

    @property
    def half_regs(self) -> int:
        """Number of registers in each EDDI-V half."""
        return self.num_regs // 2

    @property
    def half_dmem(self) -> int:
        """Number of data-memory words in each EDDI-V half."""
        return self.dmem_words // 2

    @property
    def xlen_mask(self) -> int:
        """Bit mask of the data-path width."""
        return (1 << self.xlen) - 1

    def register_name(self, index: int) -> str:
        """Conventional name of register *index* (``R0`` ... ``R15``)."""
        if not 0 <= index < self.num_regs:
            raise ValueError(f"register index {index} out of range")
        return f"R{index}"

    # -- canonical serialization ---------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical, versioned JSON form (every field explicit).

        Two equal profiles always serialize to the same dict, which is what
        lets content-addressed cache keys (:mod:`repro.serve.keys`) treat
        semantically identical requests as identical.
        """
        return {
            "format": 1,
            "name": self.name,
            "xlen": self.xlen,
            "num_regs": self.num_regs,
            "dmem_words": self.dmem_words,
            "imem_words": self.imem_words,
            "imm_width": self.imm_width,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArchParams":
        """Inverse of :meth:`to_json_dict` (validates the format tag)."""
        if data.get("format", 1) != 1:
            raise ValueError(f"unsupported ArchParams format {data.get('format')!r}")
        return cls(
            name=str(data["name"]),
            xlen=int(data["xlen"]),
            num_regs=int(data["num_regs"]),
            dmem_words=int(data["dmem_words"]),
            imem_words=int(data["imem_words"]),
            imm_width=int(data.get("imm_width", 6)),
        )


TINY_PROFILE = ArchParams(
    name="tiny", xlen=4, num_regs=8, dmem_words=4, imem_words=32, imm_width=5
)

SMALL_PROFILE = ArchParams(
    name="small", xlen=8, num_regs=16, dmem_words=16, imem_words=64, imm_width=6
)

FULL_PROFILE = ArchParams(
    name="full", xlen=16, num_regs=16, dmem_words=32, imem_words=64, imm_width=6
)
