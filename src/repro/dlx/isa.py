"""The DLX instruction set (44 instructions, per Section VI).

The paper's test vehicle implements 44 DLX instructions on a five-stage
pipeline [14].  We reproduce exactly 44:

* loads:            LB LBU LH LHU LW                        (5)
* stores:           SB SH SW                                (3)
* ALU immediate:    ADDI ADDUI SUBI ANDI ORI XORI           (6)
* ALU register:     ADD ADDU SUB SUBU AND OR XOR            (7)
* set-on-compare:   SEQ SNE SLT SGT SLE SGE                 (6)
* set-on-cmp imm:   SEQI SNEI SLTI SGTI SLEI SGEI           (6)
* shifts register:  SLL SRL SRA                             (3)
* shifts immediate: SLLI SRLI SRAI                          (3)
* branches:         BEQZ BNEZ                               (2)
* jumps:            J JAL JR                                (3)

Sequencing is behavioural (see DESIGN.md): the instruction stream is the
program, a taken branch (resolved in EX) squashes the two following slots, a
jump (resolved in ID) squashes one.  JAL's link value is defined as its
immediate, routed through the EX pass path to r31 — this keeps the datapath
path real without modelling a PC/fetch unit.
"""

from __future__ import annotations

from dataclasses import dataclass

WIDTH = 32
N_REGS = 32
IMM_WIDTH = 16

MNEMONIC_LIST = [
    # loads (5)
    "LB", "LBU", "LH", "LHU", "LW",
    # stores (3)
    "SB", "SH", "SW",
    # ALU immediate (6)
    "ADDI", "ADDUI", "SUBI", "ANDI", "ORI", "XORI",
    # ALU register (7)
    "ADD", "ADDU", "SUB", "SUBU", "AND", "OR", "XOR",
    # set-on-compare register (6)
    "SEQ", "SNE", "SLT", "SGT", "SLE", "SGE",
    # set-on-compare immediate (6)
    "SEQI", "SNEI", "SLTI", "SGTI", "SLEI", "SGEI",
    # shifts register (3)
    "SLL", "SRL", "SRA",
    # shifts immediate (3)
    "SLLI", "SRLI", "SRAI",
    # branches (2)
    "BEQZ", "BNEZ",
    # jumps (3)
    "J", "JAL", "JR",
]
assert len(MNEMONIC_LIST) == 44

OPCODES = {name: code for code, name in enumerate(MNEMONIC_LIST)}
MNEMONICS = dict(enumerate(MNEMONIC_LIST))

LOADS = frozenset(OPCODES[m] for m in ("LB", "LBU", "LH", "LHU", "LW"))
STORES = frozenset(OPCODES[m] for m in ("SB", "SH", "SW"))
ALU_IMM = frozenset(
    OPCODES[m] for m in ("ADDI", "ADDUI", "SUBI", "ANDI", "ORI", "XORI")
)
ALU_REG = frozenset(
    OPCODES[m] for m in ("ADD", "ADDU", "SUB", "SUBU", "AND", "OR", "XOR")
)
SETCC_REG = frozenset(
    OPCODES[m] for m in ("SEQ", "SNE", "SLT", "SGT", "SLE", "SGE")
)
SETCC_IMM = frozenset(
    OPCODES[m] for m in ("SEQI", "SNEI", "SLTI", "SGTI", "SLEI", "SGEI")
)
SHIFT_REG = frozenset(OPCODES[m] for m in ("SLL", "SRL", "SRA"))
SHIFT_IMM = frozenset(OPCODES[m] for m in ("SLLI", "SRLI", "SRAI"))
BRANCHES = frozenset(OPCODES[m] for m in ("BEQZ", "BNEZ"))
JUMPS = frozenset(OPCODES[m] for m in ("J", "JAL", "JR"))

#: Instructions whose second ALU operand is the (extended) immediate.
IMM_OPS = LOADS | STORES | ALU_IMM | SETCC_IMM | SHIFT_IMM | {OPCODES["JAL"]}
#: Instructions whose immediate is zero-extended (logical immediates).
ZERO_EXT_OPS = frozenset(OPCODES[m] for m in ("ANDI", "ORI", "XORI"))
#: Instructions that write a destination register.
WRITING_OPS = (
    LOADS | ALU_IMM | ALU_REG | SETCC_REG | SETCC_IMM | SHIFT_REG | SHIFT_IMM
    | {OPCODES["JAL"]}
)
#: Instructions that read rs / rt.
USES_RS = frozenset(range(44)) - {OPCODES["J"], OPCODES["JAL"]}
USES_RT = STORES | ALU_REG | SETCC_REG | SHIFT_REG
#: R-type destination is rd; I-type destination is rt; JAL links to r31.
RTYPE = ALU_REG | SETCC_REG | SHIFT_REG

#: ALU result select (datapath alu_mux input index).
ALU_ADD, ALU_SUB, ALU_AND, ALU_OR, ALU_XOR = 0, 1, 2, 3, 4
ALU_SLL, ALU_SRL, ALU_SRA, ALU_SETCC, ALU_PASSB = 5, 6, 7, 8, 9

_ALU_SEL_TABLE = {
    **{op: ALU_ADD for op in LOADS | STORES},
    OPCODES["ADDI"]: ALU_ADD, OPCODES["ADDUI"]: ALU_ADD,
    OPCODES["SUBI"]: ALU_SUB,
    OPCODES["ANDI"]: ALU_AND, OPCODES["ORI"]: ALU_OR,
    OPCODES["XORI"]: ALU_XOR,
    OPCODES["ADD"]: ALU_ADD, OPCODES["ADDU"]: ALU_ADD,
    OPCODES["SUB"]: ALU_SUB, OPCODES["SUBU"]: ALU_SUB,
    OPCODES["AND"]: ALU_AND, OPCODES["OR"]: ALU_OR,
    OPCODES["XOR"]: ALU_XOR,
    **{op: ALU_SETCC for op in SETCC_REG | SETCC_IMM},
    OPCODES["SLL"]: ALU_SLL, OPCODES["SRL"]: ALU_SRL,
    OPCODES["SRA"]: ALU_SRA,
    OPCODES["SLLI"]: ALU_SLL, OPCODES["SRLI"]: ALU_SRL,
    OPCODES["SRAI"]: ALU_SRA,
    **{op: ALU_SUB for op in BRANCHES},  # don't-care; sub keeps buses busy
    OPCODES["J"]: ALU_ADD,
    OPCODES["JAL"]: ALU_PASSB,  # link value = immediate, passed through
    OPCODES["JR"]: ALU_ADD,
}


def alu_sel_for(op: int) -> int:
    return _ALU_SEL_TABLE[op]


#: Set-on-compare select (datapath setcc_mux input index).
SETCC_EQ, SETCC_NE, SETCC_LT, SETCC_GT, SETCC_LE, SETCC_GE = range(6)
_SETCC_TABLE = {
    OPCODES["SEQ"]: SETCC_EQ, OPCODES["SEQI"]: SETCC_EQ,
    OPCODES["SNE"]: SETCC_NE, OPCODES["SNEI"]: SETCC_NE,
    OPCODES["SLT"]: SETCC_LT, OPCODES["SLTI"]: SETCC_LT,
    OPCODES["SGT"]: SETCC_GT, OPCODES["SGTI"]: SETCC_GT,
    OPCODES["SLE"]: SETCC_LE, OPCODES["SLEI"]: SETCC_LE,
    OPCODES["SGE"]: SETCC_GE, OPCODES["SGEI"]: SETCC_GE,
}


def setcc_sel_for(op: int) -> int:
    return _SETCC_TABLE.get(op, SETCC_EQ)


#: Load extension select (datapath load_mux input index).
LOADEXT_LB, LOADEXT_LBU, LOADEXT_LH, LOADEXT_LHU, LOADEXT_LW = range(5)
_LOADEXT_TABLE = {
    OPCODES["LB"]: LOADEXT_LB, OPCODES["LBU"]: LOADEXT_LBU,
    OPCODES["LH"]: LOADEXT_LH, OPCODES["LHU"]: LOADEXT_LHU,
    OPCODES["LW"]: LOADEXT_LW,
}


def loadext_for(op: int) -> int:
    return _LOADEXT_TABLE.get(op, LOADEXT_LW)


#: Memory access size in bytes (1, 2, 4) encoded as 0, 1, 2.
SIZE_BYTE, SIZE_HALF, SIZE_WORD = 0, 1, 2
_SIZE_TABLE = {
    OPCODES["LB"]: SIZE_BYTE, OPCODES["LBU"]: SIZE_BYTE,
    OPCODES["SB"]: SIZE_BYTE,
    OPCODES["LH"]: SIZE_HALF, OPCODES["LHU"]: SIZE_HALF,
    OPCODES["SH"]: SIZE_HALF,
    OPCODES["LW"]: SIZE_WORD, OPCODES["SW"]: SIZE_WORD,
}


def size_for(op: int) -> int:
    return _SIZE_TABLE.get(op, SIZE_WORD)


#: Destination select: 0 = rt (I-type), 1 = rd (R-type), 2 = r31 (JAL).
def regdst_for(op: int) -> int:
    if op in RTYPE:
        return 1
    if op == OPCODES["JAL"]:
        return 2
    return 0


@dataclass(frozen=True)
class Instruction:
    """One DLX instruction (behavioural sequencing; see module docstring)."""

    op: str
    rs: int = 0
    rt: int = 0
    rd: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise ValueError(f"unknown mnemonic {self.op!r}")
        for reg in (self.rs, self.rt, self.rd):
            if not 0 <= reg < N_REGS:
                raise ValueError(f"register {reg} out of range")
        if not 0 <= self.imm < (1 << IMM_WIDTH):
            raise ValueError(f"immediate {self.imm} out of range (unsigned)")

    @property
    def opcode(self) -> int:
        return OPCODES[self.op]

    @property
    def dest(self) -> int:
        sel = regdst_for(self.opcode)
        return (self.rt, self.rd, 31)[sel]

    def __str__(self) -> str:
        op = self.opcode
        if op in BRANCHES:
            return f"{self.op} r{self.rs}"
        if op == OPCODES["JR"]:
            return f"JR r{self.rs}"
        if op in (OPCODES["J"],):
            return "J"
        if op == OPCODES["JAL"]:
            return f"JAL #{self.imm}"
        if op in STORES:
            return f"{self.op} {self.imm}(r{self.rs}), r{self.rt}"
        if op in LOADS:
            return f"{self.op} r{self.rt}, {self.imm}(r{self.rs})"
        if op in IMM_OPS:
            return f"{self.op} r{self.rt}, r{self.rs}, #{self.imm}"
        return f"{self.op} r{self.rd}, r{self.rs}, r{self.rt}"


NOP = Instruction("ADDI", rs=0, rt=0, imm=0)  # the canonical DLX no-op


def to_cpi(instruction: Instruction) -> dict[str, int]:
    """Controller primary inputs encoding one instruction."""
    return {
        "op": instruction.opcode,
        "rs": instruction.rs,
        "rt": instruction.rt,
        "rd": instruction.rd,
    }
