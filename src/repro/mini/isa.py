"""The MiniPipe instruction set.

MiniPipe is a deliberately small 3-stage pipelined processor (operand fetch /
execute / write-back) used throughout the test suite and examples as a
second, fully-understood test vehicle next to the DLX.  It has four
architectural registers, an 8-bit datapath, one bypass path per operand,
and predict-not-taken branches resolved in execute (a taken branch squashes
the following instruction).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Mnemonic -> opcode encoding.
OPCODES = {
    "NOP": 0,
    "ADD": 1,  # rd <- r[rs1] + r[rs2]
    "SUB": 2,  # rd <- r[rs1] - r[rs2]
    "AND": 3,  # rd <- r[rs1] & r[rs2]
    "XOR": 4,  # rd <- r[rs1] ^ r[rs2]
    "ADDI": 5,  # rd <- r[rs1] + imm
    "BEQ": 6,  # if r[rs1] == r[rs2]: skip next instruction
    "SUBI": 7,  # rd <- r[rs1] - imm
}
MNEMONICS = {v: k for k, v in OPCODES.items()}

#: Opcodes that write a destination register.
WRITING_OPS = frozenset({1, 2, 3, 4, 5, 7})
#: Opcodes whose second ALU operand is the immediate.
IMM_OPS = frozenset({5, 7})
#: ALU operation select per opcode (0 add, 1 sub, 2 and, 3 xor).
ALU_OP = {0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 0, 6: 1, 7: 1}

N_REGS = 4
WIDTH = 8


@dataclass(frozen=True)
class Instruction:
    """One MiniPipe instruction."""

    op: str
    rs1: int = 0
    rs2: int = 0
    rd: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise ValueError(f"unknown mnemonic {self.op!r}")
        for reg in (self.rs1, self.rs2, self.rd):
            if not 0 <= reg < N_REGS:
                raise ValueError(f"register {reg} out of range")
        if not 0 <= self.imm < (1 << WIDTH):
            raise ValueError(f"immediate {self.imm} out of range")

    @property
    def opcode(self) -> int:
        return OPCODES[self.op]

    def __str__(self) -> str:
        if self.op == "NOP":
            return "NOP"
        if self.op == "BEQ":
            return f"BEQ r{self.rs1}, r{self.rs2}"
        if self.opcode in IMM_OPS:
            return f"{self.op} r{self.rd}, r{self.rs1}, #{self.imm}"
        return f"{self.op} r{self.rd}, r{self.rs1}, r{self.rs2}"


NOP = Instruction("NOP")


def to_cpi(instruction: Instruction) -> dict[str, int]:
    """Controller primary inputs encoding one instruction."""
    return {
        "op": instruction.opcode,
        "rs1": instruction.rs1,
        "rs2": instruction.rs2,
        "rd": instruction.rd,
    }
