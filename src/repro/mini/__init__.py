"""MiniPipe: a small 3-stage pipelined processor (second test vehicle)."""

from repro.mini.isa import (
    ALU_OP,
    IMM_OPS,
    MNEMONICS,
    N_REGS,
    NOP,
    OPCODES,
    WIDTH,
    WRITING_OPS,
    Instruction,
    to_cpi,
)
from repro.mini.machine import (
    build_minipipe,
    build_minipipe_controller,
    build_minipipe_datapath,
)
from repro.mini.spec import MiniEnv, MiniSpec, SpecResult, detects

__all__ = [
    "ALU_OP",
    "IMM_OPS",
    "Instruction",
    "MNEMONICS",
    "MiniEnv",
    "MiniSpec",
    "N_REGS",
    "NOP",
    "OPCODES",
    "SpecResult",
    "WIDTH",
    "WRITING_OPS",
    "build_minipipe",
    "build_minipipe_controller",
    "build_minipipe_datapath",
    "detects",
    "to_cpi",
]
