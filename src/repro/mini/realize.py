"""Realize a TG test case as a MiniPipe instruction program.

TG produces stimulus at the model boundary: per-cycle CPI fields (opcode and
register specifiers), per-cycle DPI values (raw register-file read data and
immediates), and the set of CPI fields the search actually decided.  A
*program* must reproduce that stimulus through the architecture, which has
pipeline timing:

* the raw RF read of instruction t sees writes from instructions <= t-2
  (write-through register file, committed in write-back);
* a write by instruction t-1 reaches instruction t through the bypass, so
  when the previous instruction writes the register being read, the raw read
  value is a don't-care (the pipeline discards it).

Register specifiers not in ``TestCase.decided_cpi`` are free: the realizer
allocates them so that every *used* raw read delivers the value relaxation
chose, binding initial register contents along the way.  When no consistent
allocation exists, realization raises and the error is counted as aborted —
the kind of incompleteness behind the paper's 85% detection rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tg import RealizationError, TestCase
from repro.mini.isa import (
    IMM_OPS,
    MNEMONICS,
    N_REGS,
    WIDTH,
    Instruction,
)
from repro.utils.bits import to_unsigned


@dataclass
class RealizedTest:
    """An instruction program plus initial register contents."""

    program: list[Instruction]
    init_regs: list[int]


@dataclass
class _RegFile:
    """Symbolic register file with pipeline-accurate read timing."""

    writes: dict[int, list[tuple[int, int]]] = field(
        default_factory=lambda: {r: [] for r in range(N_REGS)}
    )
    init: dict[int, int] = field(default_factory=dict)

    def _latest_write(self, reg: int, before: int) -> int | None:
        """Value of the last write to ``reg`` by an instruction < before."""
        candidates = [v for f, v in self.writes[reg] if f < before]
        return candidates[-1] if candidates else None

    def raw_value(self, reg: int, frame: int) -> int | None:
        """What the RF read port delivers to instruction ``frame``.

        None means 'unbound initial value' (still free to choose).
        """
        committed = self._latest_write(reg, frame - 1)  # writers <= frame-2
        if committed is not None:
            return committed
        return self.init.get(reg)

    def bypassed_by_previous(self, reg: int, frame: int) -> int | None:
        """Value instruction frame-1 wrote to ``reg``, if any."""
        for write_frame, value in self.writes[reg]:
            if write_frame == frame - 1:
                return value
        return None

    def seen_value(self, reg: int, frame: int, want_raw: int, where: str) -> int:
        """Bind the read and return the value the pipeline actually uses."""
        bypass = self.bypassed_by_previous(reg, frame)
        if bypass is not None:
            return bypass  # raw read is discarded; no constraint
        raw = self.raw_value(reg, frame)
        if raw is None:
            self.init[reg] = want_raw
            return want_raw
        if raw != want_raw:
            raise RealizationError(
                f"{where}: r{reg} reads {raw}, needs {want_raw}"
            )
        return raw

    def can_deliver(self, reg: int, frame: int, want: int) -> bool:
        if self.bypassed_by_previous(reg, frame) is not None:
            return self.bypassed_by_previous(reg, frame) == want
        raw = self.raw_value(reg, frame)
        return raw is None or raw == want

    def pick_read(self, frame: int, want: int, fixed: int | None,
                  where: str) -> tuple[int, int]:
        """Choose (and bind) a register delivering ``want``; returns
        (register, value actually seen by the pipeline)."""
        if fixed is not None:
            return fixed, self.seen_value(fixed, frame, want, where)
        # Prefer an exact match, then an unbound register.
        for reg in range(N_REGS):
            raw = self.raw_value(reg, frame)
            if raw == want and self.bypassed_by_previous(reg, frame) is None:
                return reg, self.seen_value(reg, frame, want, where)
        for reg in range(N_REGS):
            if self.can_deliver(reg, frame, want):
                return reg, self.seen_value(reg, frame, want, where)
        raise RealizationError(f"{where}: no register can deliver {want}")

    def pick_dest(self, frame: int, fixed: int | None, value: int) -> int:
        if fixed is not None:
            self.writes[fixed].append((frame, value))
            return fixed
        # Sacrifice a register with no bound initial value if possible.
        for reg in range(N_REGS - 1, -1, -1):
            if reg not in self.init and not self.writes[reg]:
                self.writes[reg].append((frame, value))
                return reg
        reg = N_REGS - 1
        self.writes[reg].append((frame, value))
        return reg

    def init_values(self) -> list[int]:
        return [self.init.get(reg, 0) for reg in range(N_REGS)]


def realize(test: TestCase) -> RealizedTest:
    """Turn a TG test case into a program + initial register file."""
    regs = _RegFile()
    program: list[Instruction] = []
    skip = False
    for frame in range(test.n_frames):
        cpi = test.cpi_frames[frame]
        dpi = test.dpi_frames[frame]
        op = cpi.get("op", 0)
        mnemonic = MNEMONICS[op]
        imm = to_unsigned(dpi.get("imm", 0), WIDTH)
        where = f"frame {frame}"

        if skip or op == 0:
            # Squashed instructions and NOPs have don't-care operands; keep
            # the fields TG chose so the CPI stream is reproduced exactly.
            program.append(
                Instruction(
                    mnemonic,
                    rs1=cpi.get("rs1", 0),
                    rs2=cpi.get("rs2", 0),
                    rd=cpi.get("rd", 0),
                    imm=imm,
                )
            )
            skip = False
            continue

        def fixed(field_name: str) -> int | None:
            if (frame, field_name) in test.decided_cpi:
                return cpi.get(field_name)
            return None

        want_a = to_unsigned(dpi.get("rf_a", 0), WIDTH)
        rs1, seen_a = regs.pick_read(frame, want_a, fixed("rs1"), where)
        if op in IMM_OPS:
            rs2 = cpi.get("rs2", 0)
            operand = imm
        else:
            want_b = to_unsigned(dpi.get("rf_b", 0), WIDTH)
            rs2, operand = regs.pick_read(frame, want_b, fixed("rs2"), where)

        if op == 6:  # BEQ: the pipeline compares the bypassed values
            program.append(Instruction("BEQ", rs1=rs1, rs2=rs2, imm=imm))
            if seen_a == operand:
                skip = True
            continue

        if op in (1, 5):
            value = to_unsigned(seen_a + operand, WIDTH)
        elif op in (2, 7):
            value = to_unsigned(seen_a - operand, WIDTH)
        elif op == 3:
            value = seen_a & operand
        else:
            value = seen_a ^ operand
        rd = regs.pick_dest(frame, fixed("rd"), value)
        program.append(
            Instruction(mnemonic, rs1=rs1, rs2=rs2, rd=rd, imm=imm)
        )
    return RealizedTest(program=program, init_regs=regs.init_values())
