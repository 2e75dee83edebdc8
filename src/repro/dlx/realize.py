"""Realize a TG test case as a DLX program + initial register/memory state.

TG's stimulus is cycle-indexed: CPI fields per cycle (the instruction
presented to IF), DPI values per cycle (raw register-file reads for the
instruction in ID, the memory word for the instruction in MEM, the
immediate).  A program reproduces that stimulus through the architecture
only if

* stalled cycles re-present the same instruction (the fetch unit holds);
* every raw register read that the pipeline *uses* (not covered by a
  bypass, belonging to an instruction with an architectural effect) sees
  the value relaxation chose — bound through initial register contents and
  the committed write timeline;
* every memory word a load reads matches the store timeline plus bindable
  initial memory.

The realizer replays the fault-free co-simulation of the stimulus to learn
the control trace (stalls, squashes, forwarding, commits), then solves the
binding constraints.  Conflicts raise :class:`RealizationError`; in the
campaign those count as aborted errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tg import RealizationError, TestCase
from repro.dlx.isa import IMM_WIDTH, MNEMONICS, N_REGS, WIDTH, Instruction
from repro.model.processor import Processor
from repro.utils.bits import mask, to_unsigned
from repro.verify.cosim import CosimError, ProcessorSimulator

_SIZE_BYTES = {0: 1, 1: 2, 2: 4}


@dataclass
class RealizedDlxTest:
    """A DLX program plus the initial architectural state it needs."""

    program: list[Instruction]
    init_regs: list[int]
    init_memory: dict[int, int] = field(default_factory=dict)


class _RegBinder:
    """Initial-register binding against the committed write timeline."""

    def __init__(self, commits: dict[int, list[tuple[int, int]]]) -> None:
        self.commits = commits  # reg -> [(cycle, value)] sorted
        self.init: dict[int, int] = {0: 0}

    def committed_value(self, reg: int, cycle: int) -> int | None:
        value = None
        for commit_cycle, commit_value in self.commits.get(reg, []):
            if commit_cycle <= cycle:
                value = commit_value
        return value

    def can_bind(self, reg: int, cycle: int, want: int) -> bool:
        committed = self.committed_value(reg, cycle)
        if committed is not None:
            return committed == want
        bound = self.init.get(reg)
        return bound is None or bound == want

    def bind(self, reg: int, cycle: int, want: int, where: str) -> None:
        committed = self.committed_value(reg, cycle)
        if committed is not None:
            if committed != want:
                raise RealizationError(
                    f"{where}: r{reg} reads committed {committed:#x}, "
                    f"needs {want:#x}"
                )
            return
        bound = self.init.get(reg)
        if bound is None:
            self.init[reg] = want
        elif bound != want:
            raise RealizationError(
                f"{where}: r{reg} initial value pinned to {bound:#x}, "
                f"needs {want:#x}"
            )


class _MemBinder:
    """Initial-memory binding (per byte) against the store timeline."""

    def __init__(self, stores: list[tuple[int, int, int, int]]) -> None:
        # stores: (cycle, address, size, data)
        self.stores = stores
        self.init_bytes: dict[int, int] = {}

    def _byte_at(self, address: int, cycle: int) -> int | None:
        """Committed byte from stores up to ``cycle``; None if untouched."""
        value = None
        for store_cycle, store_addr, size, data in self.stores:
            if store_cycle > cycle:
                continue
            nbytes = _SIZE_BYTES[size]
            lane = store_addr & 0x3
            base = store_addr & ~0x3
            offset = address - (base + lane)
            if base == (address & ~0x3) and 0 <= offset < nbytes:
                # Bytes shifted past the word boundary are dropped.
                if lane + offset < 4:
                    value = (data >> (8 * offset)) & 0xFF
        return value

    def bind_word(self, address: int, cycle: int, want: int, where: str) -> None:
        aligned = address & ~0x3 & mask(WIDTH)
        for offset in range(4):
            byte_addr = aligned + offset
            want_byte = (want >> (8 * offset)) & 0xFF
            committed = self._byte_at(byte_addr, cycle)
            if committed is not None:
                if committed != want_byte:
                    raise RealizationError(
                        f"{where}: mem[{byte_addr:#x}] holds "
                        f"{committed:#x}, needs {want_byte:#x}"
                    )
                continue
            bound = self.init_bytes.get(byte_addr)
            if bound is None:
                self.init_bytes[byte_addr] = want_byte
            elif bound != want_byte:
                raise RealizationError(
                    f"{where}: mem[{byte_addr:#x}] initial byte pinned to "
                    f"{bound:#x}, needs {want_byte:#x}"
                )

    def init_words(self) -> dict[int, int]:
        words: dict[int, int] = {}
        for byte_addr, value in self.init_bytes.items():
            aligned = byte_addr & ~0x3
            lane = byte_addr & 0x3
            words[aligned] = words.get(aligned, 0) | (value << (8 * lane))
        return words


def realize(processor: Processor, test: TestCase) -> RealizedDlxTest:
    """Turn a TG test case into a DLX program + initial state."""
    sim = ProcessorSimulator(processor)
    try:
        trace = sim.run(test.cpi_frames, test.dpi_frames)
    except CosimError as exc:  # pragma: no cover - defensive
        raise RealizationError(f"stimulus does not co-simulate: {exc}")
    ctl = [c.controller for c in trace.cycles]
    dp = [c.datapath for c in trace.cycles]
    n = test.n_frames

    # On the branch-predicted machine a trained predictor changes the
    # fetch-position mapping (predicted-taken branches skip slots); the
    # realizer models the predict-not-taken fetch, so it only accepts
    # traces where the predictor never trains taken.
    if "predict_taken" in processor.controller.network.signals and any(
        c.get("pred") == 1 for c in ctl
    ):
        raise RealizationError(
            "trained branch predictor: fetch-skip realization unsupported"
        )

    # ------------------------------------------------------------------
    # 1. Stream construction: stalled cycles replay the same instruction.
    # ------------------------------------------------------------------
    stream_fields: list[dict[str, int]] = []
    slot_decided: list[set[str]] = []  # fields the search decided, per slot
    for t in range(n):
        decided_here = {
            fld for fld in ("op", "rs", "rt", "rd")
            if (t, fld) in test.decided_cpi
        }
        if t > 0 and ctl[t - 1].get("stall") == 1:
            # Replayed slot: the fields TG decided here must match what the
            # fetch unit will actually re-present.
            held = stream_fields[-1]
            for fld in decided_here:
                if held[fld] != test.cpi_frames[t].get(fld, held[fld]):
                    raise RealizationError(
                        f"cycle {t}: stalled fetch cannot change field "
                        f"{fld!r}"
                    )
            slot_decided[-1] |= decided_here
            continue
        stream_fields.append(dict(test.cpi_frames[t]))
        slot_decided.append(decided_here)

    # Which slot is in ID at each cycle (None = bubble/squash NOP), and
    # registers that are safe to re-allocate for undecided specifiers:
    # changing an rs/rt to one of these never flips a forwarding or stall
    # comparison, because no in-flight instruction targets them.
    id_slot: list[int | None] = [None] * n
    current: int | None = None
    pos = 0
    for t in range(n):
        id_slot[t] = current
        presented = pos if pos < len(stream_fields) else None
        if ctl[t].get("if_id_clear") == 1:
            current = None
        elif ctl[t].get("stall") != 1:
            current = presented
        if ctl[t].get("stall") != 1 and presented is not None:
            pos += 1
    forbidden = {0}
    for t in range(n):
        if ctl[t].get("regwrite_ex") == 1:
            forbidden.add(ctl[t].get("dest_ex", 0))
    for t in range(n):
        for fld in ("rs", "rt", "rd"):
            if (t, fld) in test.decided_cpi:
                forbidden.add(test.cpi_frames[t].get(fld, 0))
    free_pool = [r for r in range(1, N_REGS) if r not in forbidden]

    # ------------------------------------------------------------------
    # 2. Commit timelines from the fault-free trace.
    # ------------------------------------------------------------------
    reg_commits: dict[int, list[tuple[int, int]]] = {}
    stores: list[tuple[int, int, int, int]] = []
    for t in range(n):
        if ctl[t].get("regwrite_g_ctl") == 1:
            dest = ctl[t]["dest_wb"]
            value = dp[t].get("wb_value_o")
            if dest != 0 and value is not None:
                reg_commits.setdefault(dest, []).append((t, value))
        if ctl[t].get("memwrite_ctl") == 1:
            address = dp[t].get("dmem_addr_o")
            data = dp[t].get("dmem_wdata_o")
            if address is not None and data is not None:
                stores.append((t, address, ctl[t]["size_mem"], data))

    regs = _RegBinder(reg_commits)
    memory = _MemBinder(stores)

    # ------------------------------------------------------------------
    # 3. Read-binding constraints per cycle.
    # ------------------------------------------------------------------
    def bind_read(slot: int | None, field_name: str, trace_reg: int,
                  cycle: int, want: int, where: str) -> None:
        """Bind a raw register read, re-allocating a free register when the
        specifier was not decided by the search."""
        if slot is not None and field_name not in slot_decided[slot]:
            if not regs.can_bind(trace_reg, cycle, want):
                for candidate in free_pool:
                    if regs.can_bind(candidate, cycle, want):
                        stream_fields[slot][field_name] = candidate
                        regs.bind(candidate, cycle, want, where)
                        return
                raise RealizationError(
                    f"{where}: no register can deliver {want:#x}"
                )
            # The default register works; keep it (but record the binding).
            regs.bind(trace_reg, cycle, want, where)
            return
        regs.bind(trace_reg, cycle, want, where)

    for t in range(n):
        # The instruction leaving ID at cycle t (held instructions bind at
        # their leave cycle; bubbled/squashed ones have no effect flags).
        if ctl[t].get("stall") == 1:
            continue
        writes_visibly = (
            t + 1 < n
            and ctl[t + 1].get("regwrite_ex") == 1
            and ctl[t + 1].get("dest_ex") != 0
        )
        has_effect_next = t + 1 < n and (
            writes_visibly
            or any(
                ctl[t + 1].get(flag) == 1
                for flag in (
                    "memread_ex", "memwrite_ex", "is_beqz_ex", "is_bnez_ex",
                )
            )
        )
        if not has_effect_next:
            continue
        where = f"cycle {t}"
        slot = id_slot[t]
        if ctl[t].get("uses_rs_id") == 1 and ctl[t + 1].get("fwd_a") == 0:
            bind_read(slot, "rs", ctl[t]["rs_id"], t,
                      test.dpi_frames[t].get("rf_a", 0), where)
        if ctl[t].get("uses_rt_id") == 1 and ctl[t + 1].get("fwd_b") == 0:
            bind_read(slot, "rt", ctl[t]["rt_id"], t,
                      test.dpi_frames[t].get("rf_b", 0), where)
        # Loads: the word supplied two cycles later must be in memory —
        # but only when the loaded value is architecturally used (a load
        # into r0 reads a don't-care word).
        if (
            ctl[t + 1].get("memread_ex") == 1
            and ctl[t + 1].get("dest_ex") != 0
            and t + 2 < n
        ):
            address = dp[t + 2].get("dmem_addr_o")
            if address is not None:
                memory.bind_word(
                    address, t + 2,
                    test.dpi_frames[t + 2].get("dmem_rdata", 0),
                    f"cycle {t + 2}",
                )

    # ------------------------------------------------------------------
    # 4. Assemble instructions (immediate taken at the ID leave cycle).
    # ------------------------------------------------------------------
    program: list[Instruction] = []
    # First-presentation cycle of each stream slot (same dedup rule as the
    # stream construction above).
    presented_cycles: list[int] = []
    pos = 0
    for t in range(n):
        if pos < len(stream_fields) and (
            t == 0 or ctl[t - 1].get("stall") != 1
        ):
            presented_cycles.append(t)
            pos += 1
    for i, fields in enumerate(stream_fields):
        # The slot is re-presented while stalled; it is latched into ID at
        # the end of its last presentation q, sits in ID from q+1, and
        # leaves at the first non-stall cycle — where its immediate is
        # latched into EX.
        q = presented_cycles[i]
        while q < n and ctl[q].get("stall") == 1:
            q += 1
        leave = q + 1
        while leave < n and ctl[leave].get("stall") == 1:
            leave += 1
        imm_cycle = min(leave, n - 1)
        imm = to_unsigned(
            test.dpi_frames[imm_cycle].get("imm16", 0), IMM_WIDTH
        )
        program.append(
            Instruction(
                MNEMONICS[fields.get("op", 0)],
                rs=fields.get("rs", 0),
                rt=fields.get("rt", 0),
                rd=fields.get("rd", 0),
                imm=imm,
            )
        )

    init_regs = [regs.init.get(r, 0) for r in range(N_REGS)]
    return RealizedDlxTest(
        program=program,
        init_regs=init_regs,
        init_memory=memory.init_words(),
    )
