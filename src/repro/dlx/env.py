"""Environment: run DLX programs on the pipelined implementation.

The implementation models register-file and data-memory reads as data
primary inputs and writes as gated observable outputs (see
``repro.dlx.datapath``).  A :class:`DlxTestbench` closes the loop for one
program, playing the part of the register file, the data memory and the
fetch unit:

* each cycle it reads a *preview* of the pipeline (state-only resolution)
  to commit the write-back and store of the instructions in WB/MEM and to
  read the ``stall`` tertiary signal (a real fetch unit holds the PC on
  stall);
* it then supplies the cycle's stimulus: the next instruction's fields
  (replayed while stalled), the register read data for the instruction in
  ID, and the memory word addressed by the instruction in MEM.

:class:`DlxEnv` steps one testbench on the scalar co-simulator
(:func:`repro.verify.cosim.run_testbench`); ``repro.dlx.lanes`` steps one
per lane.  The extracted event trace has exactly the specification's
format, so ``detects`` compares implementation and specification
directly — the paper's simulation-based detection criterion.  Given the
specification's events, a run stops at the first committed event that
differs from them: the verdict is already known there.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.dlx.isa import NOP, N_REGS, WIDTH, Instruction, to_cpi
from repro.dlx.spec import DlxSpec, DlxSpecResult, Event, Memory, _SIZE_BYTES
from repro.model.processor import Processor
from repro.utils.bits import mask, to_unsigned
from repro.verify.cosim import ProcessorSimulator, Trace, run_testbench


class DlxTestbench:
    """One DLX program's architectural state and committed events.

    Holds the registers, the memory image, the fetch position and, on a
    branch-prediction controller, the shadow pipe of stream positions;
    :func:`repro.verify.cosim.run_testbench` and
    :func:`repro.verify.lanes.run_lanes` step it.
    """

    #: Datapath nets :meth:`cycle` reads from the preview, in order.  All
    #: observable values come from the gated output pins, so an error on a
    #: pin net corrupts real traffic.
    PREVIEW_NETS = ("wb_value_o", "dmem_addr_o", "dmem_wdata_o", "mem_alu.y")
    #: The DLX previews with the full ``resolve({}, {})`` fixpoint: branch
    #: resolution (``zero``) and the memory stage (``addrlo``) read status
    #: nets, which only the controller/datapath fixpoint resolves.
    SHALLOW_PREVIEW = False
    #: What a stopped lane steps on.
    QUIET_STIMULUS = (
        to_cpi(NOP), {"rf_a": 0, "rf_b": 0, "imm16": 0, "dmem_rdata": 0},
    )

    def __init__(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        init_memory: dict[int, int] | None = None,
        drain: int = 8,
        max_cycles: int | None = None,
        branch_prediction: bool = False,
        spec_events: Sequence[Event] | None = None,
    ) -> None:
        regs = list(init_regs) if init_regs is not None else [0] * N_REGS
        self.regs = [to_unsigned(r, WIDTH) for r in regs]
        self.regs[0] = 0
        self.memory = Memory()
        if init_memory:
            for addr, word in init_memory.items():
                self.memory.words[addr & ~0x3 & mask(WIDTH)] = to_unsigned(
                    word, WIDTH
                )
        self.events: list[Event] = []
        self.spec_events = spec_events
        self.branch_prediction = branch_prediction
        # Predicted-taken branches skip two slots each, eating into the
        # drain; pad accordingly so in-flight instructions always retire.
        n_branches = sum(1 for i in program if i.op in ("BEQZ", "BNEZ"))
        self.stream = list(program) + [NOP] * (drain + 2 * n_branches)
        self.limit = max_cycles or (len(self.stream) * 4 + 16)
        self.position = 0
        self.imm_in_id = 0
        self.cycles = 0
        # Shadow pipeline of stream positions (branch prediction only):
        # which stream slot is in ID / EX, so a redirect_back misprediction
        # can rewind the fetch position to just after the branch.
        self.id_pos: int | None = None
        self.ex_pos: int | None = None
        self._stalled = False
        self._instruction = NOP

    @property
    def running(self) -> bool:
        return self.position < len(self.stream) and self.cycles < self.limit

    def _commit(self, event: Event) -> bool:
        """Record ``event``; True when it departs from the spec."""
        self.events.append(event)
        k = len(self.events) - 1
        spec = self.spec_events
        return spec is not None and (k >= len(spec) or spec[k] != event)

    def cycle(self, ctl, wb_value, dmem_addr, dmem_wdata, alu_y):
        """Commit what the previewed cycle retires; return its
        ``(cpi, dpi)``, or None right after a departing commit."""
        self.cycles += 1
        regs = self.regs

        # Commit the write-back of the instruction in WB.
        if ctl.get("regwrite_g_ctl") == 1:
            dest = ctl["dest_wb"]
            if dest != 0 and wb_value is not None:
                regs[dest] = wb_value
                if self._commit(("reg", dest, wb_value)):
                    return None

        # Memory-pin activity of the instruction in MEM.
        if ctl.get("mem_access_ctl") == 1 and ctl.get("memwrite_ctl") != 1:
            if dmem_addr is not None:
                if self._commit(("load", dmem_addr, ctl["size_mem"])):
                    return None

        # Commit the store of the instruction in MEM.
        if ctl.get("memwrite_ctl") == 1:
            size = ctl["size_mem"]
            if dmem_addr is not None and dmem_wdata is not None:
                self.memory.write(dmem_addr, dmem_wdata, size)
                data = dmem_wdata & mask(8 * _SIZE_BYTES[size])
                if self._commit(("mem", dmem_addr, size, data)):
                    return None

        self._stalled = ctl.get("stall") == 1
        self._instruction = instruction = self.stream[self.position]

        # Stimulus for the instruction currently in ID.
        dpi = {
            "rf_a": regs[ctl["rs_id"]],
            "rf_b": regs[ctl["rt_id"]],
            "imm16": self.imm_in_id,
        }
        # Memory read data for the instruction in MEM (the memory sees
        # the address pins).
        mem_address = dmem_addr if ctl.get("mem_access_ctl") == 1 else alu_y
        if mem_address is not None:
            dpi["dmem_rdata"] = self.memory.read_word(mem_address)
        return to_cpi(instruction), dpi

    def advance(self, ctl) -> None:
        """Move the fetch unit after the clock edge."""
        stalled, instruction = self._stalled, self._instruction
        if not self.branch_prediction:
            if not stalled:
                self.imm_in_id = instruction.imm
                self.position += 1
            return
        presented_pos = self.position
        # Clock the shadow pipeline with the controller's own gating
        # decisions.
        if ctl.get("id_ex_clear") == 1:
            new_ex_pos = None
        else:
            new_ex_pos = self.id_pos
        if ctl.get("if_id_clear") == 1:
            self.id_pos = None
        elif not stalled:
            self.id_pos = presented_pos
        ex_at_resolution = self.ex_pos
        self.ex_pos = new_ex_pos
        # Fetch-unit position update.
        if ctl.get("redirect_back") == 1 and ex_at_resolution is not None:
            # Predicted taken, actually not taken: resume with the slot
            # right behind the branch.
            self.position = ex_at_resolution + 1
        elif not stalled:
            self.imm_in_id = instruction.imm
            predicted_taken = (
                ctl.get("pred") == 1 and instruction.op in ("BEQZ", "BNEZ")
            )
            # A predicted-taken branch skips its two shadow slots.
            self.position += 3 if predicted_taken else 1

    def result(self) -> DlxSpecResult:
        return DlxSpecResult(
            events=self.events, registers=self.regs, memory=self.memory
        )


class DlxEnv:
    """Drives the DLX implementation with a program."""

    def __init__(
        self,
        processor: Processor,
        injector: Injector = no_injection,
        module_overrides: Mapping[str, ModuleOverride] | None = None,
        compiled: bool = True,
    ) -> None:
        self.processor = processor
        self.sim = ProcessorSimulator(
            processor, injector=injector, module_overrides=module_overrides,
            compiled=compiled,
        )
        #: Branch-prediction controllers expose 'predict_taken'; the fetch
        #: unit then skips ahead on predicted-taken branches and rewinds on
        #: a redirect_back misprediction.
        self.branch_prediction = (
            "predict_taken" in processor.controller.network.signals
        )
        #: Cycle-accurate co-simulation trace of the most recent ``run``
        #: (consumed by the coverage collector in ``repro.fuzz``).
        self.trace = Trace()

    def run(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        init_memory: dict[int, int] | None = None,
        drain: int = 8,
        max_cycles: int | None = None,
        spec_events: Sequence[Event] | None = None,
    ) -> DlxSpecResult:
        """Run ``program``; returns the committed events and final state.

        With ``spec_events`` (the specification's event list) the run
        stops right after the first committed event that differs from the
        specification's event at that index, or that the specification
        lacks.  The returned events then end with that event, and the
        registers, memory and ``trace`` hold the state at the stop.
        """
        self.trace = Trace()
        bench = DlxTestbench(
            program, init_regs, init_memory, drain, max_cycles,
            branch_prediction=self.branch_prediction, spec_events=spec_events,
        )
        return run_testbench(self.sim, bench, self.trace)


def detects(
    processor: Processor,
    program: Sequence[Instruction],
    error,
    init_regs: Sequence[int] | None = None,
    init_memory: dict[int, int] | None = None,
) -> bool:
    """True iff the program distinguishes the erroneous implementation from
    the ISA specification — the Table 1 detection criterion.

    The bad machine runs only up to its first committed event that departs
    from the specification's events (``DlxEnv.run(spec_events=...)``).  A
    bad machine that diverges and would raise :class:`CosimError` later
    in the run therefore reports detected instead of raising.
    """
    spec = DlxSpec().run(program, init_regs, init_memory)
    return _diverges(
        processor, program, error, init_regs, init_memory, spec.events
    )


def _diverges(
    processor: Processor,
    program: Sequence[Instruction],
    error,
    init_regs: Sequence[int] | None,
    init_memory: dict[int, int] | None,
    spec_events: list[Event],
) -> bool:
    """Whether the bad machine's events depart from ``spec_events``; the
    run stops at the first event that does."""
    injector, module_overrides = error.hooks(processor.datapath)
    env = DlxEnv(
        processor, injector=injector, module_overrides=module_overrides,
    )
    impl = env.run(
        program, init_regs, init_memory, spec_events=spec_events
    )
    return impl.events != spec_events


def batch_detects(
    processor: Processor,
    program: Sequence[Instruction],
    errors: Sequence,
    init_regs: Sequence[int] | None = None,
    init_memory: dict[int, int] | None = None,
    stats: list | None = None,
    golden: tuple | None = None,
) -> list[bool]:
    """``[detects(processor, program, e, ...) for e in errors]`` via one
    golden run plus cone forks (:mod:`repro.datapath.faultsim`).

    The environment closes feedback loops the open-loop fork cannot model
    (``dmem_rdata`` echoes the same cycle's address pins), so the fork is
    used purely as a *negative screen*: a fork that never touches a net the
    environment reads — the DPO pins, the STS nets, or ``mem_alu.y`` —
    leaves every stimulus and every commit identical to the golden run and
    inherits the golden verdict.  Any touch is confirmed by a serial run of
    the bad machine against the one specification run of the program,
    stopped at its first divergent event (see :func:`detects`).

    ``golden`` optionally supplies a precomputed fault-free run as
    ``(result, trace, dense_cycles)`` — e.g. one lane of a batched
    :class:`repro.dlx.lanes.BatchDlxEnv` run.
    """
    from repro.datapath.faultsim import BatchFaultSimulator

    spec = DlxSpec().run(program, init_regs, init_memory)
    if golden is not None:
        golden_result, golden_trace, dense_cycles = golden
    else:
        env = DlxEnv(processor)
        golden_result = env.run(program, init_regs, init_memory)
        golden_trace, dense_cycles = env.trace, None
    golden_detects = golden_result.events != spec.events
    sim = BatchFaultSimulator(
        processor, golden_trace, observed_extra=("mem_alu.y",),
        dense_cycles=dense_cycles,
    )
    results = []
    for error in errors:
        fork = sim.fork(error)
        if fork.kind == "clean":
            results.append(golden_detects)
        else:
            results.append(_diverges(
                processor, program, error, init_regs, init_memory,
                spec.events,
            ))
    if stats is not None:
        stats.append(sim.stats)
    return results


def dlx_exposure_comparator(processor, good, bad):
    """Transaction-gated divergence check for TG's internal exposure test.

    Compares exactly what the ISA-level detection compares — register
    write-backs and memory-pin transactions — so a TG "detected" verdict
    survives realization.  Returns the first (cycle, tag) divergence.
    """

    def cycle_events(cycle):
        ctl, dp = cycle.controller, cycle.datapath
        events = []
        if ctl.get("regwrite_g_ctl") == 1 and ctl.get("dest_wb") != 0:
            events.append(("reg", ctl.get("dest_wb"), dp.get("wb_value_o")))
        if ctl.get("mem_access_ctl") == 1 and ctl.get("memwrite_ctl") != 1:
            events.append(
                ("load", dp.get("dmem_addr_o"), ctl.get("size_mem"))
            )
        if ctl.get("memwrite_ctl") == 1:
            size = ctl.get("size_mem")
            data = dp.get("dmem_wdata_o")
            if data is not None and size is not None:
                data &= mask(8 * _SIZE_BYTES[size])
            events.append(("mem", dp.get("dmem_addr_o"), size, data))
        return events

    for index, (g, b) in enumerate(zip(good.cycles, bad.cycles)):
        ge, be = cycle_events(g), cycle_events(b)
        if ge != be:
            return (index, "isa-events")
    return None
