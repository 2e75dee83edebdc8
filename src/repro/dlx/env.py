"""Environment shim: run DLX programs on the pipelined implementation.

The implementation models register-file and data-memory reads as data
primary inputs and writes as gated observable outputs (see
``repro.dlx.datapath``).  ``DlxEnv`` closes the loop, playing the part of
the register file, the data memory and the fetch unit:

* each cycle it first *previews* the pipeline (state-only evaluation) to
  commit the write-back and store of the instructions in WB/MEM and to read
  the ``stall`` tertiary signal (a real fetch unit holds the PC on stall);
* it then supplies the cycle's stimulus: the next instruction's fields
  (replayed while stalled), the register read data for the instruction in
  ID, and the memory word addressed by the instruction in MEM.

The extracted event trace has exactly the specification's format, so
``detects`` compares implementation and specification directly — the
paper's simulation-based detection criterion.  Given the specification's
events, a run stops at the first committed event that differs from them:
the verdict is already known there.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.dlx.isa import NOP, N_REGS, WIDTH, Instruction, to_cpi
from repro.dlx.spec import DlxSpec, DlxSpecResult, Event, Memory, _SIZE_BYTES
from repro.model.processor import Processor
from repro.utils.bits import mask, to_unsigned
from repro.verify.cosim import ProcessorSimulator, Trace


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

    # ------------------------------------------------------------------
    def _preview(self):
        """State-only resolution of the current cycle (no external data:
        ``resolve`` leaves every unsupplied external input X)."""
        return self.sim.resolve({}, {})

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
        regs = list(init_regs) if init_regs is not None else [0] * N_REGS
        regs = [to_unsigned(r, WIDTH) for r in regs]
        regs[0] = 0
        memory = Memory()
        if init_memory:
            for addr, word in init_memory.items():
                memory.words[addr & ~0x3 & mask(WIDTH)] = to_unsigned(
                    word, WIDTH
                )
        events: list[Event] = []
        self.trace = Trace()
        # Predicted-taken branches skip two slots each, eating into the
        # drain; pad accordingly so in-flight instructions always retire.
        n_branches = sum(1 for i in program if i.op in ("BEQZ", "BNEZ"))
        stream = list(program) + [NOP] * (drain + 2 * n_branches)
        limit = max_cycles or (len(stream) + 3 * len(stream) + 16)

        position = 0
        imm_in_id = 0
        cycles = 0
        # Shadow pipeline of stream positions (branch prediction only):
        # which stream slot is in ID / EX, so a redirect_back misprediction
        # can rewind the fetch position to just after the branch.
        id_pos: int | None = None
        ex_pos: int | None = None

        def commit(event: Event) -> bool:
            """Record ``event``; True when it departs from the spec."""
            events.append(event)
            k = len(events) - 1
            return spec_events is not None and (
                k >= len(spec_events) or spec_events[k] != event
            )

        while position < len(stream) and cycles < limit:
            cycles += 1
            ctl, dp = self._preview()

            # Commit the write-back of the instruction in WB.  All
            # observable values are taken from the gated output pins, so an
            # error on a pin net corrupts real traffic.
            if ctl.get("regwrite_g_ctl") == 1:
                dest = ctl["dest_wb"]
                value = dp["wb_value_o"]
                if dest != 0 and value is not None:
                    regs[dest] = value
                    if commit(("reg", dest, value)):
                        break

            # Memory-pin activity of the instruction in MEM.
            if (
                ctl.get("mem_access_ctl") == 1
                and ctl.get("memwrite_ctl") != 1
            ):
                address = dp.get("dmem_addr_o")
                if address is not None:
                    if commit(("load", address, ctl["size_mem"])):
                        break

            # Commit the store of the instruction in MEM.
            if ctl.get("memwrite_ctl") == 1:
                address = dp["dmem_addr_o"]
                data = dp["dmem_wdata_o"]
                size = ctl["size_mem"]
                if address is not None and data is not None:
                    memory.write(address, data, size)
                    nbytes = _SIZE_BYTES[size]
                    if commit(
                        ("mem", address, size, data & mask(8 * nbytes))
                    ):
                        break

            stalled = ctl.get("stall") == 1
            instruction = stream[position]

            # Stimulus for the instruction currently in ID.
            rs_id = ctl["rs_id"]
            rt_id = ctl["rt_id"]
            dpi = {
                "rf_a": regs[rs_id],
                "rf_b": regs[rt_id],
                "imm16": imm_in_id,
            }
            # Memory read data for the instruction in MEM (the memory
            # sees the address pins).
            mem_address = dp.get("dmem_addr_o")
            if ctl.get("mem_access_ctl") != 1:
                mem_address = dp.get("mem_alu.y")
            if mem_address is not None:
                dpi["dmem_rdata"] = memory.read_word(mem_address)

            self.trace.cycles.append(self.sim.step(to_cpi(instruction), dpi))

            if self.branch_prediction:
                presented_pos = position
                # Clock the shadow pipeline with the controller's own
                # gating decisions.
                if ctl.get("id_ex_clear") == 1:
                    new_ex_pos = None
                else:
                    new_ex_pos = id_pos
                if ctl.get("if_id_clear") == 1:
                    id_pos = None
                elif not stalled:
                    id_pos = presented_pos
                ex_at_resolution = ex_pos
                ex_pos = new_ex_pos
                # Fetch-unit position update.
                if ctl.get("redirect_back") == 1 and ex_at_resolution is not None:
                    # Predicted taken, actually not taken: resume with the
                    # slot right behind the branch.
                    position = ex_at_resolution + 1
                elif not stalled:
                    imm_in_id = instruction.imm
                    predicted_taken = (
                        ctl.get("pred") == 1
                        and instruction.op in ("BEQZ", "BNEZ")
                    )
                    # A predicted-taken branch skips its two shadow slots.
                    position += 3 if predicted_taken else 1
            else:
                if not stalled:
                    imm_in_id = instruction.imm
                    position += 1

        return DlxSpecResult(events=events, registers=regs, memory=memory)


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
