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
from repro.verify import cosim
from repro.verify.cosim import ProcessorSimulator, Trace, commit, run_testbench


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
    #: Controller signals :meth:`cycle` and :meth:`advance` read from the
    #: preview; the last four exist only on a branch-prediction
    #: controller.
    CONTROL_READS = (
        "regwrite_g_ctl", "dest_wb", "mem_access_ctl", "memwrite_ctl",
        "size_mem", "stall", "rs_id", "rt_id",
        "id_ex_clear", "if_id_clear", "redirect_back", "pred",
    )
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

    def cycle(self, ctl, wb_value, dmem_addr, dmem_wdata, alu_y):
        """Commit what the previewed cycle retires; return its
        ``(cpi, dpi)``, or None right after a departing commit."""
        self.cycles += 1
        regs = self.regs
        for event in cycle_commits(ctl, wb_value, dmem_addr, dmem_wdata):
            if None in event:  # an unknown value commits nothing
                continue
            if event[0] == "reg":
                regs[event[1]] = event[2]
            elif event[0] == "mem":
                self.memory.write(event[1], event[3], event[2])
            if commit(self.events, self.spec_events, event):
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

    def save(self) -> tuple:
        """The testbench's state between two cycles, for :meth:`restore`.

        The fetch unit's stall flag and presented instruction live only
        within a cycle, from :meth:`cycle` to :meth:`advance`.
        """
        return (tuple(self.regs), dict(self.memory.words), tuple(self.events),
                self.position, self.imm_in_id, self.cycles, self.id_pos,
                self.ex_pos)

    def restore(self, state: tuple) -> None:
        """Take back a state :meth:`save` returned."""
        (regs, words, events, self.position, self.imm_in_id, self.cycles,
         self.id_pos, self.ex_pos) = state
        self.regs, self.events = list(regs), list(events)
        self.memory.words = dict(words)

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
            # A predicted-taken branch skips its two shadow slots, unless
            # it is squashed in the cycle it is fetched (a jump in ID
            # clears IF/ID): a squashed branch steers nothing.
            predicted_taken = (
                ctl.get("pred") == 1 and instruction.op in ("BEQZ", "BNEZ")
                and ctl.get("if_id_clear") != 1
            )
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
    ) -> None:
        self.processor = processor
        self.sim = ProcessorSimulator(
            processor, injector=injector, module_overrides=module_overrides,
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

    def testbench_for(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        init_memory: dict[int, int] | None = None,
        drain: int = 8,
        max_cycles: int | None = None,
        spec_events: Sequence[Event] | None = None,
    ) -> DlxTestbench:
        """The testbench :meth:`run` steps for these arguments."""
        return DlxTestbench(
            program, init_regs, init_memory, drain, max_cycles,
            branch_prediction=self.branch_prediction, spec_events=spec_events,
        )

    def run(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        init_memory: dict[int, int] | None = None,
        drain: int = 8,
        max_cycles: int | None = None,
        spec_events: Sequence[Event] | None = None,
        resume: cosim.Excursion | None = None,
    ) -> DlxSpecResult:
        """Run ``program``; returns the committed events and final state.

        With ``spec_events`` (the specification's event list) the run
        stops right after the first committed event that differs from the
        specification's event at that index, or that the specification
        lacks.  The returned events then end with that event, and the
        registers, memory and ``trace`` hold the state at the stop.

        With ``resume`` the run is an excursion: it steps the excursion's
        testbench of the same program from inside a golden run and stops
        where it rejoins it (see :func:`repro.verify.cosim.run_testbench`).
        """
        self.trace = Trace()
        bench = resume.bench if resume is not None else self.testbench_for(
            program, init_regs, init_memory, drain, max_cycles, spec_events,
        )
        return run_testbench(self.sim, bench, self.trace, resume)


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
    injector, module_overrides = error.hooks(processor.datapath)
    env = DlxEnv(
        processor, injector=injector, module_overrides=module_overrides,
    )
    impl = env.run(
        program, init_regs, init_memory, spec_events=spec.events
    )
    return impl.events != spec.events


def batch_detects(
    processor: Processor,
    program: Sequence[Instruction],
    errors: Sequence,
    init_regs: Sequence[int] | None = None,
    init_memory: dict[int, int] | None = None,
    golden: tuple | None = None,
) -> list[bool]:
    """``[detects(processor, program, e, ...) for e in errors]`` via one
    golden run, cone forks and bad-machine excursions
    (:func:`repro.verify.cosim.batch_detects`).

    ``golden`` optionally supplies a precomputed fault-free run as
    ``(result, trace, dense_cycles)`` — e.g. one lane of a batched
    :class:`repro.dlx.lanes.BatchDlxEnv` run recorded ``"dense"``.
    """
    spec = DlxSpec().run(program, init_regs, init_memory)
    return cosim.batch_detects(
        DlxEnv, processor, (program, init_regs, init_memory), errors,
        spec.events, golden,
    )


def cycle_commits(ctl, wb_value, dmem_addr, dmem_wdata) -> list[Event]:
    """The events a cycle commits, in commit order: the register
    write-back of the instruction in WB, then the load-pin activity or
    the store of the instruction in MEM.

    ``ctl`` holds the cycle's controller values, the others its datapath
    output pins.  An unknown value stays None in its event.
    """
    events = []
    if ctl.get("regwrite_g_ctl") == 1 and ctl.get("dest_wb") != 0:
        events.append(("reg", ctl.get("dest_wb"), wb_value))
    if ctl.get("mem_access_ctl") == 1 and ctl.get("memwrite_ctl") != 1:
        events.append(("load", dmem_addr, ctl.get("size_mem")))
    if ctl.get("memwrite_ctl") == 1:
        size = ctl.get("size_mem")
        if dmem_wdata is not None and size is not None:
            dmem_wdata &= mask(8 * _SIZE_BYTES[size])
        events.append(("mem", dmem_addr, size, dmem_wdata))
    return events


def dlx_exposure_comparator(processor, good, bad):
    """Transaction-gated divergence check for TG's internal exposure test.

    Compares exactly what the ISA-level detection compares — the events
    each cycle commits (:func:`cycle_commits`) — so a TG "detected"
    verdict survives realization.  TG's stimulus can leave a datapath
    input unknown, so events holding None compare too.  Returns the
    first (cycle, tag) divergence.
    """

    def cycle_events(cycle):
        dp = cycle.datapath
        return cycle_commits(
            cycle.controller, dp.get("wb_value_o"), dp.get("dmem_addr_o"),
            dp.get("dmem_wdata_o"),
        )

    for index, (g, b) in enumerate(zip(good.cycles, bad.cycles)):
        if cycle_events(g) != cycle_events(b):
            return (index, "isa-events")
    return None
