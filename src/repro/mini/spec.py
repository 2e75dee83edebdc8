"""MiniPipe ISA-level specification simulator and the implementation shim.

The specification executes instructions architecturally: four registers,
sequential semantics, a taken BEQ skips the next instruction.  Its output is
the ordered list of register writes ``(rd, value)`` — the ISA-visible trace.

``MiniEnv`` runs the same program on the pipelined *implementation* (the
:class:`Processor` co-simulator) through a :class:`MiniTestbench`, which
plays the role of the environment: it supplies register-file read data
(MiniPipe models RF reads as data primary inputs), commits write-backs and
extracts the same ISA-visible trace.  Comparing the two traces is the
detection criterion for design errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.mini.isa import IMM_OPS, N_REGS, NOP, WIDTH, Instruction, to_cpi
from repro.model.processor import Processor
from repro.utils.bits import to_unsigned
from repro.verify import cosim
from repro.verify.cosim import ProcessorSimulator, Trace, commit, run_testbench


@dataclass
class SpecResult:
    """ISA-visible outcome of a program run."""

    writes: list[tuple[int, int]] = field(default_factory=list)
    registers: list[int] = field(default_factory=list)

    @property
    def events(self) -> list[tuple[int, int]]:
        """The ISA-visible events (the writes), under the name the DLX's
        result uses too."""
        return self.writes


class MiniSpec:
    """Architectural (sequential) simulator for the MiniPipe ISA."""

    def run(
        self, program: Sequence[Instruction], init_regs: Sequence[int] | None = None
    ) -> SpecResult:
        regs = list(init_regs) if init_regs is not None else [0] * N_REGS
        if len(regs) != N_REGS:
            raise ValueError(f"expected {N_REGS} registers")
        regs = [to_unsigned(r, WIDTH) for r in regs]
        writes: list[tuple[int, int]] = []
        skip = False
        for instruction in program:
            if skip:
                skip = False
                continue
            op = instruction.opcode
            a = regs[instruction.rs1]
            b = regs[instruction.rs2]
            imm = instruction.imm
            if op == 0:  # NOP
                continue
            if op == 6:  # BEQ: skip next when equal
                if a == b:
                    skip = True
                continue
            operand = imm if op in IMM_OPS else b
            if op in (1, 5):  # ADD / ADDI
                value = to_unsigned(a + operand, WIDTH)
            elif op in (2, 7):  # SUB / SUBI
                value = to_unsigned(a - operand, WIDTH)
            elif op == 3:  # AND
                value = a & operand
            else:  # XOR
                value = a ^ operand
            regs[instruction.rd] = value
            writes.append((instruction.rd, value))
        return SpecResult(writes=writes, registers=regs)


class MiniTestbench:
    """One MiniPipe program's registers and committed write-backs.

    :func:`repro.verify.cosim.run_testbench` and
    :func:`repro.verify.lanes.run_lanes` step it.  Register-file reads are
    supplied from the architectural register array, which is committed
    *before* each cycle's reads (write-through register file); the
    single-cycle gap in between is covered by the pipeline's bypass paths.
    """

    #: Datapath nets :meth:`cycle` reads from the preview, in order.
    PREVIEW_NETS = ("out",)
    #: Controller signals :meth:`cycle` reads from the preview.
    CONTROL_READS = ("wb_en", "rd_wb")
    #: The write-back value depends only on pipeline state, so MiniPipe
    #: previews with the state-only single sweep.
    SHALLOW_PREVIEW = True
    #: What a stopped lane steps on.
    QUIET_STIMULUS = (to_cpi(NOP), {"rf_a": 0, "rf_b": 0, "imm": 0})

    def __init__(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        drain: int = 4,
        spec_events: Sequence[tuple[int, int]] | None = None,
    ) -> None:
        regs = list(init_regs) if init_regs is not None else [0] * N_REGS
        self.regs = [to_unsigned(r, WIDTH) for r in regs]
        self.writes: list[tuple[int, int]] = []
        self.spec_events = spec_events
        self.stream = list(program) + [NOP] * drain
        self.position = 0

    @property
    def running(self) -> bool:
        return self.position < len(self.stream)

    def cycle(self, ctl, out):
        """Commit the previewed write-back; return the cycle's
        ``(cpi, dpi)``: the next instruction of the stream, or None right
        after a write that departs from ``spec_events``."""
        rd_wb = ctl.get("rd_wb") if ctl.get("wb_en") == 1 else None
        if rd_wb is not None and out is not None:
            self.regs[rd_wb] = out
            if commit(self.writes, self.spec_events, (rd_wb, out)):
                return None
        instruction = self.stream[self.position]
        self.position += 1
        return to_cpi(instruction), {
            "rf_a": self.regs[instruction.rs1],
            "rf_b": self.regs[instruction.rs2],
            "imm": instruction.imm,
        }

    def advance(self, ctl) -> None:
        """MiniPipe's fetch unit has nothing to move: one stream slot per
        cycle, taken by :meth:`cycle`."""

    def save(self) -> tuple:
        """The testbench's state between two cycles, for :meth:`restore`."""
        return tuple(self.regs), tuple(self.writes), self.position

    def restore(self, state: tuple) -> None:
        """Take back a state :meth:`save` returned."""
        regs, writes, self.position = state
        self.regs, self.writes = list(regs), list(writes)

    def result(self) -> SpecResult:
        return SpecResult(writes=self.writes, registers=self.regs)


class MiniEnv:
    """Runs a program on the pipelined implementation and extracts the
    ISA-visible write trace."""

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
        #: Cycle-accurate co-simulation trace of the most recent ``run``
        #: (consumed by the coverage collector in ``repro.fuzz``).
        self.trace = Trace()

    def testbench_for(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        drain: int = 4,
        spec_events: Sequence[tuple[int, int]] | None = None,
    ) -> MiniTestbench:
        """The testbench :meth:`run` steps for these arguments."""
        return MiniTestbench(program, init_regs, drain, spec_events)

    def run(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        drain: int = 4,
        spec_events: Sequence[tuple[int, int]] | None = None,
    ) -> SpecResult:
        """Feed the program followed by ``drain`` NOP cycles.

        With ``spec_events`` (the specification's writes) the run stops
        right after the first write that departs from them, as
        ``DlxEnv.run`` does.
        """
        self.trace = Trace()
        bench = self.testbench_for(program, init_regs, drain, spec_events)
        return run_testbench(self.sim, bench, self.trace)


def detects(
    processor: Processor,
    program: Sequence[Instruction],
    error,
    init_regs: Sequence[int] | None = None,
) -> bool:
    """True iff the program distinguishes the erroneous implementation from
    the ISA specification (the Table-1 detection criterion).  The bad
    machine runs up to its first write that departs from the
    specification's."""
    spec = MiniSpec().run(program, init_regs)
    injector, module_overrides = error.hooks(processor.datapath)
    env = MiniEnv(
        processor, injector=injector, module_overrides=module_overrides,
    )
    impl = env.run(program, init_regs, spec_events=spec.writes)
    return impl.writes != spec.writes


def batch_detects(
    processor: Processor,
    program: Sequence[Instruction],
    errors: Sequence,
    init_regs: Sequence[int] | None = None,
    golden: tuple | None = None,
) -> list[bool]:
    """``[detects(processor, program, e, init_regs) for e in errors]`` via
    one golden run and cone forks, with a bad-machine run from cycle 0
    for each error the fork leaves undecided
    (:func:`repro.verify.cosim.batch_detects`).

    ``golden`` optionally supplies a precomputed fault-free run as
    ``(result, trace, dense_cycles)`` — e.g. one lane of a batched
    :class:`repro.mini.lanes.BatchMiniEnv` run recorded ``"dense"`` — so
    lane-batched callers pay for the golden simulation once per batch, not
    once per error set.
    """
    spec = MiniSpec().run(program, init_regs)
    return cosim.batch_detects(
        MiniEnv, processor, (program, init_regs), errors, spec.writes, golden,
    )
