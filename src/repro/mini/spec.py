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
from repro.verify.cosim import ProcessorSimulator, Trace, run_testbench


@dataclass
class SpecResult:
    """ISA-visible outcome of a program run."""

    writes: list[tuple[int, int]] = field(default_factory=list)
    registers: list[int] = field(default_factory=list)


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
    ) -> None:
        regs = list(init_regs) if init_regs is not None else [0] * N_REGS
        self.regs = [to_unsigned(r, WIDTH) for r in regs]
        self.writes: list[tuple[int, int]] = []
        self.stream = list(program) + [NOP] * drain
        self.position = 0

    @property
    def running(self) -> bool:
        return self.position < len(self.stream)

    def cycle(self, ctl, out):
        """Commit the previewed write-back; return the cycle's
        ``(cpi, dpi)``: the next instruction of the stream."""
        rd_wb = ctl.get("rd_wb")
        if ctl.get("wb_en") == 1 and rd_wb is not None and out is not None:
            self.regs[rd_wb] = out
            self.writes.append((rd_wb, out))
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
        compiled: bool = True,
    ) -> None:
        self.processor = processor
        self.sim = ProcessorSimulator(
            processor, injector=injector, module_overrides=module_overrides,
            compiled=compiled,
        )
        #: Cycle-accurate co-simulation trace of the most recent ``run``
        #: (consumed by the coverage collector in ``repro.fuzz``).
        self.trace = Trace()

    def run(
        self,
        program: Sequence[Instruction],
        init_regs: Sequence[int] | None = None,
        drain: int = 4,
    ) -> SpecResult:
        """Feed the program followed by ``drain`` NOP cycles."""
        self.trace = Trace()
        return run_testbench(
            self.sim, MiniTestbench(program, init_regs, drain), self.trace
        )


def detects(
    processor: Processor,
    program: Sequence[Instruction],
    error,
    init_regs: Sequence[int] | None = None,
) -> bool:
    """True iff the program distinguishes the erroneous implementation from
    the ISA specification (the Table-1 detection criterion)."""
    spec = MiniSpec().run(program, init_regs)
    injector, module_overrides = error.hooks(processor.datapath)
    env = MiniEnv(
        processor, injector=injector, module_overrides=module_overrides,
    )
    impl = env.run(program, init_regs)
    return impl.writes != spec.writes


def batch_detects(
    processor: Processor,
    program: Sequence[Instruction],
    errors: Sequence,
    init_regs: Sequence[int] | None = None,
    stats: list | None = None,
    golden: tuple | None = None,
) -> list[bool]:
    """``[detects(processor, program, e, init_regs) for e in errors]`` via
    one golden run plus cone forks (:mod:`repro.datapath.faultsim`).

    The fault-free environment run is simulated once; each error is forked
    against its trace.  A fork that never touches an observable net behaves
    identically to the golden machine, so it inherits the golden verdict.
    A fork whose first observable touch is a DPO divergence in a committing
    cycle (``wb_en == 1``) changes that cycle's write-back value, so the
    write list differs from the specification's — detected directly.  (The
    gating matters: an error planted on ``out`` itself diverges even with
    ``wb_en == 0``, where nothing commits.)  Everything else — status-net
    divergence, which feeds back into control, or a non-committing DPO
    touch — is confirmed with a full serial run.

    ``golden`` optionally supplies a precomputed fault-free run as
    ``(result, trace, dense_cycles)`` — e.g. one lane of a batched
    :class:`repro.mini.lanes.BatchMiniEnv` run — so lane-batched callers
    pay for the golden simulation once per batch, not once per error set.
    """
    from repro.datapath.faultsim import BatchFaultSimulator

    spec = MiniSpec().run(program, init_regs)
    if golden is not None:
        golden_result, golden_trace, dense_cycles = golden
    else:
        env = MiniEnv(processor)
        golden_result = env.run(program, init_regs)
        golden_trace, dense_cycles = env.trace, None
    golden_detects = golden_result.writes != spec.writes
    sim = BatchFaultSimulator(
        processor, golden_trace, dense_cycles=dense_cycles
    )
    results = []
    for error in errors:
        fork = sim.fork(error)
        if fork.kind == "clean":
            results.append(golden_detects)
        elif (
            fork.kind == "dpo"
            and not golden_detects
            and golden_trace.cycles[fork.cycle].controller.get("wb_en") == 1
            and golden_trace.cycles[fork.cycle].controller.get("rd_wb")
            is not None
        ):
            results.append(True)
        else:
            results.append(detects(processor, program, error, init_regs))
    if stats is not None:
        stats.append(sim.stats)
    return results
