"""Lane-batched MiniPipe environment: many programs per kernel call.

:class:`BatchMiniEnv` runs a *batch* of programs on the pipelined MiniPipe
implementation in lockstep over :class:`repro.verify.lanes.
LaneProcessorSimulator`: one :class:`repro.mini.spec.MiniTestbench` per
lane, stepped by :func:`repro.verify.lanes.run_lanes`, the same testbench
:class:`repro.mini.spec.MiniEnv` steps on the scalar co-simulator.  The
differential battery in ``tests/test_batched_differential.py`` holds every
lane byte-identical to a scalar run of that program alone.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.mini.isa import Instruction
from repro.mini.spec import MiniTestbench
from repro.model.processor import Processor
from repro.verify.lanes import LaneProcessorSimulator, LaneRun, run_lanes


class BatchMiniEnv:
    """Runs a batch of programs on the pipelined implementation."""

    def __init__(
        self,
        processor: Processor,
        n_lanes: int,
        injector: Injector = no_injection,
        module_overrides: Mapping[str, ModuleOverride] | None = None,
    ) -> None:
        self.processor = processor
        self.sim = LaneProcessorSimulator(
            processor, n_lanes, injector=injector,
            module_overrides=module_overrides,
        )
        self.n_lanes = n_lanes

    def run(
        self,
        programs: Sequence[Sequence[Instruction]],
        init_regs: Sequence[Sequence[int] | None] | None = None,
        drain: int = 4,
        record: str = "controller",
    ) -> list[LaneRun]:
        """Run one program per lane (lockstep); returns per-lane outcomes.

        ``record`` selects the trace format, as in
        :func:`repro.verify.lanes.run_lanes`.
        """
        benches = [
            MiniTestbench(
                program,
                init_regs[b] if init_regs is not None else None,
                drain,
            )
            for b, program in enumerate(programs)
        ]
        return run_lanes(self.sim, benches, record)
