"""Lane-batched DLX environment: many programs per kernel call.

:class:`BatchDlxEnv` runs a batch of DLX programs on the pipelined
implementation in lockstep over :class:`repro.verify.lanes.
LaneProcessorSimulator`: one :class:`repro.dlx.env.DlxTestbench` per lane,
stepped by :func:`repro.verify.lanes.run_lanes`, the same testbench
:class:`repro.dlx.env.DlxEnv` steps on the scalar co-simulator.  Only the
netlist evaluation is vectorised.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.dlx.env import DlxTestbench
from repro.dlx.isa import Instruction
from repro.model.processor import Processor
from repro.verify.lanes import LaneProcessorSimulator, LaneRun, run_lanes


class BatchDlxEnv:
    """Drives a batch of programs through the DLX implementation."""

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
        self.branch_prediction = (
            "predict_taken" in processor.controller.network.signals
        )

    def run(
        self,
        programs: Sequence[Sequence[Instruction]],
        init_regs: Sequence[Sequence[int] | None] | None = None,
        init_memory: Sequence[dict[int, int] | None] | None = None,
        drain: int = 8,
        max_cycles: int | None = None,
        record: str = "controller",
    ) -> list[LaneRun]:
        """Run one program per lane (lockstep); returns per-lane outcomes.

        ``record`` selects the trace format, as in
        :func:`repro.verify.lanes.run_lanes`.
        """
        benches = [
            DlxTestbench(
                program,
                init_regs[b] if init_regs is not None else None,
                init_memory[b] if init_memory is not None else None,
                drain, max_cycles, branch_prediction=self.branch_prediction,
            )
            for b, program in enumerate(programs)
        ]
        return run_lanes(self.sim, benches, record)
