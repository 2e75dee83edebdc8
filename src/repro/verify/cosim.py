"""Processor co-simulation: joint controller/datapath cycle simulation.

Used both to *apply* generated tests to the (erroneous) implementation and
as the ground truth for detection: a test detects an error iff the erroneous
implementation's observable trace (DPO values, plus architectural state for
ISA-level comparisons) differs from the fault-free one.

Within one cycle the controller and datapath depend on each other in layers
(decode CTRLs -> datapath STS -> squash/PC CTRLs -> datapath PC mux), so the
cycle is resolved by alternating three-valued sweeps until a fixpoint; the
combined logic is acyclic, so the fixpoint is reached in a few iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.datapath.compiled import CompiledDatapathSimulator
from repro.datapath.simulate import (
    DatapathSimulator,
    Injector,
    ModuleOverride,
    no_injection,
)
from repro.model.processor import Processor
from repro.utils.bits import mask


class CosimError(Exception):
    """Raised when a cycle cannot be resolved to concrete values."""


@dataclass
class CycleTrace:
    """All values of one simulated cycle."""

    datapath: dict[str, int | None]
    controller: dict[str, int | None]


@dataclass
class Trace:
    """A multi-cycle simulation trace."""

    cycles: list[CycleTrace] = field(default_factory=list)


class ProcessorSimulator:
    """Cycle-accurate co-simulator for a :class:`Processor`."""

    def __init__(
        self,
        processor: Processor,
        injector: Injector = no_injection,
        module_overrides: Mapping[str, ModuleOverride] | None = None,
        max_fixpoint_iters: int = 8,
        compiled: bool = True,
    ) -> None:
        self.processor = processor
        # The compiled kernels are the production path; ``compiled=False``
        # selects the interpretive simulator, kept as the differential
        # oracle (see tests/test_compiled_differential.py).
        dp_cls = CompiledDatapathSimulator if compiled else DatapathSimulator
        self.dp_sim = dp_cls(
            processor.datapath, injector=injector,
            module_overrides=module_overrides,
        )
        self.ctl_state = processor.controller.reset_state()
        self.max_fixpoint_iters = max_fixpoint_iters

    def reset(self) -> None:
        self.dp_sim.reset()
        self.ctl_state = self.processor.controller.reset_state()

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def resolve(
        self, cpi: Mapping[str, int], dpi: Mapping[str, int | None]
    ) -> tuple[dict[str, int | None], dict[str, int | None]]:
        """Resolve one cycle's values WITHOUT clocking.

        Alternates three-valued controller evaluation with partial datapath
        evaluation until the status feedback settles.  Partial inputs are
        allowed: anything unresolvable stays None.  Used both by ``step``
        and by environment shims that need to *peek* state-derived signals
        (stall, write-back data) before choosing the cycle's stimulus.
        """
        processor = self.processor
        controller = processor.controller

        dpi_full = dict.fromkeys(processor.datapath.external_input_names)
        dpi_full.update(dpi)
        for cpi_name, dpi_name in processor.cpi_dpi_bindings.items():
            if cpi_name in cpi and cpi[cpi_name] is not None:
                dpi_full[dpi_name] = cpi[cpi_name]

        sts_known: dict[str, int] = {}
        ctl_values: dict[str, int | None] = {}
        dp_values: dict[str, int | None] = {}
        for _ in range(self.max_fixpoint_iters):
            assignment: dict[str, int | None] = dict(cpi)
            assignment.update(self.ctl_state)
            assignment.update(sts_known)
            ctl_values = controller.network.evaluate(assignment)
            externals = dict(dpi_full)
            for name in controller.ctrl_signals:
                externals[name] = ctl_values[name]
            dp_values = self.dp_sim.evaluate_partial(externals)
            new_sts = {
                name: dp_values[name]
                for name in controller.sts_signals
                if dp_values.get(name) is not None
            }
            if new_sts == sts_known:
                break
            sts_known = new_sts
        else:  # pragma: no cover - defensive
            raise CosimError("controller/datapath fixpoint did not settle")
        return ctl_values, dp_values

    def step(
        self, cpi: Mapping[str, int], dpi: Mapping[str, int]
    ) -> CycleTrace:
        """Resolve and clock one cycle.

        ``cpi`` are the controller primary inputs (instruction fields etc.);
        ``dpi`` the datapath primary inputs.  CPI fields with a DPI binding
        are copied into the bound datapath input automatically.
        """
        ctl_values, dp_values = self.resolve(cpi, dpi)
        self._check_concrete(ctl_values, dp_values)
        self._clock(ctl_values, dp_values)
        return CycleTrace(datapath=dp_values, controller=ctl_values)

    def _check_concrete(self, ctl_values, dp_values) -> None:
        unknown_ctrl = [
            name for name in self.processor.controller.ctrl_signals
            if ctl_values.get(name) is None
        ]
        if unknown_ctrl:
            raise CosimError(
                f"CTRL signals unresolved after fixpoint: {unknown_ctrl}"
            )

    def _clock(self, ctl_values, dp_values) -> None:
        # The settled controller values already hold every CPR input.
        self.ctl_state = self.processor.controller.next_state(
            self.ctl_state, ctl_values
        )
        # Clock the datapath registers using the resolved values.
        next_dp: dict[str, int] = {}
        for reg in self.processor.datapath.registers:
            d_value = dp_values[reg.data_inputs[0].net.name]
            controls = [dp_values[p.net.name] for p in reg.control_inputs]
            if any(c is None for c in controls):
                raise CosimError(
                    f"register {reg.name}: unresolved control at clock edge"
                )
            current = self.dp_sim.state[reg.name]
            if d_value is None:
                # Unknown data only matters if the register would load it.
                if reg.next_state(current, 0, controls) != reg.next_state(
                    current, 1, controls
                ):
                    raise CosimError(
                        f"register {reg.name}: loading an unresolved value"
                    )
                d_value = current
            next_dp[reg.name] = reg.next_state(current, d_value, controls)
        self.dp_sim.state.update(next_dp)

    # ------------------------------------------------------------------
    # Multi-cycle
    # ------------------------------------------------------------------
    def run(
        self,
        cpi_frames: list[Mapping[str, int]],
        dpi_frames: list[Mapping[str, int]],
    ) -> Trace:
        if len(cpi_frames) != len(dpi_frames):
            raise ValueError("cpi and dpi frame counts differ")
        trace = Trace()
        for cpi, dpi in zip(cpi_frames, dpi_frames):
            trace.cycles.append(self.step(cpi, dpi))
        return trace

    def set_stimulus_state(self, values: Mapping[str, int]) -> None:
        """Set initial contents of stimulus registers (part of the test).

        Values are masked to the register width — state must stay in-range
        for the masked emission semantics the kernel backends share.
        """
        for name, value in values.items():
            if name not in self.dp_sim.state:
                raise ValueError(f"no register named {name!r}")
            reg = self.processor.datapath.module(name)
            self.dp_sim.state[name] = value & mask(reg.width)


def stimulus_key(
    stimulus_state: Mapping[str, int],
    cpi_frames: list[Mapping[str, int]],
    dpi_frames: list[Mapping[str, int]],
) -> tuple:
    """A hashable identity for one complete stimulus.

    Two stimuli with the same key drive the fault-free machine through the
    same trace, whatever error is being targeted.
    """
    return (
        tuple(sorted(stimulus_state.items())),
        tuple(tuple(sorted(frame.items())) for frame in cpi_frames),
        tuple(tuple(sorted(frame.items())) for frame in dpi_frames),
    )


class GoldenTraceCache:
    """Bounded memo of fault-free simulation traces, keyed by stimulus
    *and* processor identity.

    The TG exposure loop re-checks many candidate tests whose stimulus is
    identical across unmask seeds and justify variants — and the fault-free
    ("golden") half of every co-simulation depends only on the stimulus,
    never on the error.  Caching it simulates the good machine once per
    distinct candidate stimulus.  Traces are value objects: callers must
    not mutate a cached trace.  Eviction is LRU with a bounded entry count.

    Entries carry the identity of the processor that produced them, so one
    cache may be shared between machines (two TGs, or a TG whose processor
    is swapped) without a stimulus that happens to be well-formed on both
    machines returning the wrong machine's trace.  Cached processors are
    pinned (a strong reference is kept) so a dead object's ``id`` can never
    be reused by a different machine while its entries are alive.
    """

    def __init__(self, max_entries: int = 256, compiled: bool = True) -> None:
        self.max_entries = max_entries
        self.compiled = compiled
        self.hits = 0
        self.misses = 0
        self._traces: dict[tuple, Trace] = {}
        self._pinned: dict[int, Processor] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def stats(self) -> dict[str, int]:
        """Hit/miss/occupancy counters (the campaign service's
        ``/metrics`` reads these; see ``repro.service.cache``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._traces),
        }

    def trace(
        self,
        processor: Processor,
        stimulus_state: Mapping[str, int],
        cpi_frames: list[Mapping[str, int]],
        dpi_frames: list[Mapping[str, int]],
    ) -> Trace:
        """The fault-free trace for this stimulus (simulating on a miss)."""
        self._pinned.setdefault(id(processor), processor)
        key = (
            id(processor),
            stimulus_key(stimulus_state, cpi_frames, dpi_frames),
        )
        cached = self._traces.pop(key, None)
        if cached is not None:
            self.hits += 1
            self._traces[key] = cached  # re-insert: most recently used
            return cached
        self.misses += 1
        simulator = ProcessorSimulator(processor, compiled=self.compiled)
        simulator.set_stimulus_state(stimulus_state)
        trace = simulator.run(cpi_frames, dpi_frames)
        self._traces[key] = trace
        while len(self._traces) > self.max_entries:
            self._traces.pop(next(iter(self._traces)))
        return trace


def traces_diverge(
    processor: Processor, good: Trace, bad: Trace
) -> tuple[int, str] | None:
    """First (cycle, DPO net) where two traces differ, or None.

    Only cycles present in *both* traces are compared (the shorter trace
    bounds the comparison), and a DPO value that is unknown (``None``,
    three-valued X) on either side is never counted as a divergence: an
    unresolved value is compatible with anything.  Divergence on the very
    last shared cycle is reported like any other.
    """
    for cycle_index, (g, b) in enumerate(zip(good.cycles, bad.cycles)):
        for net in processor.datapath.dpo_nets:
            gv = g.datapath.get(net.name)
            bv = b.datapath.get(net.name)
            if gv is not None and bv is not None and gv != bv:
                return cycle_index, net.name
    return None
