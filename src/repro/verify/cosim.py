"""Processor co-simulation: joint controller/datapath cycle simulation.

Used both to *apply* generated tests to the (erroneous) implementation and
as the ground truth for detection: a test detects an error iff the erroneous
implementation's observable trace (DPO values, plus architectural state for
ISA-level comparisons) differs from the fault-free one.

Within one cycle the controller and datapath depend on each other in layers
(decode CTRLs -> datapath STS -> squash/PC CTRLs -> datapath PC mux), so the
cycle is resolved by alternating three-valued sweeps until the STS values
settle; the combined logic is acyclic, so the fixpoint is reached in a few
iterations.

A testbench run settles each cycle twice: the preview on an all-unknown
stimulus, then the step on the testbench's stimulus.  The step starts from
the STS values its preview settled rather than from unknown, and that warm
start is exact.  No STS net reads itself through the controller
(``tests/test_faultsim_precondition.py``), so every STS value is a function
of the STS values below it and the sweep has one fixpoint, which the
iteration reaches from any start within the STS depth plus one sweep.
Three-valued evaluation is also monotone wherever no override reads a
0-substituted input, and the preview's fixpoint then lies at or below the
step's, so the warm iteration takes no more sweeps than the cold one.  Its
values and failures are the cold step's, which ``step`` without ``sts``
still computes.  On every machine here no STS net reads a primary input,
so the preview settles them to their final values and the step settles in
one sweep: three sweeps per DLX cycle instead of four.

:func:`run_testbench` runs one program's testbench on the co-simulator;
:func:`batch_detects` decides many errors against one golden run with
cone forks, and runs the bad machine from cycle 0 only where a fork sees
a touch it cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.datapath.compiled import CompiledDatapathSimulator
from repro.datapath.simulate import (
    DatapathSimulator,
    Injector,
    ModuleOverride,
    no_injection,
)
from repro.model.processor import Processor
from repro.utils.bits import mask


#: Controller/datapath sweeps before a cycle's status feedback counts as
#: unsettled: the bound of every co-simulator and of the cone fork's
#: controller step.
FIXPOINT_ITERS = 8


class CosimError(Exception):
    """Raised when a cycle cannot be resolved to concrete values."""


@dataclass
class CycleTrace:
    """All values of one simulated cycle."""

    datapath: dict[str, int | None]
    controller: dict[str, int | None]
    #: The testbench's state at the start of the cycle (its ``save()``)
    #: and the ``(cpi, dpi)`` stimulus it supplied, when a testbench drove
    #: the run.
    bench: Any = None
    stimulus: Any = None


@dataclass
class Trace:
    """A multi-cycle simulation trace."""

    cycles: list[CycleTrace] = field(default_factory=list)
    #: The testbench's state after the last cycle, when a testbench drove
    #: the run.
    final_bench: Any = None


class ProcessorSimulator:
    """Cycle-accurate co-simulator for a :class:`Processor`."""

    def __init__(
        self,
        processor: Processor,
        injector: Injector = no_injection,
        module_overrides: Mapping[str, ModuleOverride] | None = None,
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

    def reset(self) -> None:
        self.dp_sim.reset()
        self.ctl_state = self.processor.controller.reset_state()

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def resolve(
        self, cpi: Mapping[str, int], dpi: Mapping[str, int | None],
        sts: Mapping[str, int | None] | None = None,
    ) -> tuple[dict[str, int | None], dict[str, int | None]]:
        """Resolve one cycle's values WITHOUT clocking.

        Alternates three-valued controller evaluation with partial datapath
        evaluation until the status feedback settles, starting from the
        STS values ``sts`` holds (by net name; other names are ignored,
        so a preview's datapath values will do) or, without ``sts``, from
        unknown.  Partial inputs are allowed: anything unresolvable stays
        None.  Used both by ``step`` and by environment shims that need to
        *peek* state-derived signals (stall, write-back data) before
        choosing the cycle's stimulus.
        """
        processor = self.processor
        controller = processor.controller

        dpi_full = dict.fromkeys(processor.datapath.external_input_names)
        dpi_full.update(dpi)
        for cpi_name, dpi_name in processor.cpi_dpi_bindings.items():
            if cpi_name in cpi and cpi[cpi_name] is not None:
                dpi_full[dpi_name] = cpi[cpi_name]

        sts_known: dict[str, int] = {}
        if sts is not None:
            for name in controller.sts_signals:
                if sts.get(name) is not None:
                    sts_known[name] = sts[name]
        ctl_values: dict[str, int | None] = {}
        dp_values: dict[str, int | None] = {}
        for _ in range(FIXPOINT_ITERS):
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

    def preview_shallow(
        self,
    ) -> tuple[dict[str, int | None], dict[str, int | None]]:
        """State-only single-sweep preview, WITHOUT clocking.

        Evaluates the controller on the pipe-register state alone and
        feeds only the CTRL values into one partial datapath evaluation:
        no CPI, no DPI and no status feedback.  Returns the controller and
        datapath values like :meth:`resolve`.  The scalar twin of
        :meth:`repro.verify.lanes.LaneProcessorSimulator.preview_shallow`.
        """
        controller = self.processor.controller
        ctl_values = controller.network.evaluate(dict(self.ctl_state))
        externals = dict.fromkeys(self.processor.datapath.external_input_names)
        for name in controller.ctrl_signals:
            externals[name] = ctl_values.get(name)
        return ctl_values, self.dp_sim.evaluate_partial(externals)

    def step(
        self, cpi: Mapping[str, int], dpi: Mapping[str, int],
        sts: Mapping[str, int | None] | None = None,
    ) -> CycleTrace:
        """Resolve and clock one cycle.

        ``cpi`` are the controller primary inputs (instruction fields etc.);
        ``dpi`` the datapath primary inputs.  CPI fields with a DPI binding
        are copied into the bound datapath input automatically.  ``sts``
        starts the fixpoint as in :meth:`resolve`: :func:`run_testbench`
        passes the cycle's preview, and a step without it starts from
        unknown (see the module docstring).
        """
        ctl_values, dp_values = self.resolve(cpi, dpi, sts)
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


def commit(events: list, spec_events: Sequence | None, event) -> bool:
    """Append a testbench's committed ``event`` to ``events``; True when
    it departs from ``spec_events``: it differs from the specification's
    event at its index, or the specification has none there."""
    events.append(event)
    k = len(events) - 1
    return spec_events is not None and (
        k >= len(spec_events) or spec_events[k] != event
    )


def run_testbench(sim: ProcessorSimulator, bench, trace: Trace):
    """Run one program's testbench on ``sim``; return ``bench.result()``.

    A testbench (``repro.dlx.env.DlxTestbench``,
    ``repro.mini.spec.MiniTestbench``) plays the register file, data
    memory and fetch unit for one program.  Each cycle saves the
    testbench's state into the cycle's trace entry, previews the pipeline
    state (the machine's ``SHALLOW_PREVIEW`` single sweep, or the full
    ``resolve({}, {})`` fixpoint), lets the testbench commit what the
    cycle retires and choose the stimulus from the ``PREVIEW_NETS``
    values, clocks the cycle into ``trace`` (with the save and the
    stimulus) on a step that starts from the preview's STS values, and
    moves the fetch unit.  The run ends when the testbench
    stops running or its ``cycle`` returns None, and ``trace`` then holds
    the testbench's final save.  The saves and the stimulus are what a
    :class:`TestbenchJudge` replays a cycle from.  A :class:`CosimError`
    propagates with ``trace`` holding every cycle clocked before it.
    """
    while bench.running:
        save = bench.save()
        if bench.SHALLOW_PREVIEW:
            ctl, dp = sim.preview_shallow()
        else:
            ctl, dp = sim.resolve({}, {})
        stimulus = bench.cycle(ctl, *(dp[name] for name in bench.PREVIEW_NETS))
        if stimulus is None:
            break
        clocked = sim.step(*stimulus, sts=dp)
        clocked.bench, clocked.stimulus = save, stimulus
        trace.cycles.append(clocked)
        bench.advance(ctl)
    trace.final_bench = bench.save()
    return bench.result()


class TestbenchJudge:
    """Whether a bad machine's testbench sees a cone fork's touch: the
    ``judge`` of :class:`repro.datapath.faultsim.BatchFaultSimulator`.

    ``bench`` is a testbench of the program ``golden`` ran, built with the
    specification's events.  The judge restores it from the golden's save
    at the touch's cycle and replays the cycle as :func:`run_testbench`
    would on the bad machine's preview: the controller over the golden
    controller state plus the bad STS values (the state alone under
    ``SHALLOW_PREVIEW``), and the bad ``PREVIEW_NETS`` values.  It answers
    ``"detected"`` for a commit that departs from the specification, None
    when the replay supplies the golden's stimulus and ends in the
    golden's next save (or final save), else ``"touch"``.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, processor: Processor, golden: Trace, bench) -> None:
        self.network = processor.controller.network
        self.golden, self.bench = golden, bench
        self.preview_nets = bench.PREVIEW_NETS
        self.cprs = processor.controller.csi_signals
        self.preview_sts = (
            () if bench.SHALLOW_PREVIEW else processor.controller.sts_signals
        )

    def __call__(self, t: int, values: Mapping[str, int | None]):
        cycles = self.golden.cycles
        cycle, bench = cycles[t], self.bench
        state = {q: cycle.controller[q] for q in self.cprs}
        for name in self.preview_sts:
            state[name] = values[name]
        ctl = self.network.evaluate(state)
        bench.restore(cycle.bench)
        stimulus = bench.cycle(ctl, *(values[n] for n in self.preview_nets))
        if stimulus is None:
            return "detected"
        if stimulus != cycle.stimulus:
            return "touch"
        bench.advance(ctl)
        after = (cycles[t + 1].bench if t + 1 < len(cycles)
                 else self.golden.final_bench)
        return None if bench.save() == after else "touch"


def batch_detects(env_cls, processor: Processor, run_args: tuple, errors,
                  spec_events: list, golden: tuple | None = None
                  ) -> list[bool]:
    """Whether each error's bad machine commits events that depart from
    ``spec_events``: the machine's ``detects`` for every error, by
    divergence/convergence fault simulation against one golden run.

    ``env_cls`` is the machine's scalar environment (``DlxEnv``,
    ``MiniEnv``) and ``run_args`` the program's arguments to its ``run``.
    ``golden`` optionally supplies the fault-free run as ``(result, trace,
    dense_cycles)``, e.g. one lane of a batched run recorded ``"dense"``.

    Each error is cone-forked against the golden run
    (:mod:`repro.datapath.faultsim`), which puts every touch of a net the
    testbench reads to a :class:`TestbenchJudge`.  A clean fork inherits
    the golden verdict; a ``"detected"`` one is detected.  Any other fork,
    a real touch or an error the fork cannot follow (``"unsupported"``),
    gets the run ``detects`` makes: the bad machine from cycle 0 against
    the specification's events.
    """
    from repro.datapath.faultsim import BatchFaultSimulator

    env = env_cls(processor)
    if golden is None:
        golden = (env.run(*run_args), env.trace, None)
    result, trace, dense = golden
    golden_detects = result.events != spec_events
    bench = env.testbench_for(*run_args, spec_events=spec_events)
    sim = BatchFaultSimulator(
        processor, trace, TestbenchJudge(processor, trace, bench), dense,
    )

    def verdict(error) -> bool:
        fork = sim.fork(error)
        if fork.kind in ("clean", "detected"):
            return golden_detects or fork.kind == "detected"
        injector, module_overrides = error.hooks(processor.datapath)
        env = env_cls(processor, injector=injector,
                      module_overrides=module_overrides)
        bad = env.run(*run_args, spec_events=spec_events)
        return bad.events != spec_events

    return [verdict(error) for error in errors]


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

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
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
        simulator = ProcessorSimulator(processor)
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
