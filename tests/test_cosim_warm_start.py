"""The step's warm start, and what a testbench reads from its preview.

``run_testbench`` and ``run_lanes`` start each step's controller/datapath
fixpoint from the STS values the cycle's preview settled; a step without
them starts from unknown, which stays the reference.  Runs whose steps
ignore the preview must give the same traces, results and lane failures
on every machine, fault-free and with an error planted on a status net,
in the ALU, on a CTRL net and on a mux that a status net reads.  No
status net reads a primary input (nor, under ``SHALLOW_PREVIEW``, a
status net), so the preview's status values are the step's and every
warm step settles in one sweep, where a cold one takes two.

A testbench reads from the preview only the controller signals it
declares in ``CONTROL_READS``, and reads each of them; the lane preview
decodes just those.
"""

import pytest

from repro.baselines.random_gen import RandomProgramConfig
from repro.datapath.batched import BatchedDatapathSimulator, HAS_NUMPY
from repro.datapath.compiled import CompiledDatapathSimulator
from repro.dlx import build_dlx
from repro.dlx.isa import NOP, Instruction, to_cpi
from repro.fuzz.minimize import parse_error_spec
from repro.machines import MACHINES, machine_adapter
from repro.verify.cosim import CosimError, ProcessorSimulator
from repro.verify.lanes import LaneProcessorSimulator

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy absent (batched backend unavailable)"
)

_DLX_PLANTS = (
    None, "bus-ssl:zero:0:1", "bus-ssl:addrlo:1:1", "mse:alu_add",
    "bus-ssl:fwd_a_ctl:0:1", "boe:opa_mux",
)
PLANTS = {
    "mini": (None, "bus-ssl:eq:0:1", "mse:alu_add",
             "bus-ssl:squash_ctl:0:1", "boe:opa_mux"),
    "dlx": _DLX_PLANTS,
    "dlx_bp": _DLX_PLANTS,
}


def _programs(machine, count=6):
    generator = machine.generator_cls(RandomProgramConfig(length=12, seed=7))
    return ([generator.program(i) for i in range(count)],
            [generator.initial_registers(i) for i in range(count)])


def _hooks(processor, plant):
    if plant is None:
        return {}
    error = parse_error_spec(plant, processor.datapath)
    injector, module_overrides = error.hooks(processor.datapath)
    return {"injector": injector, "module_overrides": module_overrides}


def _cycles(trace):
    return [(c.controller, c.datapath, c.bench, c.stimulus)
            for c in trace.cycles]


def _count_step_sweeps(monkeypatch, sim_cls, dp_cls, sweep):
    """Record the datapath sweeps of every ``sim_cls.step``."""
    sweeps, calls = [], [0]
    run = getattr(dp_cls, sweep)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return run(self, *args, **kwargs)

    step = sim_cls.step

    def counted_step(self, *args, **kwargs):
        before = calls[0]
        result = step(self, *args, **kwargs)
        sweeps.append(calls[0] - before)
        return result

    monkeypatch.setattr(dp_cls, sweep, counted)
    monkeypatch.setattr(sim_cls, "step", counted_step)
    return sweeps


def _ignore_preview(monkeypatch, sim_cls):
    """Make every ``sim_cls.step`` start from unknown STS values."""
    step = sim_cls.step

    def cold_step(self, cpi, dpi, sts=None):
        return step(self, cpi, dpi)

    monkeypatch.setattr(sim_cls, "step", cold_step)


def _scalar_runs(machine, processor, plant):
    outcomes = []
    for program, regs in zip(*_programs(machine)):
        env = machine.scalar_env(processor, **_hooks(processor, plant))
        try:
            result = machine.canonical(env.run(program, regs))
        except CosimError as exc:
            result = str(exc)
        outcomes.append((result, _cycles(env.trace), env.trace.final_bench))
    return outcomes


def _lane_runs(machine, processor, plant):
    programs, regs = _programs(machine)
    env = machine.lane_env(processor, len(programs),
                           **_hooks(processor, plant))
    return [
        (run.failure,
         None if run.result is None else machine.canonical(run.result),
         _cycles(run.trace), run.dense_cycles, run.trace.final_bench)
        for run in env.run(programs, regs, record="dense")
    ]


def _warm_and_cold(monkeypatch, which, run, sim_cls, dp_cls, sweep):
    machine = machine_adapter(which)
    processor = machine.build()
    outcomes, sweeps = {}, {}
    for start in ("warm", "cold"):
        with monkeypatch.context() as patch:
            if start == "cold":
                _ignore_preview(patch, sim_cls)
            sweeps[start] = _count_step_sweeps(patch, sim_cls, dp_cls, sweep)
            outcomes[start] = [run(machine, processor, plant)
                               for plant in PLANTS[which]]
    assert outcomes["warm"] == outcomes["cold"]
    assert len(sweeps["warm"]) == len(sweeps["cold"])
    assert set(sweeps["warm"]) == {1}
    assert set(sweeps["cold"]) == {2}


@pytest.mark.parametrize("which", MACHINES)
def test_scalar_warm_start_is_exact(which, monkeypatch):
    _warm_and_cold(monkeypatch, which, _scalar_runs, ProcessorSimulator,
                   CompiledDatapathSimulator, "evaluate_partial")


@requires_numpy
@pytest.mark.parametrize("which", MACHINES)
def test_lane_warm_start_is_exact(which, monkeypatch):
    _warm_and_cold(monkeypatch, which, _lane_runs, LaneProcessorSimulator,
                   BatchedDatapathSimulator, "run_partial")


@requires_numpy
def test_lane_warm_start_keeps_lane_failures():
    # Lane 1 presents an instruction without its 'rd' field, which fails
    # that lane at the clock edge: warm steps from each cycle's preview
    # fail it with the cold step's message and leave every lane's values
    # and state as the cold steps do.
    dlx = build_dlx()
    dpi = {"rf_a": 3, "rf_b": 3, "imm16": 4, "dmem_rdata": 0}
    program = [Instruction("ADDI", rs=1, rt=2, imm=4),
               Instruction("BEQZ", rs=2, imm=4), NOP]
    frames = [(to_cpi(i), dpi) for i in program]
    no_rd = {k: v for k, v in frames[1][0].items() if k != "rd"}
    streams = [frames, [frames[0], (no_rd, dpi), frames[2]],
               frames[1:] + frames[:1]]

    def run(warm):
        sim = LaneProcessorSimulator(dlx, len(streams))
        seen = []
        for t in range(3):
            _, sts = sim.preview(["stall"])
            ctl, failures = sim.step(
                [stream[t][0] for stream in streams],
                [stream[t][1] for stream in streams],
                sts if warm else None,
            )
            seen.append((ctl, failures,
                         [sim.dense_datapath(b) for b in range(3)],
                         {q: codes.tolist()
                          for q, codes in sim.ctl_state.items()}))
        return seen

    warm = run(True)
    assert warm == run(False)
    assert list(warm[1][1]) == [1]


class _Declared(dict):
    """Preview controller values that fail a read of a signal outside
    ``declared``, and record every read."""

    def __init__(self, values, declared, read):
        super().__init__(values)
        self.declared, self.read = declared, read

    def _check(self, name):
        assert name in self.declared, f"undeclared read of {name!r}"
        self.read.add(name)

    def __getitem__(self, name):
        self._check(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self._check(name)
        return super().get(name, default)


#: Controller signals each machine's testbench reads from the preview:
#: the DLX+BP fetch unit reads four more than the base DLX's.
CONTROL_READ_COUNTS = {"mini": 2, "dlx": 8, "dlx_bp": 12}


@pytest.mark.parametrize("which", MACHINES)
def test_testbench_reads_only_its_control_reads(which, monkeypatch):
    machine = machine_adapter(which)
    processor = machine.build()
    bench = machine.scalar_env(processor).testbench_for([])
    bench_cls = type(bench)
    declared, read = set(bench.CONTROL_READS), set()
    assert len(declared) == CONTROL_READ_COUNTS[which]
    cycle, advance = bench_cls.cycle, bench_cls.advance

    def declared_cycle(self, ctl, *nets):
        return cycle(self, _Declared(ctl, declared, read), *nets)

    def declared_advance(self, ctl):
        return advance(self, _Declared(ctl, declared, read))

    monkeypatch.setattr(bench_cls, "cycle", declared_cycle)
    monkeypatch.setattr(bench_cls, "advance", declared_advance)
    programs, regs = _programs(machine, count=40)
    for program, init_regs in zip(programs, regs):
        result = machine.scalar_env(processor).run(program, init_regs)
        assert machine.canonical(result) == \
            machine.spec_outcome(program, init_regs)
    assert read == declared


@requires_numpy
@pytest.mark.parametrize("which", MACHINES)
def test_lane_preview_decodes_only_the_control_reads(which, monkeypatch):
    # The preview decodes the testbench's CONTROL_READS and nothing else;
    # the step still decodes every controller signal into the traces.
    machine = machine_adapter(which)
    processor = machine.build()
    declared = machine.scalar_env(processor).testbench_for([]).CONTROL_READS
    decoded = set()
    for name in ("preview", "preview_shallow"):
        preview = getattr(LaneProcessorSimulator, name)

        def recording(self, names, preview=preview):
            decoded.add(tuple(names))
            return preview(self, names)

        monkeypatch.setattr(LaneProcessorSimulator, name, recording)
    programs, regs = _programs(machine)
    runs = machine.lane_env(processor, len(programs)).run(programs, regs)
    assert decoded == {tuple(declared)}
    signals = set(processor.controller.network.signals)
    assert all(set(cycle.controller) == signals
               for run in runs for cycle in run.trace.cycles)
