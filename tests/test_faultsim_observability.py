"""The cone fork's observability mask against an independent replay.

``BatchFaultSimulator`` skips a cycle without building its cone when the
fork holds no register diff, the error is active and none of its seeds (an
injected net, an overridden module's output) is observable at that cycle.
Every such cycle is replayed here on the interpretive
``ProcessorSimulator`` with the error planted, from the golden state at
that cycle: each STS, previewed, register-data and register-control net
must keep its golden value, since those are all the fork reads.
"""

import pytest

from repro.baselines.random_gen import RandomProgramConfig
from repro.datapath.faultsim import BatchFaultSimulator
from repro.errors.models import (
    enumerate_boe,
    enumerate_bus_ssl,
    enumerate_ctrl_ssl,
    enumerate_mse,
)
from repro.machines import MACHINES, machine_adapter
from repro.verify import cosim


def _replay(processor, error, cycle):
    """The datapath values of ``cycle``'s stimulus on the bad machine
    started from the golden state at that cycle."""
    injector, module_overrides = error.hooks(processor.datapath)
    sim = cosim.ProcessorSimulator(processor, injector=injector,
                                   module_overrides=module_overrides,
                                   compiled=False)
    for reg in processor.datapath.registers:
        sim.dp_sim.state[reg.name] = cycle.datapath[reg.output.net.name]
    sim.ctl_state = {q: cycle.controller[q] for q in sim.ctl_state}
    return sim.resolve(*cycle.stimulus)[1]


@pytest.mark.parametrize("which", MACHINES)
def test_masked_cycles_change_no_observed_net(which):
    machine = machine_adapter(which)
    processor = machine.build()
    netlist = processor.datapath
    errors = (enumerate_bus_ssl(netlist,
                                max_bits_per_net=machine.max_bits_per_net)
              + enumerate_mse(netlist) + enumerate_boe(netlist)
              + enumerate_ctrl_ssl(netlist))[::5]
    generator = machine.generator_cls(RandomProgramConfig(length=12, seed=1))
    observed = set(processor.controller.sts_signals)
    for reg in netlist.registers:
        observed.update(p.net.name
                        for p in reg.data_inputs + reg.control_inputs)
    skipped = 0
    for index in range(3):
        program = generator.program(index)
        regs = generator.initial_registers(index)
        env = machine.scalar_env(processor)
        env.run(program, regs)
        bench = env.testbench_for(program, regs)
        sim = BatchFaultSimulator(
            processor, env.trace,
            cosim.TestbenchJudge(processor, env.trace, bench),
        )
        index_of = sim.cd.index
        watched = observed | set(bench.PREVIEW_NETS)
        for error in errors:
            injector, module_overrides = error.hooks(netlist)
            seeds = set(getattr(injector, "sites", ())) | {
                netlist.module(name).output.net.name
                for name in module_overrides
            }
            mask = 0
            for name in seeds:
                mask |= sim.observable[index_of[name]]
            for t, cycle in enumerate(env.trace.cycles):
                if mask >> t & 1:
                    continue
                bad = _replay(processor, error, cycle)
                if bad == cycle.datapath:
                    continue  # the error is not active at t
                skipped += 1
                moved = [name for name in watched
                         if bad[name] != cycle.datapath[name]]
                assert not moved, (error.describe(), index, t, moved)
    if which != "mini":
        assert skipped  # the DLX's masks hide active cycles
