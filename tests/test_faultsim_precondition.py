"""The cone fork's and the warm start's preconditions, on every machine
in the table.

``repro.datapath.faultsim`` hands a fork's STS and previewed values to
the testbench judge as the values the bad machine's testbench previews.
The preview runs without controller or data primary inputs (and, under
``SHALLOW_PREVIEW``, without status feedback), while the fork's values
are the stepped ones; the two agree only when none of those inputs can
reach an STS or previewed net, nor a controller signal the testbench
reads (its ``CONTROL_READS``).  A machine that breaks this must fail
here, not silently in the fork.

A step starts its fixpoint from the STS values of its preview
(``repro.verify.cosim``).  That is exact when no STS net reads itself
through the controller, so that the status feedback has one fixpoint.
"""

import pytest

from repro.datapath.net import NetRole
from repro.machines import MACHINES, machine_adapter


def _datapath_fan_in(netlist, names):
    """The nets the combinational logic driving ``names`` reads, up to
    register outputs and external inputs, ``names`` included."""
    registers = {reg.name for reg in netlist.registers}
    seen: set[str] = set()
    stack = list(names)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        driver = netlist.nets[name].driver
        if driver is None or driver.module.name in registers:
            continue
        module = driver.module
        for port in module.data_inputs + module.control_inputs:
            stack.append(port.net.name)
    return seen


def _controller_fan_in(network, names):
    """The signals the controller logic driving ``names`` reads, up to
    its external signals (CPI, STS and CPR outputs), ``names`` included."""
    seen: set[str] = set()
    stack = list(names)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        node = network.drivers.get(name)
        if node is not None:
            stack.extend(node.inputs)
    return seen


@pytest.mark.parametrize("which", MACHINES)
def test_previewed_and_status_nets_read_no_primary_input(which):
    machine = machine_adapter(which)
    processor = machine.build()
    netlist, controller = processor.datapath, processor.controller
    bench = machine.scalar_env(processor).testbench_for([])
    previewed = set(bench.PREVIEW_NETS)

    # Every DPO net is previewed, so the judge sees every pin.
    assert {net.name for net in netlist.dpo_nets} <= previewed

    fan_in = _datapath_fan_in(netlist, previewed | set(controller.sts_signals))
    roles = {name: netlist.nets[name].role for name in fan_in}
    assert not [name for name, role in roles.items() if role is NetRole.DPI]

    ctrls = [name for name, role in roles.items() if role is NetRole.CTRL]
    assert ctrls
    unseen = set(controller.cpi_signals)
    if bench.SHALLOW_PREVIEW:
        unseen |= set(controller.sts_signals)
    assert not _controller_fan_in(controller.network, ctrls) & unseen

    # The controller signals the testbench reads from the preview are
    # the step's too.
    reads = bench.CONTROL_READS
    assert reads and set(reads) <= set(controller.network.signals)
    assert not _controller_fan_in(controller.network, reads) & unseen


@pytest.mark.parametrize("which", MACHINES)
def test_status_feedback_is_acyclic(which):
    processor = machine_adapter(which).build()
    netlist, controller = processor.datapath, processor.controller
    sts = set(controller.sts_signals)
    # STS net -> the STS values its datapath fan-in reads through a CTRL.
    reads = {}
    for name in sts:
        fan_in = _datapath_fan_in(netlist, [name])
        ctrls = [n for n in fan_in if netlist.nets[n].role is NetRole.CTRL]
        reads[name] = _controller_fan_in(controller.network, ctrls) & sts

    done: set[str] = set()

    def visit(name, path):
        assert name not in path, f"status feedback loop {path + [name]}"
        if name not in done:
            for read in reads[name]:
                visit(read, path + [name])
            done.add(name)

    for name in sorted(sts):
        visit(name, [])
