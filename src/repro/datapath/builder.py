"""Fluent construction API for word-level datapath netlists.

The paper's prototype reads structural Verilog; this builder plays the role
of that front-end (see DESIGN.md, substitutions).  Each helper instantiates a
library module, wires its inputs to existing nets and returns the output net,
so a datapath reads like straight-line RTL:

    b = DatapathBuilder("alu")
    a = b.input("a", 32)
    c = b.input("b", 32)
    s = b.ctrl("alusrc", 1)
    y = b.mux("opb", s, c, b.const("four", 32, 4))
    b.output("sum", b.add("sum_add", a, y))
"""

from __future__ import annotations

from repro.datapath.module import Module
from repro.datapath.modules import (
    AddModule,
    AndModule,
    ConstantModule,
    EqModule,
    GeModule,
    GtModule,
    LeModule,
    LtModule,
    MuxModule,
    NeModule,
    NotModule,
    OrModule,
    RegisterModule,
    ShlModule,
    ShrModule,
    SignExtendModule,
    SliceModule,
    SraModule,
    SubModule,
    XorModule,
    ZeroExtendModule,
)
from repro.datapath.net import Net, NetRole
from repro.datapath.netlist import Netlist


class DatapathBuilder:
    """Builds a :class:`Netlist` with automatically named output nets."""

    def __init__(self, name: str) -> None:
        self.netlist = Netlist(name)
        self._stage: int | None = None

    # ------------------------------------------------------------------
    # Stage context
    # ------------------------------------------------------------------
    def set_stage(self, stage: int | None) -> None:
        """Subsequent modules/nets are tagged with this pipeline stage."""
        self._stage = stage

    # ------------------------------------------------------------------
    # External nets
    # ------------------------------------------------------------------
    def input(self, name: str, width: int) -> Net:
        """A data primary input (DPI) net."""
        return self.netlist.add_net(name, width, NetRole.DPI, stage=self._stage)

    def tertiary_input(self, name: str, width: int) -> Net:
        """A data tertiary input (DTI) net, e.g. the far end of a bypass."""
        return self.netlist.add_net(name, width, NetRole.DTI, stage=self._stage)

    def ctrl(self, name: str, width: int) -> Net:
        """A control (CTRL) net driven by the controller."""
        return self.netlist.add_net(name, width, NetRole.CTRL, stage=self._stage)

    def output(self, name: str, source: Net) -> Net:
        """Mark ``source`` as a data primary output and rename it."""
        return self._mark(source, NetRole.DPO, name)

    def tertiary_output(self, name: str, source: Net) -> Net:
        return self._mark(source, NetRole.DTO, name)

    def status(self, name: str, source: Net) -> Net:
        """Mark ``source`` as a status (STS) net feeding the controller."""
        return self._mark(source, NetRole.STS, name)

    def rename(self, net: Net, name: str) -> Net:
        """Give ``net`` a meaningful name (replacing the auto-generated one)."""
        if name != net.name:
            if name in self.netlist.nets:
                raise ValueError(f"net name {name!r} already in use")
            del self.netlist.nets[net.name]
            net.name = name
            self.netlist.nets[name] = net
        return net

    def _mark(self, net: Net, role: NetRole, name: str) -> Net:
        if net.role is not NetRole.INTERNAL:
            raise ValueError(
                f"net {net.name} already classified as {net.role.value}"
            )
        net.role = role
        return self.rename(net, name)

    # ------------------------------------------------------------------
    # Module instantiation core
    # ------------------------------------------------------------------
    def _wire(self, module: Module, data: list[Net], controls: list[Net]) -> Net:
        self.netlist.add_module(module)
        module.stage = self._stage
        if len(data) != len(module.data_inputs):
            raise ValueError(
                f"{module.name}: expected {len(module.data_inputs)} data inputs, "
                f"got {len(data)}"
            )
        if len(controls) != len(module.control_inputs):
            raise ValueError(
                f"{module.name}: expected {len(module.control_inputs)} control "
                f"inputs, got {len(controls)}"
            )
        for net, port in zip(data, module.data_inputs):
            self.netlist.connect(net, port)
        for net, port in zip(controls, module.control_inputs):
            self.netlist.connect(net, port)
        out = self.netlist.add_net(
            f"{module.name}.y", module.output.width, stage=self._stage
        )
        self.netlist.connect(out, module.output)
        return out

    # ------------------------------------------------------------------
    # ADD-class modules
    # ------------------------------------------------------------------
    def add(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(AddModule(name, a.width), [a, b], [])

    def sub(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(SubModule(name, a.width), [a, b], [])

    def xor(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(XorModule(name, a.width), [a, b], [])

    def not_(self, name: str, a: Net) -> Net:
        return self._wire(NotModule(name, a.width), [a], [])

    def sign_extend(self, name: str, a: Net, out_width: int) -> Net:
        return self._wire(SignExtendModule(name, a.width, out_width), [a], [])

    def zero_extend(self, name: str, a: Net, out_width: int) -> Net:
        return self._wire(ZeroExtendModule(name, a.width, out_width), [a], [])

    def slice(self, name: str, a: Net, lo: int, width: int) -> Net:
        return self._wire(SliceModule(name, a.width, lo, width), [a], [])

    def eq(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(EqModule(name, a.width), [a, b], [])

    def ne(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(NeModule(name, a.width), [a, b], [])

    def lt(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(LtModule(name, a.width), [a, b], [])

    def le(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(LeModule(name, a.width), [a, b], [])

    def gt(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(GtModule(name, a.width), [a, b], [])

    def ge(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(GeModule(name, a.width), [a, b], [])

    # ------------------------------------------------------------------
    # AND-class modules
    # ------------------------------------------------------------------
    def and_(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(AndModule(name, a.width), [a, b], [])

    def or_(self, name: str, a: Net, b: Net) -> Net:
        return self._wire(OrModule(name, a.width), [a, b], [])

    def mult(self, name: str, a: Net, b: Net) -> Net:
        from repro.datapath.modules import MultModule

        return self._wire(MultModule(name, a.width), [a, b], [])

    def shl(self, name: str, a: Net, amount: Net) -> Net:
        return self._wire(ShlModule(name, a.width, amount.width), [a, amount], [])

    def shr(self, name: str, a: Net, amount: Net) -> Net:
        return self._wire(ShrModule(name, a.width, amount.width), [a, amount], [])

    def sra(self, name: str, a: Net, amount: Net) -> Net:
        return self._wire(SraModule(name, a.width, amount.width), [a, amount], [])

    # ------------------------------------------------------------------
    # MUX-class modules
    # ------------------------------------------------------------------
    def mux(self, name: str, select: Net, *data: Net) -> Net:
        module = MuxModule(name, data[0].width, len(data))
        return self._wire(module, list(data), [select])

    # ------------------------------------------------------------------
    # Structural modules
    # ------------------------------------------------------------------
    def const(self, name: str, width: int, value: int) -> Net:
        return self._wire(ConstantModule(name, width, value), [], [])

    def register(
        self,
        name: str,
        d: Net,
        reset_value: int = 0,
        enable: Net | None = None,
        clear: Net | None = None,
        clear_value: int = 0,
    ) -> Net:
        """Instantiate a pipe register; returns its Q output net."""
        module = RegisterModule(
            name,
            d.width,
            reset_value=reset_value,
            has_enable=enable is not None,
            has_clear=clear is not None,
            clear_value=clear_value,
        )
        controls = [n for n in (enable, clear) if n is not None]
        return self._wire(module, [d], controls)

    def placeholder_register(
        self,
        name: str,
        width: int,
        reset_value: int = 0,
        enable: Net | None = None,
        clear: Net | None = None,
        clear_value: int = 0,
    ) -> Net:
        """Create a register whose D input is wired later.

        Needed for feedback structures (bypass buses, the PC loop) where the
        register's output is consumed by logic that ultimately produces its
        input.  Returns the Q net; call :meth:`connect_register` with the D
        net once it exists.
        """
        module = RegisterModule(
            name,
            width,
            reset_value=reset_value,
            has_enable=enable is not None,
            has_clear=clear is not None,
            clear_value=clear_value,
        )
        self.netlist.add_module(module)
        module.stage = self._stage
        for net, port in zip(
            [n for n in (enable, clear) if n is not None],
            module.control_inputs,
        ):
            self.netlist.connect(net, port)
        out = self.netlist.add_net(f"{name}.y", width, stage=self._stage)
        self.netlist.connect(out, module.output)
        return out

    def connect_register(self, name: str, d: Net) -> None:
        """Wire the D input of a placeholder register."""
        module = self.netlist.module(name)
        if not isinstance(module, RegisterModule):
            raise ValueError(f"{name!r} is not a register")
        port = module.data_inputs[0]
        if port.net is not None:
            raise ValueError(f"register {name!r} already connected")
        self.netlist.connect(d, port)

    def build(self) -> Netlist:
        """Validate and return the netlist."""
        self.netlist.validate()
        return self.netlist
