"""Word-level netlist container and structural queries."""

from __future__ import annotations

from repro.datapath.module import Module, ModuleClass
from repro.datapath.modules import RegisterModule
from repro.datapath.net import Net, NetRole, Port, PortDirection


class NetlistError(Exception):
    """Raised for structural problems in a netlist."""


class Netlist:
    """A word-level datapath netlist.

    Holds modules and nets, enforces structural invariants (unique names,
    width agreement, single driver per net) and provides the queries the
    test-generation engines need: topological order of the combinational
    modules, fanout stems, external-input / output / control / status nets,
    and per-stage filtering.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.modules: dict[str, Module] = {}
        self.nets: dict[str, Net] = {}
        self._topo_cache: list[Module] | None = None
        self._compiled_cache = None
        self._registers_cache: tuple[RegisterModule, ...] | None = None
        self._external_cache: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Drop every structure derived from the modules and nets."""
        self._topo_cache = None
        self._compiled_cache = None
        self._registers_cache = None
        self._external_cache = None

    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise NetlistError(f"duplicate module name {module.name!r}")
        self.modules[module.name] = module
        self._invalidate()
        return module

    def add_net(
        self,
        name: str,
        width: int,
        role: NetRole = NetRole.INTERNAL,
        stage: int | None = None,
    ) -> Net:
        if name in self.nets:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name, width, role=role, stage=stage)
        self.nets[name] = net
        self._invalidate()
        return net

    def connect(self, net: Net, port: Port) -> None:
        """Attach ``port`` to ``net`` (as driver for outputs, sink for inputs)."""
        if port.width != net.width:
            raise NetlistError(
                f"width mismatch: net {net.name} is {net.width} bits, "
                f"port {port.full_name} is {port.width} bits"
            )
        if port.direction is PortDirection.OUT:
            if net.driver is not None:
                raise NetlistError(
                    f"net {net.name} already driven by {net.driver.full_name}"
                )
            net.driver = port
        else:
            net.sinks.append(port)
        port.net = net
        self._invalidate()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def module(self, name: str) -> Module:
        try:
            return self.modules[name]
        except KeyError:
            raise NetlistError(f"no module named {name!r}") from None

    def nets_with_role(self, role: NetRole) -> list[Net]:
        return [n for n in self.nets.values() if n.role is role]

    @property
    def dpi_nets(self) -> list[Net]:
        return self.nets_with_role(NetRole.DPI)

    @property
    def dpo_nets(self) -> list[Net]:
        return self.nets_with_role(NetRole.DPO)

    @property
    def dti_nets(self) -> list[Net]:
        return self.nets_with_role(NetRole.DTI)

    @property
    def dto_nets(self) -> list[Net]:
        return self.nets_with_role(NetRole.DTO)

    @property
    def ctrl_nets(self) -> list[Net]:
        return self.nets_with_role(NetRole.CTRL)

    @property
    def sts_nets(self) -> list[Net]:
        return self.nets_with_role(NetRole.STS)

    @property
    def registers(self) -> tuple[RegisterModule, ...]:
        """The pipe registers, in module order (computed once until the
        next structural edit)."""
        if self._registers_cache is None:
            self._registers_cache = tuple(
                m for m in self.modules.values()
                if isinstance(m, RegisterModule)
            )
        return self._registers_cache

    @property
    def external_input_names(self) -> tuple[str, ...]:
        """Names of the nets the environment drives (no module driver),
        in net order (computed once until the next structural edit)."""
        if self._external_cache is None:
            self._external_cache = tuple(
                net.name for net in self.nets.values()
                if net.is_external_input
            )
        return self._external_cache

    @property
    def combinational_modules(self) -> list[Module]:
        return [
            m
            for m in self.modules.values()
            if m.module_class not in (ModuleClass.STATE, ModuleClass.SOURCE)
        ]

    def fanout_stems(self) -> list[Net]:
        """Nets with more than one sink (candidates for FO decision variables)."""
        return [n for n in self.nets.values() if n.has_fanout]

    def nets_in_stages(self, stages: set[int]) -> list[Net]:
        return [n for n in self.nets.values() if n.stage in stages]

    def state_bits(self) -> int:
        """Total bits of pipe-register state (the paper's 'datapath state bits')."""
        return sum(r.width for r in self.registers)

    # ------------------------------------------------------------------
    # Validation and ordering
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise NetlistError on violation."""
        for net in self.nets.values():
            if net.driver is None and net.role in (
                NetRole.INTERNAL,
                NetRole.DPO,
                NetRole.DSO,
                NetRole.DTO,
                NetRole.STS,
            ):
                raise NetlistError(f"net {net.name} ({net.role.value}) has no driver")
            if net.driver is not None and net.role in (NetRole.DPI, NetRole.CTRL):
                raise NetlistError(
                    f"net {net.name} is {net.role.value} but driven by "
                    f"{net.driver.full_name}"
                )
        for module in self.modules.values():
            for port in module.all_inputs + module.outputs:
                if port.net is None:
                    raise NetlistError(f"unconnected port {port.full_name}")
        self.topological_order()  # raises on combinational cycles

    def topological_order(self) -> list[Module]:
        """Combinational modules in evaluation order (Kahn's algorithm).

        Register outputs, constants and external input nets are sources.
        Raises NetlistError if the combinational logic contains a cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        combinational = self.combinational_modules
        pending: dict[str, int] = {}
        consumers: dict[str, list[Module]] = {}
        for module in combinational:
            count = 0
            for port in module.all_inputs:
                net = port.net
                if net is None:
                    continue
                driver = net.driver
                if driver is not None and driver.module.module_class not in (
                    ModuleClass.STATE,
                    ModuleClass.SOURCE,
                ):
                    count += 1
                    consumers.setdefault(net.name, []).append(module)
            pending[module.name] = count
        ready = sorted(
            (m for m in combinational if pending[m.name] == 0), key=lambda m: m.name
        )
        order: list[Module] = []
        while ready:
            module = ready.pop(0)
            order.append(module)
            for out in module.outputs:
                if out.net is None:
                    continue
                for consumer in consumers.get(out.net.name, []):
                    pending[consumer.name] -= 1
                    if pending[consumer.name] == 0:
                        ready.append(consumer)
        if len(order) != len(combinational):
            stuck = sorted(name for name, n in pending.items() if n > 0)
            raise NetlistError(f"combinational cycle through modules: {stuck}")
        self._topo_cache = order
        return order

    def compiled(self):
        """The codegen'd kernel form of this netlist (cached; see
        :mod:`repro.datapath.compiled`).  Invalidated, like the topological
        order, by any structural edit."""
        if self._compiled_cache is None:
            from repro.datapath.compiled import CompiledDatapath

            self._compiled_cache = CompiledDatapath(self)
        return self._compiled_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name}, {len(self.modules)} modules, "
            f"{len(self.nets)} nets)"
        )
