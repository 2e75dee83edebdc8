"""Synthetic design-error models (Section VI; error classes from [28]).

The primary model — the one Table 1 evaluates — is the **bus single-stuck-
line (bus SSL)** error [7]: one bit of one word-level bus permanently stuck
at 0 or 1.  It defines a number of error instances linear in circuit size.

As extensions we implement two more classes from the error-model study the
paper builds on (Van Campenhout et al. [28]):

* **module substitution error (MSE)** — a module computes a related but
  wrong function (e.g. an adder built as a subtractor);
* **bus order error (BOE)** — the two data inputs of a module are swapped.

Every error knows the simulator hooks that plant it (``hooks``: an injector
or a module override) and where its effect originates (``site_net``), which
is what DPTRACE needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dprelax import ActivationConstraint
from repro.datapath.module import ModuleClass
from repro.datapath.netlist import Netlist
from repro.datapath.simulate import (
    DatapathSimulator,
    Injector,
    ModuleOverride,
    no_injection,
)


class DesignError:
    """Base interface for a synthetic design error."""

    @property
    def site_net(self) -> str:
        """The net on which the erroneous value first appears."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def hooks(
        self, netlist: Netlist
    ) -> tuple[Injector, dict[str, ModuleOverride]]:
        """``(injector, module_overrides)`` planting this error in any
        simulator of ``netlist``; raises ``ValueError`` when the error does
        not fit the netlist."""
        raise NotImplementedError

    def attach(self, netlist: Netlist) -> DatapathSimulator:
        """An interpretive simulator of ``netlist`` with this error
        planted."""
        injector, module_overrides = self.hooks(netlist)
        return DatapathSimulator(
            netlist, injector=injector, module_overrides=module_overrides
        )

    def activation_constraint(self, frame: int) -> ActivationConstraint | None:
        """Bit constraint on the fault-free site value that activates the
        error, or ``None`` when activation is value-shape dependent."""
        return None


@dataclass(frozen=True)
class BusSSLError(DesignError):
    """Bit ``bit`` of net ``net`` stuck at ``stuck`` (0 or 1)."""

    net: str
    bit: int
    stuck: int

    def __post_init__(self) -> None:
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.stuck}")
        if self.bit < 0:
            raise ValueError(f"negative bit index {self.bit}")

    @property
    def site_net(self) -> str:
        return self.net

    def describe(self) -> str:
        return f"bus-ssl {self.net}[{self.bit}] stuck-at-{self.stuck}"

    def corrupt(self, value: int) -> int:
        if self.stuck == 1:
            return value | (1 << self.bit)
        return value & ~(1 << self.bit)

    def injector(self):
        def inject(net_name: str, value: int) -> int:
            if net_name == self.net:
                return self.corrupt(value)
            return value

        # Site annotation: compiled kernels hook only these nets, each with
        # its corrupter, instead of wrapping every net emission
        # (repro.datapath.compiled).
        inject.sites = {self.net: self.corrupt}
        return inject

    def hooks(self, netlist: Netlist):
        if self.net not in netlist.nets:
            raise ValueError(f"error net {self.net!r} not in netlist")
        if self.bit >= netlist.net(self.net).width:
            raise ValueError(
                f"bit {self.bit} outside width of net {self.net!r}"
            )
        return self.injector(), {}

    def activation_constraint(self, frame: int) -> ActivationConstraint:
        # The fault-free value must carry the opposite bit.
        mask = 1 << self.bit
        value = 0 if self.stuck == 1 else mask
        return ActivationConstraint(frame, self.net, mask, value)


#: MSE substitution table: module type name -> wrong evaluate lambda factory.
_MSE_SUBSTITUTIONS = {
    "AddModule": lambda m: lambda ins, ctl: (ins[0] - ins[1]) & ((1 << m.width) - 1),
    "SubModule": lambda m: lambda ins, ctl: (ins[0] + ins[1]) & ((1 << m.width) - 1),
    "AndModule": lambda m: lambda ins, ctl: ins[0] | ins[1],
    "OrModule": lambda m: lambda ins, ctl: ins[0] & ins[1],
    "XorModule": lambda m: lambda ins, ctl: (~(ins[0] ^ ins[1])) & ((1 << m.width) - 1),
    "XnorModule": lambda m: lambda ins, ctl: (ins[0] ^ ins[1]) & ((1 << m.width) - 1),
}


@dataclass(frozen=True)
class ModuleSubstitutionError(DesignError):
    """Module ``module`` computes its substituted (wrong) function."""

    module: str
    module_type: str

    @property
    def site_net(self) -> str:
        # Filled by enumerate_mse; hooks() resolves it from the netlist.
        raise AttributeError("use site_net_in(netlist)")

    def site_net_in(self, netlist: Netlist) -> str:
        return netlist.module(self.module).output.net.name

    def describe(self) -> str:
        return f"mse {self.module} ({self.module_type} substituted)"

    def hooks(self, netlist: Netlist):
        module = netlist.module(self.module)
        factory = _MSE_SUBSTITUTIONS.get(self.module_type)
        if factory is None:
            raise ValueError(f"no substitution for {self.module_type}")
        return no_injection, {self.module: factory(module)}


@dataclass(frozen=True)
class BusOrderError(DesignError):
    """The first two data inputs of ``module`` are swapped."""

    module: str

    def site_net_in(self, netlist: Netlist) -> str:
        return netlist.module(self.module).output.net.name

    @property
    def site_net(self) -> str:
        raise AttributeError("use site_net_in(netlist)")

    def describe(self) -> str:
        return f"boe {self.module} (inputs swapped)"

    def hooks(self, netlist: Netlist):
        module = netlist.module(self.module)
        if len(module.data_inputs) < 2:
            raise ValueError(f"{self.module} has fewer than two data inputs")

        def swapped(ins, ctl):
            reordered = [ins[1], ins[0], *ins[2:]]
            return module.evaluate(reordered, ctl)

        return no_injection, {self.module: swapped}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------
def enumerate_bus_ssl(
    netlist: Netlist,
    stages: set[int] | None = None,
    max_bits_per_net: int | None = None,
) -> list[BusSSLError]:
    """All bus SSL errors on module-driven nets, optionally stage-filtered.

    ``max_bits_per_net`` caps the bits considered per net (lowest bits plus
    the MSB), keeping campaign sizes manageable on wide buses while still
    covering both boundary bits; ``None`` enumerates every bit, exactly as
    the model defines.
    """
    errors: list[BusSSLError] = []
    for net in netlist.nets.values():
        if net.driver is None:
            continue  # external inputs are stimulus, not design structure
        if net.driver.module.module_class is ModuleClass.SOURCE:
            continue  # a stuck constant is not a wiring error
        if stages is not None and net.stage not in stages:
            continue
        bits = range(net.width)
        if max_bits_per_net is not None and net.width > max_bits_per_net:
            low = list(range(max_bits_per_net - 1))
            bits = low + [net.width - 1]
        for bit in bits:
            errors.append(BusSSLError(net.name, bit, 0))
            errors.append(BusSSLError(net.name, bit, 1))
    return errors


def enumerate_mse(
    netlist: Netlist, stages: set[int] | None = None
) -> list[ModuleSubstitutionError]:
    """All module substitution errors supported by the substitution table."""
    errors = []
    for module in netlist.combinational_modules:
        type_name = type(module).__name__
        if type_name not in _MSE_SUBSTITUTIONS:
            continue
        if stages is not None and module.stage not in stages:
            continue
        errors.append(ModuleSubstitutionError(module.name, type_name))
    return errors


def enumerate_boe(
    netlist: Netlist, stages: set[int] | None = None
) -> list[BusOrderError]:
    """Bus order errors on modules where input order matters."""
    errors = []
    symmetric = {"AddModule", "AndModule", "OrModule", "XorModule",
                 "XnorModule", "NandModule", "NorModule", "EqModule",
                 "NeModule"}
    for module in netlist.combinational_modules:
        if len(module.data_inputs) < 2:
            continue
        if type(module).__name__ in symmetric:
            continue  # swapping is unobservable on symmetric functions
        if stages is not None and module.stage not in stages:
            continue
        errors.append(BusOrderError(module.name))
    return errors


def enumerate_ctrl_ssl(
    netlist: Netlist, stages: set[int] | None = None
) -> list[BusSSLError]:
    """Bus SSL errors on the CONTROL nets entering the datapath.

    These model wiring defects on the controller-to-datapath interface
    (a stuck mux select, a stuck write-enable).  They are outside the
    paper's datapath-error scope — DPTRACE treats CTRL values as given —
    but fully simulatable: the co-simulators inject on CTRL nets like on
    any other, so random/regression campaigns can measure them (see
    ``benchmarks/test_bench_control_errors.py``).
    """
    from repro.datapath.net import NetRole

    errors: list[BusSSLError] = []
    for net in netlist.nets.values():
        if net.role is not NetRole.CTRL:
            continue
        if stages is not None and net.stage not in stages:
            continue
        for bit in range(net.width):
            errors.append(BusSSLError(net.name, bit, 0))
            errors.append(BusSSLError(net.name, bit, 1))
    return errors
