"""Nets and ports of the word-level datapath netlist.

The datapath is represented at the word level (Section III of the paper): a
net carries a multi-bit word, modules are high-level operators.  Every port
is a terminal of exactly one net.  Nets with several sinks are *fanout stems*;
each (net, sink) pair is a *fanout branch*.  Path selection (DPTRACE) makes
decisions on which branch may use the stem for justification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.datapath.module import Module


class PortDirection(enum.Enum):
    """Direction of a module port."""

    IN = "in"
    OUT = "out"


class PortKind(enum.Enum):
    """Functional kind of a module port.

    DATA ports carry datapath words; CONTROL ports are the select/enable
    inputs of MUX-class modules and are driven by CTRL nets from the
    controller.
    """

    DATA = "data"
    CONTROL = "control"


class NetRole(enum.Enum):
    """Classification of a net per the processor model of Figure 1.

    The letters follow the paper: D = datapath, P = primary, S = secondary,
    T = tertiary, I = input, O = output.  CTRL nets are control signals
    entering the datapath from the controller; STS nets are status signals
    produced by the datapath for the controller.
    """

    INTERNAL = "internal"
    DPI = "dpi"  # data primary input (from environment)
    DPO = "dpo"  # data primary output (to environment)
    DSI = "dsi"  # data secondary input (from this stage's pipe register)
    DSO = "dso"  # data secondary output (to this stage's pipe register)
    DTI = "dti"  # data tertiary input (from another pipe stage, e.g. bypass)
    DTO = "dto"  # data tertiary output (to another pipe stage)
    CTRL = "ctrl"  # control signal from the controller
    STS = "sts"  # status signal to the controller


@dataclass(eq=False)
class Port:
    """A terminal of a module, attached to exactly one net."""

    module: "Module"
    name: str
    direction: PortDirection
    width: int
    kind: PortKind = PortKind.DATA
    net: "Net | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.module.name}.{self.name}, {self.direction.value}, w={self.width})"

    @property
    def full_name(self) -> str:
        return f"{self.module.name}.{self.name}"


@dataclass(eq=False)
class Net:
    """A named word-level net.

    ``driver`` is the module output port that drives the net, or ``None`` for
    external input nets (DPI / DTI / CTRL).  ``sinks`` are the module input
    ports fed by the net.  ``stage`` is the pipeline stage the net belongs to
    (``None`` when the netlist is not pipelined).
    """

    name: str
    width: int
    role: NetRole = NetRole.INTERNAL
    driver: Port | None = None
    sinks: list[Port] = field(default_factory=list)
    stage: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name}, w={self.width}, {self.role.value})"

    @property
    def is_external_input(self) -> bool:
        """True when the net is driven by the environment, not by a module."""
        return self.driver is None

    @property
    def has_fanout(self) -> bool:
        return len(self.sinks) > 1
