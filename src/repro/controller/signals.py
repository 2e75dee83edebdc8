"""Controller signals and their classification (Figure 1 of the paper).

The controller is modelled as a network of small logic nodes over named
*signals*.  A signal is either a single bit or a multi-valued *field* (e.g.
an opcode, a register specifier) with an explicit finite domain — this is the
high-level treatment of controller primary inputs that makes the pipeframe
search space small.

The letters follow the paper: C = controller, P = primary, S = secondary,
T = tertiary, I = input, O = output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SignalKind(enum.Enum):
    """Classification of a controller signal per the processor model."""

    CPI = "cpi"  # controller primary input (instruction fields, reset, ...)
    CPO = "cpo"  # controller primary output
    CSI = "csi"  # controller secondary input (CPR output)
    CSO = "cso"  # controller secondary output (CPR input)
    CTI = "cti"  # controller tertiary input (cross-stage: stall/squash/fwd)
    CTO = "cto"  # controller tertiary output
    CTRL = "ctrl"  # control signal to the datapath
    STS = "sts"  # status signal from the datapath
    INTERNAL = "internal"


@dataclass(frozen=True)
class Signal:
    """A named controller signal with a finite domain.

    ``domain`` is the tuple of values the signal may take; bits have domain
    ``(0, 1)``.  ``stage`` is the pipeline stage the signal belongs to
    (``None`` for stage-independent signals such as global primary inputs).
    """

    name: str
    domain: tuple[int, ...] = (0, 1)
    kind: SignalKind = SignalKind.INTERNAL
    stage: int | None = None

    def __post_init__(self) -> None:
        if len(self.domain) < 1:
            raise ValueError(f"signal {self.name} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"signal {self.name} has duplicate domain values")

    @property
    def domain_size(self) -> int:
        return len(self.domain)

    def validate_value(self, value: int) -> None:
        if value not in self.domain:
            raise ValueError(
                f"value {value} outside domain of signal {self.name}"
            )


def bit_signal(name: str, kind: SignalKind = SignalKind.INTERNAL,
               stage: int | None = None) -> Signal:
    """Convenience constructor for a single-bit signal."""
    return Signal(name, (0, 1), kind, stage)


def field_signal(
    name: str,
    domain: tuple[int, ...],
    kind: SignalKind = SignalKind.INTERNAL,
    stage: int | None = None,
) -> Signal:
    """Convenience constructor for a multi-valued field signal."""
    return Signal(name, tuple(domain), kind, stage)
