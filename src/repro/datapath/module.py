"""Base class and classification for word-level datapath modules.

Section V.A of the paper classifies combinational datapath modules into three
categories that determine how controllability and observability propagate:

* **ADD class** — one data output; the output can be justified to an
  arbitrary value by controlling a *single* input (the others may float), and
  an observable output makes *every* input observable.  Members: adder,
  subtractor, X(N)OR word gates, and the predicate modules (=, !=, <, <=, >,
  >=, ADDOVF, SUBOVF).
* **AND class** — one data output; justifying the output requires controlling
  *all* inputs, and observing an input requires an observable output plus
  controlled side inputs.  Members: (N)AND, (N)OR word gates, shifters.
* **MUX class** — data inputs, control inputs, one data output; the control
  inputs select which data input is connected.  Members: multiplexers,
  tri-state buffers.

State elements (pipe registers) and sources (constants) get their own
structural classes; they delimit pipeframes rather than participate in the
combinational propagation tables.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.datapath.net import Port, PortDirection, PortKind


class ModuleClass(enum.Enum):
    """Path-selection class of a module (Section V.A)."""

    ADD = "add"
    AND = "and"
    MUX = "mux"
    STATE = "state"  # pipe registers: stage boundaries, not combinational
    SOURCE = "source"  # constants: always controlled


class Module:
    """A word-level datapath module.

    Concrete modules implement :meth:`evaluate` (forward function) and
    :meth:`solve_input` (partial inverse used by discrete relaxation).
    """

    module_class: ModuleClass = ModuleClass.ADD

    def __init__(self, name: str) -> None:
        self.name = name
        self.data_inputs: list[Port] = []
        self.control_inputs: list[Port] = []
        self.outputs: list[Port] = []
        self.stage: int | None = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def add_data_input(self, name: str, width: int) -> Port:
        port = Port(self, name, PortDirection.IN, width, PortKind.DATA)
        self.data_inputs.append(port)
        return port

    def add_control_input(self, name: str, width: int) -> Port:
        port = Port(self, name, PortDirection.IN, width, PortKind.CONTROL)
        self.control_inputs.append(port)
        return port

    def add_output(self, name: str, width: int) -> Port:
        port = Port(self, name, PortDirection.OUT, width, PortKind.DATA)
        self.outputs.append(port)
        return port

    @property
    def output(self) -> Port:
        """The single data output (all library modules have exactly one)."""
        if len(self.outputs) != 1:
            raise ValueError(f"{self.name} has {len(self.outputs)} outputs")
        return self.outputs[0]

    @property
    def all_inputs(self) -> list[Port]:
        return self.data_inputs + self.control_inputs

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Sequence[int], controls: Sequence[int]) -> int:
        """Forward function: output word given data input and control words."""
        raise NotImplementedError

    def needed_inputs(self, controls: Sequence[int]) -> list[int]:
        """Indices of data inputs that influence the output.

        MUX-class modules override this: with the select known, only the
        selected input matters, so value solvers need not wait for (or
        constrain) the deselected inputs.
        """
        return list(range(len(self.data_inputs)))

    def solve_input(
        self,
        index: int,
        target: int,
        inputs: Sequence[int | None],
        controls: Sequence[int],
    ) -> int | None:
        """Partial inverse used by DPRELAX.

        Return a value for data input ``index`` such that
        ``evaluate(...) == target`` with the remaining inputs held at the
        given values, or ``None`` when no such value exists (or the module
        does not support back-solving through that input).  Entries of
        ``inputs`` other than ``index`` must be concrete.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"
