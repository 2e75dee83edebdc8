"""Pipelined controller: network + control pipe registers + unrolling.

A :class:`PipelinedController` is the controller half of the processor model
of Figure 1: a combinational :class:`ControlNetwork` whose signals are
classified CPI / CSI / CTI / CTRL / STS / CPO, plus the control pipe
registers (CPRs).  The CPRs may have *enable* (stall) and *clear* (squash)
inputs, which are themselves controller signals — typically the tertiary
ones.

``unroll(T)`` produces the iterative-array view of Figure 2: a flat
combinational network over signal instances ``"t:name"`` in which every CPR
becomes a :class:`CprNode` linking timeframe t-1 to t and timeframe 0 reads
the reset state.  CTRLJUST searches this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.controller.network import ControlNetwork, ControlNetworkError
from repro.controller.nodes import ConstNode, ControlNode
from repro.controller.signals import Signal, SignalKind


@dataclass(frozen=True)
class PipeRegister:
    """A control pipe register (CPR).

    ``q`` (the CSI signal it outputs) and ``d`` (the CSO signal it samples)
    are names of signals in the controller network.  ``enable`` low holds the
    register (stall); ``clear`` high loads ``clear_value`` (squash); clear
    dominates enable.
    """

    q: str
    d: str
    stage: int
    reset: int = 0
    enable: str | None = None
    clear: str | None = None
    clear_value: int = 0

    def x_input_error(self) -> ControlNetworkError:
        """The error of loading this register from an X D input."""
        return ControlNetworkError(
            f"CPR {self.q!r}: D input {self.d!r} is X during concrete "
            "simulation (missing external input?)"
        )


class CprNode(ControlNode):
    """Three-valued clock-edge semantics of a CPR in the unrolled array.

    Inputs, in order: d(t-1), then q(t-1) if the register has an enable,
    then enable(t-1) if present, then clear(t-1) if present.
    """

    def __init__(
        self,
        d: str,
        q_prev: str | None,
        enable: str | None,
        clear: str | None,
        clear_value: int,
    ) -> None:
        inputs = [d]
        self._q_index = None
        self._en_index = None
        self._clr_index = None
        if enable is not None:
            if q_prev is None:
                raise ValueError("enable requires the previous-q input")
            self._q_index = len(inputs)
            inputs.append(q_prev)
            self._en_index = len(inputs)
            inputs.append(enable)
        if clear is not None:
            self._clr_index = len(inputs)
            inputs.append(clear)
        super().__init__(inputs)
        self.clear_value = clear_value

    def _without_clear(self, values) -> int | None:
        d = values[0]
        if self._en_index is None:
            return d
        q_prev = values[self._q_index]
        en = values[self._en_index]
        if en == 1:
            return d
        if en == 0:
            return q_prev
        if d is not None and d == q_prev:
            return d
        return None

    def eval3(self, values):
        if self._clr_index is not None:
            clr = values[self._clr_index]
            if clr == 1:
                return self.clear_value
            if clr is None:
                result = self._without_clear(values)
                return result if result == self.clear_value else None
        return self._without_clear(values)

    def backtrace_options(self, target, values, domains):
        options: list[tuple[int, int]] = []
        clr = values[self._clr_index] if self._clr_index is not None else 0
        if self._clr_index is not None and clr is None:
            if target == self.clear_value:
                options.append((self._clr_index, 1))
            options.append((self._clr_index, 0))
        if clr in (0, None):
            en = values[self._en_index] if self._en_index is not None else 1
            if self._en_index is not None and en is None:
                options.append((self._en_index, 1))
                options.append((self._en_index, 0))
            if en in (1, None) and values[0] is None and target in domains[0]:
                options.append((0, target))
            if (
                en in (0, None)
                and self._q_index is not None
                and values[self._q_index] is None
                and target in domains[self._q_index]
            ):
                options.append((self._q_index, target))
        return options


class PipelinedController:
    """The controller half of the pipelined processor model."""

    def __init__(self, name: str, n_stages: int) -> None:
        self.name = name
        self.n_stages = n_stages
        self.network = ControlNetwork(name)
        self.cprs: list[PipeRegister] = []
        self._clock_edges: dict[PipeRegister, CprNode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_signal(self, signal: Signal) -> Signal:
        return self.network.add_signal(signal)

    def drive(self, name: str, node: ControlNode) -> None:
        self.network.drive(name, node)

    def add_cpr(self, cpr: PipeRegister) -> PipeRegister:
        q_signal = self.network.signal(cpr.q)
        self.network.signal(cpr.d)
        if q_signal.kind is not SignalKind.CSI:
            raise ControlNetworkError(
                f"CPR output {cpr.q!r} must be a CSI signal"
            )
        if cpr.q in self.network.drivers:
            raise ControlNetworkError(f"CPR output {cpr.q!r} already driven")
        q_signal.validate_value(cpr.reset)
        if cpr.clear is not None:
            q_signal.validate_value(cpr.clear_value)
        self.cprs.append(cpr)
        return cpr

    def validate(self) -> None:
        """Check the controller is well-formed."""
        cpr_outputs = {c.q for c in self.cprs}
        for name in self.network.external_signals():
            kind = self.network.signal(name).kind
            if name in cpr_outputs:
                continue
            if kind not in (SignalKind.CPI, SignalKind.STS):
                raise ControlNetworkError(
                    f"external signal {name!r} has kind {kind.value}; only "
                    "CPI and STS signals may be undriven"
                )
        self.network.topological_order()

    # ------------------------------------------------------------------
    # Classification and statistics
    # ------------------------------------------------------------------
    @property
    def cpi_signals(self) -> tuple[str, ...]:
        return self.network.signals_of_kind(SignalKind.CPI)

    @property
    def cti_signals(self) -> tuple[str, ...]:
        return self.network.signals_of_kind(SignalKind.CTI)

    @property
    def sts_signals(self) -> tuple[str, ...]:
        return self.network.signals_of_kind(SignalKind.STS)

    @property
    def ctrl_signals(self) -> tuple[str, ...]:
        return self.network.signals_of_kind(SignalKind.CTRL)

    @property
    def csi_signals(self) -> list[str]:
        return [c.q for c in self.cprs]

    def _signal_bits(self, name: str) -> int:
        return max(1, (self.network.signal(name).domain_size - 1).bit_length())

    def state_bits(self) -> int:
        """Total controller state bits (the paper's '96 bits of state')."""
        return sum(self._signal_bits(c.q) for c in self.cprs)

    def tertiary_bits(self) -> int:
        """Total bits of tertiary signals (the paper's '43')."""
        return sum(self._signal_bits(s) for s in self.cti_signals)

    def search_space_stats(self) -> dict[str, int]:
        """Decision-variable accounting of Section IV.

        ``n1`` = CPI bits, ``pn2`` = total CSI bits, ``pn3`` = total CTI
        bits.  The timeframe organization decides on ``n1 + pn2`` bits per
        frame and must justify ``pn2``; the pipeframe organization decides on
        ``n1 + pn3`` and must justify ``pn3``.
        """
        n1 = sum(self._signal_bits(s) for s in self.cpi_signals)
        pn2 = self.state_bits()
        pn3 = self.tertiary_bits()
        return {
            "cpi_bits": n1,
            "csi_bits": pn2,
            "cti_bits": pn3,
            "timeframe_decision_bits": n1 + pn2,
            "timeframe_justify_bits": pn2,
            "pipeframe_decision_bits": n1 + pn3,
            "pipeframe_justify_bits": pn3,
        }

    # ------------------------------------------------------------------
    # Concrete simulation
    # ------------------------------------------------------------------
    def reset_state(self) -> dict[str, int]:
        return {c.q: c.reset for c in self.cprs}

    def simulate_cycle(
        self, state: dict[str, int], inputs: dict[str, int]
    ) -> tuple[dict[str, int | None], dict[str, int]]:
        """Evaluate one cycle; returns (all signal values, next state)."""
        assignment: dict[str, int | None] = dict(inputs)
        assignment.update(state)
        values = self.network.evaluate(assignment)
        return values, self.next_state(state, values)

    def next_state(
        self, state: Mapping[str, int], values: Mapping[str, int | None]
    ) -> dict[str, int]:
        """The CPR contents after the clock edge of a cycle whose signal
        values (``evaluate`` over ``state`` plus the inputs) are
        ``values``; raises :class:`ControlNetworkError` when a loading
        register's D input is X."""
        next_state: dict[str, int] = {}
        for cpr in self.cprs:
            current = state[cpr.q]
            cleared = cpr.clear is not None and values[cpr.clear] == 1
            stalled = cpr.enable is not None and values[cpr.enable] == 0
            if cleared:
                next_state[cpr.q] = cpr.clear_value
            elif stalled:
                next_state[cpr.q] = current
            else:
                d_value = values[cpr.d]
                if d_value is None:
                    raise cpr.x_input_error()
                next_state[cpr.q] = d_value
        return next_state

    # ------------------------------------------------------------------
    # Unrolling (Figure 2)
    # ------------------------------------------------------------------
    def unroll(self, n_frames: int) -> "UnrolledController":
        return UnrolledController(self, n_frames)

    def clock_edge(self, cpr: PipeRegister) -> CprNode:
        """``cpr``'s clock edge as a :class:`CprNode` over this cycle's
        signals, built once: unrolling clones it into every frame, so all
        frames of all windows share its compiled tables."""
        node = self._clock_edges.get(cpr)
        if node is None:
            node = self._clock_edges[cpr] = CprNode(
                d=cpr.d,
                q_prev=cpr.q if cpr.enable is not None else None,
                enable=cpr.enable,
                clear=cpr.clear,
                clear_value=cpr.clear_value,
            )
        return node


def instance_name(frame: int, signal: str) -> str:
    """Name of a signal instance in the unrolled array."""
    return f"{frame}:{signal}"


class UnrolledController:
    """The iterative-array view of a pipelined controller over T timeframes.

    Every controller signal ``s`` appears as instances ``"0:s" .. "T-1:s"``.
    CPR outputs at frame 0 are constants (the reset state); at frame t > 0
    they are :class:`CprNode` functions of frame t-1.  All other nodes are
    copied per frame.  The result is one flat combinational
    :class:`ControlNetwork` suitable for PODEM-style search.
    """

    def __init__(self, controller: PipelinedController, n_frames: int) -> None:
        if n_frames < 1:
            raise ValueError("need at least one timeframe")
        self.controller = controller
        self.n_frames = n_frames
        self.network = ControlNetwork(f"{controller.name}[x{n_frames}]")
        self._build()

    def instance(self, frame: int, signal: str) -> str:
        if not 0 <= frame < self.n_frames:
            raise ValueError(f"frame {frame} outside 0..{self.n_frames - 1}")
        return instance_name(frame, signal)

    def compiled(self):
        """The compiled (dense-id, flat-array) form of the unrolled
        network; built once and cached on the network."""
        return self.network.compiled()

    def session(self, base_assignment: dict[str, int] | None = None):
        """A fresh incremental :class:`ImplicationSession` over this
        unrolled controller."""
        from repro.controller.implication import ImplicationSession

        return ImplicationSession(self.compiled(), base_assignment)

    def frame_and_signal(self, instance: str) -> tuple[int, str]:
        frame, _, signal = instance.partition(":")
        return int(frame), signal

    def _build(self) -> None:
        source = self.controller.network
        cpr_by_q = {c.q: c for c in self.controller.cprs}
        for frame in range(self.n_frames):
            for signal in source.signals.values():
                self.network.add_signal(
                    Signal(
                        instance_name(frame, signal.name),
                        signal.domain,
                        signal.kind,
                        signal.stage,
                    )
                )
        for frame in range(self.n_frames):
            # Copy combinational nodes.
            for name, node in source.drivers.items():
                clone = _clone_node(node, frame)
                self.network.drive(instance_name(frame, name), clone)
            # Link CPRs.
            for cpr in cpr_by_q.values():
                q_inst = instance_name(frame, cpr.q)
                if frame == 0:
                    self.network.drive(q_inst, ConstNode(cpr.reset))
                else:
                    node = self.controller.clock_edge(cpr)
                    self.network.drive(q_inst, _clone_node(node, frame - 1))

    # ------------------------------------------------------------------
    # Decision-variable enumeration (pipeframe organization)
    # ------------------------------------------------------------------
    def decision_instances(self) -> list[str]:
        """All CPI, STS and CTI signal instances, in frame order.

        These are exactly the decision variables of the pipeframe
        organization (Section IV): primary inputs plus the cut tertiary
        signals plus datapath status bits.
        """
        names: list[str] = []
        for frame in range(self.n_frames):
            for sig in self.controller.cpi_signals:
                names.append(instance_name(frame, sig))
            for sig in self.controller.sts_signals:
                names.append(instance_name(frame, sig))
            for sig in self.controller.cti_signals:
                names.append(instance_name(frame, sig))
        return names

    def timeframe_decision_instances(self) -> list[str]:
        """Decision variables of the conventional organization: CPI + CSI."""
        names: list[str] = []
        for frame in range(self.n_frames):
            for sig in self.controller.cpi_signals:
                names.append(instance_name(frame, sig))
            for sig in self.controller.sts_signals:
                names.append(instance_name(frame, sig))
            for cpr in self.controller.cprs:
                names.append(instance_name(frame, cpr.q))
        return names


def _clone_node(node: ControlNode, frame: int) -> ControlNode:
    """Shallow-clone a node with its inputs renamed into ``frame``."""
    import copy

    clone = copy.copy(node)
    clone.inputs = [instance_name(frame, i) for i in node.inputs]
    return clone
