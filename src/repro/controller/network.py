"""Combinational controller network with three-valued implication."""

from __future__ import annotations

from repro.controller.nodes import ControlNode
from repro.controller.signals import Signal, SignalKind


class ControlNetworkError(Exception):
    """Raised for structural problems in a control network."""


class ControlNetwork:
    """A DAG of :class:`ControlNode` functions over named signals.

    Signals without a driver are *external* (primary inputs, status inputs,
    pipe-register outputs).  ``evaluate`` performs one topological sweep of
    three-valued implication, which reaches the fixpoint because the network
    is acyclic.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.signals: dict[str, Signal] = {}
        self.drivers: dict[str, ControlNode] = {}
        self._topo_cache: list[str] | None = None
        self._compiled_cache = None
        self._kind_cache: dict[SignalKind, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Drop every structure derived from the signals and drivers."""
        self._topo_cache = None
        self._compiled_cache = None
        self._kind_cache = {}

    def add_signal(self, signal: Signal) -> Signal:
        if signal.name in self.signals:
            raise ControlNetworkError(f"duplicate signal {signal.name!r}")
        self.signals[signal.name] = signal
        self._invalidate()
        return signal

    def drive(self, name: str, node: ControlNode) -> None:
        """Attach ``node`` as the driver of signal ``name``."""
        if name not in self.signals:
            raise ControlNetworkError(f"no signal named {name!r}")
        if name in self.drivers:
            raise ControlNetworkError(f"signal {name!r} already driven")
        for input_name in node.inputs:
            if input_name not in self.signals:
                raise ControlNetworkError(
                    f"node for {name!r} reads unknown signal {input_name!r}"
                )
        self.drivers[name] = node
        self._invalidate()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise ControlNetworkError(f"no signal named {name!r}") from None

    def external_signals(self) -> list[str]:
        """Signals not driven by any node (inputs of the network)."""
        return [name for name in self.signals if name not in self.drivers]

    def signals_of_kind(self, kind: SignalKind) -> tuple[str, ...]:
        """Names of the signals of ``kind``, in declaration order
        (computed once per kind until the next structural edit)."""
        names = self._kind_cache.get(kind)
        if names is None:
            names = self._kind_cache[kind] = tuple(
                s.name for s in self.signals.values() if s.kind is kind
            )
        return names

    def topological_order(self) -> list[str]:
        """Driven signal names in dependency order; detects cycles.

        Iterative DFS: deeply unrolled networks produce dependency chains
        far longer than Python's recursion limit allows.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        order: list[str] = []
        visiting: set[str] = set()
        done: set[str] = set()
        for root in sorted(self.drivers):
            if root in done:
                continue
            visiting.add(root)
            stack = [(root, iter(self.drivers[root].inputs))]
            while stack:
                name, deps = stack[-1]
                descended = False
                for dep in deps:
                    if dep in done or dep not in self.drivers:
                        continue
                    if dep in visiting:
                        raise ControlNetworkError(
                            f"combinational cycle through {dep!r}"
                        )
                    visiting.add(dep)
                    stack.append((dep, iter(self.drivers[dep].inputs)))
                    descended = True
                    break
                if not descended:
                    stack.pop()
                    visiting.discard(name)
                    done.add(name)
                    order.append(name)
        self._topo_cache = order
        return order

    def compiled(self):
        """The :class:`repro.controller.implication.CompiledNetwork` view
        of this network (built once, invalidated by structural edits)."""
        if self._compiled_cache is None:
            from repro.controller.implication import CompiledNetwork

            self._compiled_cache = CompiledNetwork(self)
        return self._compiled_cache

    # ------------------------------------------------------------------
    # Implication
    # ------------------------------------------------------------------
    def evaluate(
        self,
        assignment: dict[str, int | None],
        overrides: dict[str, int] | None = None,
        lanes: int | None = None,
    ) -> dict[str, int | None]:
        """Three-valued implication sweep.

        ``assignment`` supplies values for external signals (missing ones are
        X).  ``overrides`` supplies *decided* values for driven signals (the
        cut tertiary inputs of the pipeframe organization): downstream logic
        consumes the decided value; the node's own computation is still
        recorded for the consistency check.

        Returns a complete value map for every signal; for overridden signals
        the map holds the decided value, and ``computed:<name>`` entries are
        NOT added — use :meth:`consistency` to compare.

        Without overrides (every co-simulation call) this runs the
        compiled network's generated straight-line kernel; with overrides
        it runs the flat-array :meth:`CompiledNetwork.sweep`, which is
        also the kernel's reference.

        ``lanes=n`` evaluates ``n`` assignments at once on the lane kernel
        (:meth:`CompiledNetwork.lane_kernel`): every assignment value is a
        length-``n`` numpy array of codes (``LaneKernel.encode``), a
        missing signal is X in every lane, and the result maps every
        signal to its code array.  Lanes take no overrides.
        """
        compiled = self.compiled()
        if lanes is not None:
            if overrides:
                raise ValueError("lane evaluation takes no overrides")
            return compiled.lane_kernel().evaluate(assignment, lanes)
        if overrides:
            return compiled.values_dict(compiled.sweep(assignment, overrides))
        return compiled.kernel()(assignment)

    def consistency(
        self,
        assignment: dict[str, int | None],
        overrides: dict[str, int],
    ) -> tuple[dict[str, int | None], list[str], list[str]]:
        """Evaluate and classify each overridden signal.

        Returns ``(values, justified, conflicting)``: an overridden signal is
        *justified* when its driving cone computes exactly the decided value,
        *conflicting* when the cone computes a different concrete value, and
        otherwise still open.
        """
        compiled = self.compiled()
        raw = compiled.sweep(assignment, overrides)
        values = compiled.values_dict(raw)
        justified: list[str] = []
        conflicting: list[str] = []
        for name, decided in overrides.items():
            out = compiled.index.get(name)
            if out is None or not compiled.is_driven[out]:
                continue  # overriding an external signal is just assignment
            computed = compiled.compute_node(out, raw)
            if computed is None:
                continue
            if computed == decided:
                justified.append(name)
            else:
                conflicting.append(name)
        return values, justified, conflicting
