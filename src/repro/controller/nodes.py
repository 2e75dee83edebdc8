"""Three-valued logic nodes for the controller network.

Each node computes one output signal from input signals.  Values are ints
from the signal's domain or ``None`` (the unknown value X).  Nodes implement:

* ``eval3(values)`` — monotone three-valued evaluation: the result is a
  concrete value only when it is implied by the known inputs;
* ``backtrace_options(target, values, domains)`` — PODEM backtrace: ordered
  ``(input_index, desired_value)`` pairs, each a plausible way to push the
  node's output toward ``target`` through one currently-unknown input.

The node set is deliberately small; anything irregular (decode tables) uses
:class:`TableNode`, which enumerates completions of its unknown inputs when
the product of their domains is small.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

Value = "int | None"


class ControlNode:
    """Base class: a function from input signals to one output signal."""

    def __init__(self, inputs: Sequence[str]) -> None:
        self.inputs: list[str] = list(inputs)
        #: Compiled ``eval3`` tables by input-domain tuple, filled by
        #: :class:`repro.controller.implication.CompiledNetwork`.  A
        #: shallow copy shares this dict on purpose: the per-frame clones
        #: of an unrolled controller compute the same function.
        self.tables: dict = {}

    def eval3(self, values: Sequence[int | None]) -> int | None:
        raise NotImplementedError

    def backtrace_options(
        self,
        target: int,
        values: Sequence[int | None],
        domains: Sequence[tuple[int, ...]],
    ) -> list[tuple[int, int]]:
        """Ordered (input index, desired value) options to reach ``target``."""
        raise NotImplementedError

    def eval3_table(
        self,
        domains: Sequence[Sequence[int]],
        limit: int = 4096,
    ) -> dict[tuple, int | None] | None:
        """Precompute ``eval3`` over the whole three-valued input space.

        ``domains`` are the input signals' domains; each axis is extended
        with ``None`` (X).  Returns the complete lookup table keyed by the
        input-value tuple, or ``None`` when the table would exceed
        ``limit`` entries.  Entries are literal ``eval3`` results, so the
        table is exact for every node type by construction.
        """
        size = 1
        for domain in domains:
            size *= len(domain) + 1
            if size > limit:
                return None
        axes = [tuple(domain) + (None,) for domain in domains]
        return {
            combo: self.eval3(combo) for combo in itertools.product(*axes)
        }


class ConstNode(ControlNode):
    """A constant output; has no inputs and can never be backtraced."""

    def __init__(self, value: int) -> None:
        super().__init__([])
        self.value = value

    def eval3(self, values):
        return self.value

    def backtrace_options(self, target, values, domains):
        return []


class BufNode(ControlNode):
    """Identity: output follows its single input."""

    def __init__(self, a: str) -> None:
        super().__init__([a])

    def eval3(self, values):
        return values[0]

    def backtrace_options(self, target, values, domains):
        if values[0] is None and target in domains[0]:
            return [(0, target)]
        return []


class NotNode(ControlNode):
    """Bit inverter."""

    def __init__(self, a: str) -> None:
        super().__init__([a])

    def eval3(self, values):
        if values[0] is None:
            return None
        return 1 - values[0]

    def backtrace_options(self, target, values, domains):
        if values[0] is None:
            return [(0, 1 - target)]
        return []


class AndNode(ControlNode):
    """Bit AND over any number of inputs."""

    def eval3(self, values):
        if any(v == 0 for v in values):
            return 0
        if all(v == 1 for v in values):
            return 1
        return None

    def backtrace_options(self, target, values, domains):
        unknown = [i for i, v in enumerate(values) if v is None]
        if target == 1:
            return [(i, 1) for i in unknown]
        # target == 0: any single unknown input going to 0 suffices.
        return [(i, 0) for i in unknown]


class OrNode(ControlNode):
    """Bit OR over any number of inputs."""

    def eval3(self, values):
        if any(v == 1 for v in values):
            return 1
        if all(v == 0 for v in values):
            return 0
        return None

    def backtrace_options(self, target, values, domains):
        unknown = [i for i, v in enumerate(values) if v is None]
        if target == 0:
            return [(i, 0) for i in unknown]
        return [(i, 1) for i in unknown]


class XorNode(ControlNode):
    """Bit XOR over any number of inputs."""

    def eval3(self, values):
        if any(v is None for v in values):
            return None
        return sum(values) & 1

    def backtrace_options(self, target, values, domains):
        unknown = [i for i, v in enumerate(values) if v is None]
        if len(unknown) != 1:
            # Choose the first unknown arbitrarily; the rest stay open.
            return [(i, 0) for i in unknown] + [(i, 1) for i in unknown]
        i = unknown[0]
        parity = sum(v for v in values if v is not None) & 1
        return [(i, target ^ parity)]


class EqConstNode(ControlNode):
    """Bit output: 1 iff the input field equals a constant."""

    def __init__(self, a: str, constant: int) -> None:
        super().__init__([a])
        self.constant = constant

    def eval3(self, values):
        if values[0] is None:
            return None
        return int(values[0] == self.constant)

    def backtrace_options(self, target, values, domains):
        if values[0] is not None:
            return []
        if target == 1:
            if self.constant in domains[0]:
                return [(0, self.constant)]
            return []
        return [(0, v) for v in domains[0] if v != self.constant]


class InSetNode(ControlNode):
    """Bit output: 1 iff the input field's value is in a constant set."""

    def __init__(self, a: str, members: Sequence[int]) -> None:
        super().__init__([a])
        self.members = frozenset(members)

    def eval3(self, values):
        if values[0] is None:
            return None
        return int(values[0] in self.members)

    def backtrace_options(self, target, values, domains):
        if values[0] is not None:
            return []
        if target == 1:
            return [(0, v) for v in domains[0] if v in self.members]
        return [(0, v) for v in domains[0] if v not in self.members]


class EqNode(ControlNode):
    """Bit output: 1 iff two fields are equal (e.g. rs == dest_reg)."""

    def __init__(self, a: str, b: str) -> None:
        super().__init__([a, b])

    def eval3(self, values):
        if values[0] is None or values[1] is None:
            return None
        return int(values[0] == values[1])

    def backtrace_options(self, target, values, domains):
        a, b = values
        options: list[tuple[int, int]] = []
        if target == 1:
            if a is None and b is not None and b in domains[0]:
                options.append((0, b))
            if b is None and a is not None and a in domains[1]:
                options.append((1, a))
            if a is None and b is None:
                for v in domains[0]:
                    if v in domains[1]:
                        options.append((0, v))
                        break
        else:
            if a is None:
                options.extend((0, v) for v in domains[0] if v != b)
            if b is None:
                options.extend((1, v) for v in domains[1] if v != a)
        return options


class MuxNode(ControlNode):
    """Field output: selects input 1 + sel among the data inputs.

    ``inputs[0]`` is the single-bit (or small-field) select; the remaining
    inputs are the data choices.
    """

    def __init__(self, sel: str, *data: str) -> None:
        super().__init__([sel, *data])
        if len(data) < 2:
            raise ValueError("mux node needs at least two data inputs")

    def eval3(self, values):
        sel = values[0]
        data = values[1:]
        if sel is not None:
            index = sel if sel < len(data) else 0
            return data[index]
        known = [v for v in data if v is not None]
        if len(known) == len(data) and len(set(known)) == 1:
            return known[0]
        return None

    def backtrace_options(self, target, values, domains):
        sel = values[0]
        data = values[1:]
        options: list[tuple[int, int]] = []
        if sel is not None:
            index = sel if sel < len(data) else 0
            if data[index] is None and target in domains[1 + index]:
                options.append((1 + index, target))
        else:
            # Prefer steering the select toward an input already at target.
            for i, v in enumerate(data):
                if v == target and i in domains[0]:
                    options.append((0, i))
            for i, v in enumerate(data):
                if v is None and i in domains[0]:
                    options.append((0, i))
        return options


class TableNode(ControlNode):
    """An arbitrary small function, evaluated by completion enumeration.

    ``fn`` maps a tuple of concrete input values to the output value.  With
    unknown inputs, all completions are enumerated (up to ``max_enum``
    combinations); if every completion agrees the output is implied.
    """

    def __init__(
        self,
        inputs: Sequence[str],
        fn: Callable[..., int],
        domains: Sequence[Sequence[int]],
        max_enum: int = 512,
    ) -> None:
        super().__init__(inputs)
        self.fn = fn
        self.static_domains = [tuple(d) for d in domains]
        self.max_enum = max_enum

    def _completions(self, values):
        axes = [
            (v,) if v is not None else self.static_domains[i]
            for i, v in enumerate(values)
        ]
        count = 1
        for axis in axes:
            count *= len(axis)
            if count > self.max_enum:
                return None
        return itertools.product(*axes)

    def eval3(self, values):
        completions = self._completions(values)
        if completions is None:
            return None
        outputs = {self.fn(*combo) for combo in completions}
        if len(outputs) == 1:
            return outputs.pop()
        return None

    def backtrace_options(self, target, values, domains):
        options: list[tuple[int, int]] = []
        for i, v in enumerate(values):
            if v is not None:
                continue
            for candidate in domains[i]:
                trial = list(values)
                trial[i] = candidate
                result = self.eval3(trial)
                if result == target or result is None:
                    options.append((i, candidate))
        return options
