"""Lane-vectorised evaluation of a compiled controller network.

:meth:`CompiledNetwork.lane_kernel` is the batch-axis counterpart of
:meth:`CompiledNetwork.kernel`: one call evaluates the network for ``n``
independent assignments (*lanes*) at once, the way
:mod:`repro.datapath.batched` evaluates the datapath.

Representation
--------------

A signal's lane values are one ``intp`` numpy array of **codes**: the
index of each lane's value in the signal's domain, with ``len(domain)``
standing for X.  :meth:`LaneKernel.encode` turns per-lane Python values
into codes and :meth:`LaneKernel.lane_dicts` turns the code arrays of an
evaluation back into one name -> value dict per lane.

Every driven node is one lookup into a flat table of its three-valued
results over all input combinations, flattened in ``itertools.product``
order over each input's domain followed by X: a node reading ``a`` and
``b`` reads entry ``a * (len(domain_b) + 1) + b``.  The entries are those
of the scalar compiled network's ``eval3`` tables (``eval_table``); a node
above ``EVAL_TABLE_LIMIT``, whose scalar table fills itself only with
the combinations read, is tabulated in full here from ``eval3`` itself,
leaving the scalar table untouched.  Each lane therefore computes
exactly what :meth:`CompiledNetwork.kernel` computes for that lane's
assignment.

Like the scalar kernel, the evaluator is generated once per compiled
network with ``compile``/``exec``: one statement per driven node in
topological order, returning every signal's code array in ``names``
order.  The external signals' arrays are the assignment's own; treat
them as read-only.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from repro.controller.network import ControlNetworkError
from repro.datapath.batched import require_numpy

try:  # pragma: no cover - exercised by the no-numpy CI tier
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class LaneKernel:
    """A compiled controller network evaluated over numpy lane arrays."""

    def __init__(self, compiled) -> None:
        require_numpy()
        self.names = compiled.names
        self.index = compiled.index
        self.domains = compiled.domains
        #: X code per signal id (the size of its domain).
        self.x = [len(domain) for domain in self.domains]
        #: value -> code per signal id, with None (X) -> the X code.
        self.code_of = [
            {**{value: k for k, value in enumerate(domain)}, None: len(domain)}
            for domain in self.domains
        ]
        # lane_dicts decodes every signal through one object table of all
        # domains, each followed by None, by offsetting each signal's codes.
        sizes = [x + 1 for x in self.x]
        self._offset = _np.cumsum([0] + sizes[:-1]).reshape(-1, 1)
        self._values = _np.array(
            [value for domain in self.domains for value in (*domain, None)],
            dtype=object,
        )
        #: ``evaluate(assignment, n)``: name -> code array of every signal.
        self.evaluate = self._generate(compiled)

    def encode(self, name: str, values: Iterable) -> "_np.ndarray":
        """Codes of per-lane Python values of ``name`` (None is X)."""
        code_of = self.code_of[self.index[name]]
        try:
            return _np.array([code_of[value] for value in values], _np.intp)
        except KeyError as exc:
            raise ControlNetworkError(
                f"value {exc.args[0]!r} is outside the domain of {name!r}"
            ) from None

    def lane_dicts(
        self, codes: Mapping[str, "_np.ndarray"],
        names: Sequence[str] | None = None,
    ) -> list[dict[str, int | None]]:
        """One name -> value dict per lane from the code arrays of every
        signal, as :attr:`evaluate` returns them: of the signals ``names``
        in that order, or of every signal in ``names`` order."""
        if names is None:
            names, offset = self.names, self._offset
        else:
            offset = self._offset[[self.index[name] for name in names]]
        stacked = _np.stack([codes[name] for name in names])
        rows = self._values[stacked + offset].T.tolist()
        return [dict(zip(names, row)) for row in rows]

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def _table(self, compiled, out: int) -> "_np.ndarray":
        """Codes of node ``out``'s results over every input combination."""
        axes = [
            tuple(compiled.domains[i]) + (None,)
            for i in compiled.inputs_of[out]
        ]
        table = compiled.eval_table[out]
        evaluate = (
            table.__getitem__ if table is not None
            else compiled.node_of[out].eval3
        )
        code_of = self.code_of[out]
        return _np.array(
            [code_of[evaluate(combo)] for combo in itertools.product(*axes)],
            _np.intp,
        )

    def _generate(self, compiled):
        names, x = self.names, self.x
        env: dict[str, object] = {"full": _np.full, "intp": _np.intp}
        lines = ["def evaluate(assignment, n):", "    get = assignment.get"]
        for i in compiled.external_ids:
            lines += [
                f"    v{i} = get({names[i]!r})",
                f"    if v{i} is None:",
                f"        v{i} = full(n, {x[i]}, intp)",
            ]
        for out in compiled.topo_ids:
            inputs = compiled.inputs_of[out]
            table = self._table(compiled, out)
            if not inputs:
                lines.append(f"    v{out} = full(n, {int(table[0])}, intp)")
                continue
            env[f"t{out}"] = table
            key = f"v{inputs[0]}"
            for i in inputs[1:]:
                key = f"({key}) * {x[i] + 1} + v{i}"
            lines.append(f"    v{out} = t{out}[{key}]")
        lines.append("    return {")
        lines.extend(
            f"        {name!r}: v{i}," for i, name in enumerate(names)
        )
        lines.append("    }")
        source = "\n".join(lines) + "\n"
        exec(
            compile(source, f"<controller-lanes:{compiled.network.name}>",
                    "exec"),
            env,
        )
        return env["evaluate"]
