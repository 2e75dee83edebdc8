"""Compiled, event-driven three-valued implication for controller networks.

:class:`ControlNetwork.evaluate` is the inner loop of CTRLJUST: every PODEM
decision and every backtrack re-derives the implied values of the whole
unrolled controller.  This module replaces that per-call dict machinery with
two layers:

* :class:`CompiledNetwork` — a one-time compilation of a network: signal
  names interned to dense integer ids, driven nodes in topological *level*
  order with their input-id tuples, a fanout adjacency list, one keyed
  ``eval3`` lookup table per node (read through a C-level key function,
  and shared by every copy of the node across unrolled frames and
  windows) and a memoized ``backtrace_options``.  A full sweep over the
  compiled arrays is the same fixpoint as ``ControlNetwork.evaluate``,
  just without rebuilding any dictionaries.

* :class:`ImplicationSession` — an incremental view of one assignment-
  under-construction.  ``assume(signal, value)`` propagates only through
  the fanout cone of the changed signal (per-level buckets, so each node
  is re-evaluated at most once per assume) and records every mutation on
  a trail; ``retract()`` undoes the most recent assume in O(changed).
  The justified / conflicting classification of overridden (cut
  tertiary) signals is maintained incrementally alongside the values.

The full-sweep path in :mod:`repro.controller.network` stays available as
the reference oracle; the differential tests drive both on random
assume/retract sequences and demand bit-identical results.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

from repro.controller.network import ControlNetworkError

#: Upper bound on the size of a precomputed eval3 table per node.  A node
#: of several inputs whose three-valued input space is larger gets a table
#: that fills itself from ``eval3`` with the combinations actually read.
EVAL_TABLE_LIMIT = 4096


class _FillingTable(dict):
    """The keyed table of a node above ``EVAL_TABLE_LIMIT``: ``eval3``
    memoized over the input tuples actually read."""

    __slots__ = ("_eval3",)

    def __init__(self, eval3) -> None:
        super().__init__()
        self._eval3 = eval3

    def __missing__(self, key):
        value = self[key] = self._eval3(key)
        return value


def _node_tables(node, domains: tuple) -> tuple[dict, dict | None]:
    """``(keyed, full)`` ``eval3`` tables of ``node`` over its input
    ``domains``, each axis extended with X.

    ``keyed`` is indexed by what ``itemgetter(*input_ids)`` reads from a
    value array: the bare value for a one-input node (tabulated in full
    whatever its domain size), the value tuple otherwise.  ``full`` is
    the tuple-keyed table of :attr:`CompiledNetwork.eval_table`, or None
    above ``EVAL_TABLE_LIMIT``, where ``keyed`` fills itself on a miss.

    A table depends only on the node's function and its input domains,
    so it is built once per domain tuple and cached on the node; the
    shallow clones an unrolled controller makes of each node share that
    cache, so every frame and every window reads the same table objects.
    """
    tables = node.tables.get(domains)
    if tables is None:
        if len(domains) == 1:
            keyed = {v: node.eval3((v,)) for v in (*domains[0], None)}
            full = {(v,): value for v, value in keyed.items()}
        else:
            full = node.eval3_table(domains, limit=EVAL_TABLE_LIMIT)
            keyed = _FillingTable(node.eval3) if full is None else full
        tables = node.tables[domains] = (keyed, full)
    return tables


def _no_inputs(values) -> tuple:
    """The key of a node without inputs (``itemgetter()`` takes none)."""
    return ()


class CompiledNetwork:
    """A :class:`ControlNetwork` lowered to flat arrays over dense ids.

    Build once per network (``ControlNetwork.compiled`` caches the result);
    the compilation is read-only and shared by every sweep and session.
    """

    def __init__(self, network) -> None:
        self.network = network
        self.names: list[str] = list(network.signals)
        self.index: dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        n = len(self.names)
        self.domains: list[tuple[int, ...]] = [
            network.signals[name].domain for name in self.names
        ]
        self.is_driven = [False] * n
        #: Driven-signal ids in dependency order.
        self.topo_ids: list[int] = []
        #: Topological level: externals 0, nodes 1 + max(input levels).
        self.level = [0] * n
        self.node_of: list[object | None] = [None] * n
        self.inputs_of: list[tuple[int, ...]] = [()] * n
        #: Per driven id, the key function over a value array: a C-level
        #: ``itemgetter(*inputs_of[out])``, the bare value for one input.
        self.key_of: list[object | None] = [None] * n
        #: Per driven id, the ``eval3`` table that ``key_of[out]`` indexes
        #: (see ``_node_tables``); node copies share one table object.
        self.table_of: list[dict | None] = [None] * n
        #: Tuple-keyed ``eval3`` table per driven id, the lane kernel's
        #: source; None where it would exceed ``EVAL_TABLE_LIMIT``.
        self.eval_table: list[dict | None] = [None] * n
        #: Driven ids consuming each signal (the event-propagation edges).
        self.fanout: list[tuple[int, ...]] = [()] * n

        fanout: list[list[int]] = [[] for _ in range(n)]
        for name in network.topological_order():
            node = network.drivers[name]
            out = self.index[name]
            in_ids = tuple(self.index[i] for i in node.inputs)
            self.is_driven[out] = True
            self.topo_ids.append(out)
            self.node_of[out] = node
            self.inputs_of[out] = in_ids
            self.level[out] = 1 + max(
                (self.level[i] for i in in_ids), default=0
            )
            for i in dict.fromkeys(in_ids):
                fanout[i].append(out)
            self.key_of[out] = itemgetter(*in_ids) if in_ids else _no_inputs
            self.table_of[out], self.eval_table[out] = _node_tables(
                node, tuple(self.domains[i] for i in in_ids)
            )
        self.fanout = [tuple(consumers) for consumers in fanout]
        #: Number of distinct levels (the session's bucket count).
        self.n_levels = 1 + max(self.level, default=0)
        self.external_ids = [i for i in range(n) if not self.is_driven[i]]
        self._backtrace_memo: list[dict | None] = [None] * n
        self._baseline: tuple[list, list] | None = None
        self._kernel = None
        self._lane_kernel = None

    def baseline_state(self) -> tuple[list[int | None], list[int | None]]:
        """(values, computed) of the empty assignment, computed once.

        Every :class:`ImplicationSession` over an empty base assignment
        starts from this same fixpoint; CTRLJUST (and especially TG's
        ``_blame`` prefix probes) construct many such sessions per
        window, so copying two arrays beats re-evaluating every node.
        """
        if self._baseline is None:
            values: list[int | None] = [None] * len(self.names)
            computed: list[int | None] = [None] * len(self.names)
            for out in self.topo_ids:
                state = self.compute_node(out, values)
                computed[out] = state
                values[out] = state
            self._baseline = (values, computed)
        return self._baseline

    # ------------------------------------------------------------------
    # Full sweep (the compiled form of ControlNetwork.evaluate)
    # ------------------------------------------------------------------
    def sweep(
        self,
        assignment: Mapping[str, int | None],
        overrides: Mapping[str, int] | None = None,
    ) -> list[int | None]:
        """One topological implication sweep; returns the value array."""
        values: list[int | None] = [None] * len(self.names)
        names = self.names
        overrides = overrides or {}
        for i in self.external_ids:
            name = names[i]
            values[i] = overrides.get(name, assignment.get(name))
        override_ids = {}
        for name, value in overrides.items():
            out = self.index.get(name)
            if out is not None and self.is_driven[out]:
                override_ids[out] = value
        key_of, table_of = self.key_of, self.table_of
        for out in self.topo_ids:
            computed = table_of[out][key_of[out](values)]
            values[out] = override_ids.get(out, computed)
        return values

    def values_dict(
        self, values: Sequence[int | None]
    ) -> dict[str, int | None]:
        return dict(zip(self.names, values))

    # ------------------------------------------------------------------
    # Generated evaluate kernel (the override-free sweep, straight-line)
    # ------------------------------------------------------------------
    def kernel(self):
        """``assignment -> name/value dict``: :meth:`sweep` without
        overrides, followed by :meth:`values_dict`, as one generated
        function.

        Built on first use, not at compile time: TG compiles an unrolled
        network per window and only ever runs sessions over it.
        """
        if self._kernel is None:
            self._kernel = self._generate_kernel()
        return self._kernel

    def _generate_kernel(self):
        # The dict display lists ``names`` in order, so the result has
        # the key order of :meth:`values_dict`.
        names = self.names
        env: dict[str, object] = {}
        lines = ["def evaluate(assignment):", "    get = assignment.get"]
        for i in self.external_ids:
            lines.append(f"    v{i} = get({names[i]!r})")
        for out in self.topo_ids:
            env[f"t{out}"] = self.table_of[out]
            inputs = self.inputs_of[out]
            if len(inputs) == 1:
                key = f"v{inputs[0]}"
            else:
                key = "(" + "".join(f"v{i}, " for i in inputs) + ")"
            lines.append(f"    v{out} = t{out}[{key}]")
        lines.append("    return {")
        lines.extend(f"        {name!r}: v{i}," for i, name in enumerate(names))
        lines.append("    }")
        source = "\n".join(lines) + "\n"
        exec(compile(source, f"<controller:{self.network.name}>", "exec"), env)
        return env["evaluate"]

    def lane_kernel(self):
        """The :class:`repro.controller.lanes.LaneKernel` of this network:
        :meth:`kernel` over numpy lane arrays, one table lookup per node.

        Built on first use and cached like :meth:`kernel` (it needs numpy,
        which this module does not import).
        """
        if self._lane_kernel is None:
            from repro.controller.lanes import LaneKernel

            self._lane_kernel = LaneKernel(self)
        return self._lane_kernel

    def compute_node(
        self, out: int, values: Sequence[int | None]
    ) -> int | None:
        """The node function of driven id ``out`` on the current values."""
        return self.table_of[out][self.key_of[out](values)]

    # ------------------------------------------------------------------
    # Memoized backtrace
    # ------------------------------------------------------------------
    def backtrace_options(
        self, out: int, target: int, input_values: tuple
    ) -> list[tuple[int, int]]:
        """``node.backtrace_options`` for driven id ``out``, memoized.

        The node's input domains are fixed at compile time, so the result
        is a pure function of ``(target, input_values)``.
        """
        memo = self._backtrace_memo[out]
        if memo is None:
            memo = self._backtrace_memo[out] = {}
        key = (target, input_values)
        options = memo.get(key)
        if options is None:
            node = self.node_of[out]
            domains = [self.domains[i] for i in self.inputs_of[out]]
            options = node.backtrace_options(target, input_values, domains)
            memo[key] = options
        return options


# Trail entries.  A driven node without an override has equal effective
# and computed values, so when propagation changes it the trail holds one
# untagged ``(id, previous value)`` pair that restores both.  Every other
# mutation is a tagged triple ``(tag, id, previous)``:
_T_VALUE = 0  # (tag, id, previous effective value): externals and cuts
_T_COMPUTED = 1  # (tag, id, previous computed value) of an overridden node
_T_OVERRIDE = 2  # (tag, id, previous override value or _NO_OVERRIDE)
_T_CLASS = 3  # (tag, id, previous classification)
_NO_OVERRIDE = object()

# Classification states of an overridden driven signal.
_OPEN, _JUSTIFIED, _CONFLICTING = 0, 1, 2


class ImplicationSession:
    """Incremental three-valued implication with trail-based undo.

    One session is one assignment-under-construction over a compiled
    network.  ``assume`` a value for any signal:

    * an *external* signal is assigned directly;
    * a *driven* signal is **cut** (the pipeframe override): downstream
      logic consumes the decided value immediately, while the driving
      cone's own computation keeps being tracked, classifying the cut as
      justified (cone computes the decided value), conflicting (cone
      computes a different concrete value) or still open.

    Each ``assume`` propagates through the fanout cone of the changed
    signal only; ``retract`` rewinds the trail to the previous decision
    point.  At any moment the session's ``values``, ``justified_names``
    and ``conflicting_names`` equal what a fresh full sweep
    (``ControlNetwork.consistency``) over the same assignment/overrides
    would produce.
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        base_assignment: Mapping[str, int | None] | None = None,
    ) -> None:
        self.compiled = compiled
        n = len(compiled.names)
        #: Effective value per signal id (override wins over computation).
        self.values: list[int | None] = [None] * n
        #: Node-computed value per driven id (valid independent of cuts).
        self.computed: list[int | None] = [None] * n
        self.overrides: dict[int, int] = {}
        #: Classification per id: _OPEN / _JUSTIFIED / _CONFLICTING; only
        #: meaningful while the id is overridden.
        self._class = [_OPEN] * n
        self._justified_ids: set[int] = set()
        self._conflicting_ids: set[int] = set()
        self._trail: list[tuple] = []
        self._marks: list[int] = []
        #: Propagation queue: driven ids waiting per level, and a flag per
        #: id that is set while the id waits (all clear between assumes).
        self._buckets: list[list[int]] = [
            [] for _ in range(compiled.n_levels)
        ]
        self._pending = [False] * n
        if base_assignment:
            index = compiled.index
            for name, value in base_assignment.items():
                i = index[name]
                if not compiled.is_driven[i]:
                    self.values[i] = value
            for out in compiled.topo_ids:
                computed = compiled.compute_node(out, self.values)
                self.computed[out] = computed
                self.values[out] = computed
        else:
            # The empty-base fixpoint is shared by every fresh session.
            values, computed = compiled.baseline_state()
            self.values = list(values)
            self.computed = list(computed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, name: str) -> int | None:
        return self.values[self.compiled.index[name]]

    def get(self, name: str, default=None):
        """Mapping-style accessor (drop-in for the full-sweep value dict)."""
        i = self.compiled.index.get(name)
        return default if i is None else self.values[i]

    __getitem__ = value

    @property
    def has_conflict(self) -> bool:
        return bool(self._conflicting_ids)

    @property
    def conflicting_ids(self) -> set[int]:
        """Ids of overridden signals whose cone computes a different
        concrete value — the conflict sites CDCL analysis starts from."""
        return self._conflicting_ids

    @property
    def justified_ids(self) -> set[int]:
        return self._justified_ids

    def antecedent_literals(self, out: int) -> list[tuple[int, int]]:
        """The implication-graph antecedents of driven id ``out``.

        The session maintains the fixpoint invariant ``computed[out] =
        eval3(inputs)``, and three-valued evaluation is monotone: once the
        concrete inputs present at ``out`` imply its computed value, any
        completion of the remaining ``None`` inputs implies the same
        value.  The reason for ``computed[out]`` is therefore exactly the
        non-``None`` input literals on the current trail — no per-event
        recording is needed on the hot propagation path.
        """
        values = self.values
        return [
            (i, values[i])
            for i in self.compiled.inputs_of[out]
            if values[i] is not None
        ]

    def is_justified(self, name: str) -> bool:
        return self.compiled.index[name] in self._justified_ids

    @property
    def justified_names(self) -> set[str]:
        names = self.compiled.names
        return {names[i] for i in self._justified_ids}

    @property
    def conflicting_names(self) -> set[str]:
        names = self.compiled.names
        return {names[i] for i in self._conflicting_ids}

    @property
    def depth(self) -> int:
        """Number of assumes currently on the trail."""
        return len(self._marks)

    def snapshot(self) -> dict[str, int | None]:
        """The complete name -> value map (same shape as ``evaluate``)."""
        return dict(zip(self.compiled.names, self.values))

    # ------------------------------------------------------------------
    # Assume / retract
    # ------------------------------------------------------------------
    def assume(self, name: str, value: int) -> None:
        """Decide ``name = value`` and propagate its implications.

        Raises :class:`ControlNetworkError`, leaving the session as it
        was, when ``value`` is outside the signal's domain (X included).
        """
        comp = self.compiled
        i = comp.index[name]
        if value not in comp.domains[i]:
            raise ControlNetworkError(
                f"value {value!r} is outside the domain of {name!r}"
            )
        trail = self._trail
        self._marks.append(len(trail))
        if comp.is_driven[i]:
            previous = self.overrides.get(i, _NO_OVERRIDE)
            trail.append((_T_OVERRIDE, i, previous))
            self.overrides[i] = value
            self._reclassify(i, value)
        if self.values[i] != value:
            trail.append((_T_VALUE, i, self.values[i]))
            self.values[i] = value
            self._propagate(i)

    def retract(self) -> None:
        """Undo the most recent :meth:`assume` (values, classification)."""
        if not self._marks:
            raise IndexError("retract without a matching assume")
        mark = self._marks.pop()
        trail = self._trail
        undo = trail[mark:]
        del trail[mark:]
        values, computed = self.values, self.computed
        for entry in reversed(undo):
            if len(entry) == 2:
                i, previous = entry
                values[i] = computed[i] = previous
                continue
            tag, i, previous = entry
            if tag == _T_VALUE:
                values[i] = previous
            elif tag == _T_COMPUTED:
                computed[i] = previous
            elif tag == _T_OVERRIDE:
                if previous is _NO_OVERRIDE:
                    del self.overrides[i]
                else:
                    self.overrides[i] = previous
            else:  # _T_CLASS
                self._set_class(i, previous)

    # ------------------------------------------------------------------
    # Event-driven propagation
    # ------------------------------------------------------------------
    def _propagate(self, changed: int) -> None:
        """Re-evaluate the fanout cone of signal ``changed`` in level order.

        Levels strictly increase along every edge, so draining the level
        buckets in ascending order evaluates each node at most once per
        assume with all of its (possibly changed) inputs already final.
        The order within a level is immaterial: nodes of one level never
        read each other.

        This is the hottest loop of the whole test generator (millions of
        node evaluations per campaign), hence the flattened style: the
        per-node evaluation is inlined rather than calling
        ``compute_node``, and a node whose computed value did not change
        costs one table lookup and one comparison.
        """
        comp = self.compiled
        level, fanout = comp.level, comp.fanout
        key_of, table_of = comp.key_of, comp.table_of
        buckets, pending = self._buckets, self._pending
        values, computed = self.values, self.computed
        overrides = self.overrides
        trail_append = self._trail.append
        top = 0
        for out in fanout[changed]:  # deduplicated; nothing is pending
            pending[out] = True
            at = level[out]
            buckets[at].append(out)
            if at > top:
                top = at
        current = level[changed] + 1
        while current <= top:
            bucket = buckets[current]
            current += 1
            if not bucket:
                continue
            for out in bucket:
                pending[out] = False
                new = table_of[out][key_of[out](values)]
                old = computed[out]
                if new == old:
                    continue
                if out in overrides:
                    # A cut keeps its decided value; only its class moves.
                    trail_append((_T_COMPUTED, out, old))
                    computed[out] = new
                    self._reclassify(out, overrides[out])
                    continue
                trail_append((out, old))
                computed[out] = values[out] = new
                for consumer in fanout[out]:
                    if not pending[consumer]:
                        pending[consumer] = True
                        at = level[consumer]
                        buckets[at].append(consumer)
                        if at > top:
                            top = at
            bucket.clear()

    # ------------------------------------------------------------------
    # Justified / conflicting bookkeeping
    # ------------------------------------------------------------------
    def _reclassify(self, i: int, decided: int) -> None:
        computed = self.computed[i]
        if computed is None:
            new = _OPEN
        elif computed == decided:
            new = _JUSTIFIED
        else:
            new = _CONFLICTING
        if self._class[i] != new:
            self._trail.append((_T_CLASS, i, self._class[i]))
            self._set_class(i, new)

    def _set_class(self, i: int, state: int) -> None:
        self._class[i] = state
        if state == _JUSTIFIED:
            self._justified_ids.add(i)
            self._conflicting_ids.discard(i)
        elif state == _CONFLICTING:
            self._conflicting_ids.add(i)
            self._justified_ids.discard(i)
        else:
            self._justified_ids.discard(i)
            self._conflicting_ids.discard(i)
