"""Compiled datapath kernels: per-netlist Python code generation.

The interpretive :class:`~repro.datapath.simulate.DatapathSimulator` pays a
dict rebuild plus a per-module dynamic dispatch for every cycle.  This module
compiles a :class:`~repro.datapath.netlist.Netlist` once into two
specialized three-valued ``evaluate`` kernels:

* net and register names are interned to dense integer ids;
* the topological schedule is flattened into a straight-line Python function
  (one generated statement per module, arithmetic inlined for the common
  module types) compiled with ``exec``;
* values live in a reusable list indexed by net id — a fault-free kernel
  call allocates nothing;
* injector and module-override support is compiled into a *separate* hooked
  kernel, so fault-free simulation never tests for them.

The compiled form is cached on the netlist (``Netlist.compiled()``), exactly
like ``ControlNetwork.compiled()``, and invalidated by structural edits.
Generated sources can be dumped for debugging by setting the
``REPRO_KERNEL_DUMP`` environment variable to a directory (dumps land in
``<dir>/kernel_<netlist>.py`` and are gitignored).

Semantics are bit-identical to the interpretive simulator (enforced by
differential tests): externals are masked to the net width at emission
(*before* injection), injector and override results are masked to the net
width, constants and register outputs pass through the injector like every
other net, mux out-of-range selects choose input 0 and tri-states pull to
0.  The kernels only evaluate: callers clock the registers themselves.  The
emission masks keep every stored value inside its net's width even for
out-of-range environment inputs — the invariant the batched numpy backend
(:mod:`repro.datapath.batched`) relies on, since uint64 lane arrays cannot
hold unbounded Python ints.
"""

from __future__ import annotations

import os
from functools import partial as _bind
from typing import Mapping

from repro.datapath.modules import ConstantModule
from repro.datapath.simulate import no_injection
from repro.utils.bits import mask


def _sx(v, sign, mo, mi):
    """Sign-extend helper used by generated code."""
    v &= mi
    return v | (mo ^ mi) if v & sign else v


def _ts(v, sign, modulus):
    """Two's-complement reinterpretation helper used by generated code."""
    return v - modulus if v & sign else v


def _pp(module, in_ids, ctl_ids, values, override, m):
    """Generic three-valued module evaluation (kernel fallback).

    Results are masked to the output net's width (``m``) so overrides with
    out-of-range results share the masked semantics of every backend.
    """
    controls = [values[i] for i in ctl_ids]
    for c in controls:
        if c is None:
            return None
    inputs = [values[i] for i in in_ids]
    for i in module.needed_inputs(controls):
        if inputs[i] is None:
            return None
    inputs = [0 if v is None else v for v in inputs]
    if override is not None:
        return override(inputs, controls) & m
    return module.evaluate(inputs, controls) & m


def _inline_expr(module, a: list[str]) -> str | None:
    """Inline Python expression for a module, or None for the generic call.

    ``a`` holds the operand expressions (data inputs, in port order); the
    expression must equal ``module.evaluate`` bit-for-bit for every valid
    operand combination.
    """
    t = type(module).__name__
    w = getattr(module, "width", None)
    if t == "AddModule":
        return f"(({a[0]} + {a[1]}) & {mask(w)})"
    if t == "SubModule":
        return f"(({a[0]} - {a[1]}) & {mask(w)})"
    if t == "XorModule":
        return f"(({a[0]} ^ {a[1]}) & {mask(w)})"
    if t == "XnorModule":
        return f"(~({a[0]} ^ {a[1]}) & {mask(w)})"
    if t == "NotModule":
        return f"(~{a[0]} & {mask(w)})"
    if t == "AndModule":
        return f"({a[0]} & {a[1]})"
    if t == "OrModule":
        return f"({a[0]} | {a[1]})"
    if t == "NandModule":
        return f"(~({a[0]} & {a[1]}) & {mask(w)})"
    if t == "NorModule":
        return f"(~({a[0]} | {a[1]}) & {mask(w)})"
    if t == "ZeroExtendModule":
        return f"({a[0]} & {mask(module.in_width)})"
    if t == "SliceModule":
        return f"(({a[0]} >> {module.lo}) & {mask(module.out_width)})"
    if t == "SignExtendModule":
        return (f"_sx({a[0]}, {1 << (module.in_width - 1)}, "
                f"{mask(module.out_width)}, {mask(module.in_width)})")
    if t == "ConcatModule":
        return (f"(({a[1]} << {module.low_width}) | "
                f"({a[0]} & {mask(module.low_width)}))")
    if t == "EqModule":
        return f"(1 if {a[0]} == {a[1]} else 0)"
    if t == "NeModule":
        return f"(1 if {a[0]} != {a[1]} else 0)"
    if t == "LtuModule":
        return f"(1 if {a[0]} < {a[1]} else 0)"
    if t == "LeuModule":
        return f"(1 if {a[0]} <= {a[1]} else 0)"
    if t == "GtuModule":
        return f"(1 if {a[0]} > {a[1]} else 0)"
    if t == "GeuModule":
        return f"(1 if {a[0]} >= {a[1]} else 0)"
    if t in ("LtModule", "LeModule", "GtModule", "GeModule"):
        op = {"LtModule": "<", "LeModule": "<=",
              "GtModule": ">", "GeModule": ">="}[t]
        s, m = 1 << (w - 1), 1 << w
        return (f"(1 if _ts({a[0]}, {s}, {m}) {op} "
                f"_ts({a[1]}, {s}, {m}) else 0)")
    if t == "ShlModule":
        return (f"(0 if {a[1]} >= {w} else "
                f"(({a[0]} << {a[1]}) & {mask(w)}))")
    if t == "ShrModule":
        return (f"(0 if {a[1]} >= {w} else "
                f"(({a[0]} & {mask(w)}) >> {a[1]}))")
    return None


class CompiledDatapath:
    """Interned, flattened, codegen'd form of one netlist.

    Exposes the dense structural arrays (consumed by the cone-forking batch
    fault simulator) and two generated three-valued kernels::

        partial_plain(values, state, external)
        partial_hooked(values, state, external, ovr, inj)

    ``values`` and ``external`` are lists indexed by net id, with ``None``
    for an unknown value; ``state`` is a list indexed by register position
    (see :attr:`reg_names`).  ``inj`` maps net id -> unary corrupter;
    ``ovr`` maps schedule position -> override.
    """

    def __init__(self, netlist) -> None:
        self.netlist = netlist
        self.names: tuple[str, ...] = tuple(netlist.nets)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.n_nets = len(self.names)
        self.net_width = [netlist.nets[n].width for n in self.names]
        self.net_mask = [mask(w) for w in self.net_width]
        idx = self.index

        self.ext_pairs: list[tuple[int, str]] = [
            (idx[net.name], net.name)
            for net in netlist.nets.values() if net.is_external_input
        ]
        self.const_slots: list[tuple[int, int]] = []
        self.registers = list(netlist.registers)
        self.reg_names = tuple(r.name for r in self.registers)
        self.reg_q_ids: list[int] = []
        self.reg_d_ids: list[int] = []
        self.reg_ctl_ids: list[list[int]] = []
        for module in netlist.modules.values():
            if isinstance(module, ConstantModule):
                self.const_slots.append((idx[module.output.net.name],
                                         module.value))
        for reg in self.registers:
            self.reg_q_ids.append(idx[reg.output.net.name])
            self.reg_d_ids.append(idx[reg.data_inputs[0].net.name])
            self.reg_ctl_ids.append(
                [idx[p.net.name] for p in reg.control_inputs]
            )

        order = netlist.topological_order()
        self.sched_modules = list(order)
        self.sched_pos = {m.name: k for k, m in enumerate(order)}
        self.sched_out: list[int] = []
        self.sched_in: list[tuple[int, ...]] = []
        self.sched_ctl: list[tuple[int, ...]] = []
        for module in order:
            self.sched_out.append(idx[module.output.net.name])
            self.sched_in.append(
                tuple(idx[p.net.name] for p in module.data_inputs)
            )
            self.sched_ctl.append(
                tuple(idx[p.net.name] for p in module.control_inputs)
            )

        # Fanout: net id -> schedule positions reading it (data or control).
        self.fanout_sched: list[list[int]] = [[] for _ in range(self.n_nets)]
        for k in range(len(order)):
            for i in self.sched_in[k] + self.sched_ctl[k]:
                self.fanout_sched[i].append(k)
        for lst in self.fanout_sched:
            lst.sort()

        self.source = self._generate_source()
        env = self._exec_env()
        exec(compile(self.source, f"<kernel:{netlist.name}>", "exec"), env)
        self.partial_plain = env["partial_plain"]
        self.partial_hooked = env["partial_hooked"]
        self._maybe_dump()

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def _exec_env(self) -> dict:
        env = {"_sx": _sx, "_ts": _ts, "_pp": _pp}
        for k, module in enumerate(self.sched_modules):
            env[f"_m{k}"] = module
            env[f"_ti{k}"] = self.sched_in[k]
            env[f"_tc{k}"] = self.sched_ctl[k]
            if type(module).__name__ == "MuxModule":
                env[f"_dt{k}"] = self.sched_in[k]
        return env

    def _source_lines(self, k: int, hooked: bool) -> list[str]:
        """Generated statements computing schedule position ``k``."""
        module = self.sched_modules[k]
        out = self.sched_out[k]
        ins = self.sched_in[k]
        ctls = self.sched_ctl[k]
        t = type(module).__name__
        body: list[str] = []
        if t == "MuxModule":
            n = module.n_inputs
            body.append(f"_s = values[{ctls[0]}]")
            pick = f"values[_dt{k}[_s] if _s < {n} else {ins[0]}]"
            body.append(f"_v = None if _s is None else {pick}")
        elif t == "TristateModule":
            body.append(f"_s = values[{ctls[0]}]")
            pick = f"(values[{ins[0]}] if _s == 1 else 0)"
            body.append(f"_v = None if _s is None else {pick}")
        else:
            expr = _inline_expr(module, [f"values[{i}]" for i in ins])
            if expr is None or ctls:
                body.append(
                    f"_v = _pp(_m{k}, _ti{k}, _tc{k}, values, None, "
                    f"{self.net_mask[out]})"
                )
            else:
                operands = [f"values[{i}]" for i in ins]
                guard = " or ".join(f"{o} is None" for o in operands)
                body.append(f"_v = None if {guard} else {expr}")
        if hooked:
            m = self.net_mask[out]
            lines = [f"if {k} in ovr:",
                     f"    _v = _pp(_m{k}, _ti{k}, _tc{k}, values, "
                     f"ovr[{k}], {m})",
                     "else:"]
            lines += ["    " + line for line in body]
            lines.append(f"if {out} in inj and _v is not None:")
            lines.append(f"    _v = inj[{out}](_v) & {m}")
            lines.append(f"values[{out}] = _v")
            return lines
        # Plain: collapse the temp into a direct store when possible.
        if len(body) == 1 and body[0].startswith("_v = "):
            return [f"values[{out}] = {body[0][5:]}"]
        return body + [f"values[{out}] = _v"]

    def _source_sources(self, hooked: bool) -> list[str]:
        lines: list[str] = []
        emits: list[tuple[int, str, bool]] = []
        # Externals are masked to the net width at emission, before
        # injection; constants and register state are in-range by invariant
        # (masked at construction / clocking / set_stimulus_state).
        for i, _ in self.ext_pairs:
            m = self.net_mask[i]
            expr = f"None if external[{i}] is None else external[{i}] & {m}"
            emits.append((i, expr, True))
        for i, value in self.const_slots:
            emits.append((i, str(value), False))
        for j, i in enumerate(self.reg_q_ids):
            emits.append((i, f"state[{j}]", False))
        for i, expr, paren in emits:
            if not hooked:
                lines.append(f"values[{i}] = {expr}")
                continue
            lines.append(f"_v = ({expr})" if paren else f"_v = {expr}")
            lines.append(f"if {i} in inj and _v is not None:")
            lines.append(f"    _v = inj[{i}](_v) & {self.net_mask[i]}")
            lines.append(f"values[{i}] = _v")
        return lines

    def _generate_source(self) -> str:
        def fn(name: str, hooked: bool) -> list[str]:
            sig = "values, state, external"
            if hooked:
                sig += ", ovr, inj"
            lines = [f"def {name}({sig}):"]
            body = self._source_sources(hooked)
            for k in range(len(self.sched_modules)):
                body += self._source_lines(k, hooked)
            if not body:
                body = ["pass"]
            lines += ["    " + line for line in body]
            return lines

        chunks = fn("partial_plain", False) + fn("partial_hooked", True)
        return "\n".join(chunks) + "\n"

    def _maybe_dump(self) -> None:
        directory = os.environ.get("REPRO_KERNEL_DUMP")
        if not directory:
            return
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"kernel_{self.netlist.name}.py")
        with open(path, "w") as handle:
            handle.write(self.source)

    # ------------------------------------------------------------------
    # Hook-map construction
    # ------------------------------------------------------------------
    def injector_map(self, injector) -> dict:
        """Net id -> unary corrupter map for a name-based injector.

        Injectors carrying a ``sites`` attribute (net name -> the unary
        corrupter of that net, as produced by :meth:`BusSSLError.injector`)
        hook only those nets, with that corrupter; a generic injector hooks
        every net, matching the interpretive simulator's per-emission call.
        """
        if injector is no_injection:
            return {}
        sites = getattr(injector, "sites", None)
        if sites is None:
            return {i: _bind(injector, name)
                    for i, name in enumerate(self.names)}
        return {
            self.index[name]: fn
            for name, fn in sites.items() if name in self.index
        }

    def override_map(self, module_overrides: Mapping | None) -> dict:
        """Schedule position -> override map."""
        if not module_overrides:
            return {}
        out = {}
        for name, fn in module_overrides.items():
            if name in self.sched_pos:
                out[self.sched_pos[name]] = fn
        return out


class CompiledDatapathSimulator:
    """:class:`~repro.verify.cosim.ProcessorSimulator`'s compiled
    three-valued backend over the kernels.

    ``evaluate_partial`` is bit-compatible with the interpretive
    :class:`~repro.datapath.simulate.DatapathSimulator`'s ``evaluate_partial``.
    The simulator does not clock: callers update :attr:`state` themselves,
    as :class:`~repro.verify.cosim.ProcessorSimulator` does.
    """

    def __init__(
        self,
        netlist,
        injector=no_injection,
        module_overrides: Mapping | None = None,
    ) -> None:
        self.netlist = netlist
        self.compiled = netlist.compiled()
        self.injector = injector
        self.module_overrides = dict(module_overrides or {})
        self.state: dict[str, int] = {
            reg.name: reg.reset_value for reg in netlist.registers
        }
        cd = self.compiled
        self._values: list = [None] * cd.n_nets
        self._ext: list = [None] * cd.n_nets
        self._inj = cd.injector_map(injector)
        self._ovr = cd.override_map(self.module_overrides)
        self.hooked = bool(self._inj) or bool(self._ovr)

    def reset(self) -> None:
        for reg in self.netlist.registers:
            self.state[reg.name] = reg.reset_value

    def _fill_ext(self, external: Mapping) -> list:
        ext = self._ext
        get = external.get
        for i, name in self.compiled.ext_pairs:
            ext[i] = get(name)
        return ext

    def evaluate_partial(
        self, external: Mapping[str, int | None]
    ) -> dict[str, int | None]:
        cd = self.compiled
        ext = self._fill_ext(external)
        state = [self.state[name] for name in cd.reg_names]
        if self.hooked:
            cd.partial_hooked(self._values, state, ext, self._ovr, self._inj)
        else:
            cd.partial_plain(self._values, state, ext)
        return dict(zip(cd.names, self._values))
