"""Batched (lane-vectorised) datapath kernels over numpy.

The compiled kernels in :mod:`repro.datapath.compiled` evaluate one stimulus
at a time; a 10k-program fuzz sweep is 10k kernel calls.  This module emits
the *batch-axis* counterpart: every net value becomes a ``uint64`` array of
shape ``(B,)`` — one slot per **lane** — and one generated kernel call
carries all ``B`` stimuli through the netlist at once.  Word-level module
semantics map onto vectorised array arithmetic with explicit masking to each
net's width; per-lane divergence (mux selects, tri-state enables, three-
valued unknowns) is handled by masked select (``np.where``) rather than
branching.

Lane layout and masking rules
-----------------------------

* ``values[i]`` / ``known[i]`` are ``(B,)`` arrays indexed by net id;
  ``state[j]`` by register position — the same dense ids as the scalar
  compiled kernels.
* All arithmetic runs in ``uint64``; net widths above 64 are rejected at
  construction.  ``(a + b) & m``, ``(a - b) & m`` and ``(a * b) & m`` are
  exact mod ``2**w`` for ``w <= 64`` because uint64 wraparound preserves the
  low 64 bits.  Signed comparisons bias both operands by the sign bit and
  compare unsigned.  Shift amounts are clamped *before* shifting (numpy
  shifts by >= 64 are undefined, and ``np.where`` evaluates both branches).
* Externals are masked to the net width in Python **before** array fill —
  numpy 2 refuses negative ints in uint64 arrays — matching the scalar
  backends, which mask externals at emission.
* The kernels are three-valued, like the scalar ones, and keep the
  **stored-0 invariant**: a lane whose net is unknown stores value 0
  (``np.where(known, expr, 0)``), which mirrors the scalar kernels'
  0-substitution and keeps downstream vectorised arithmetic well-defined.
* The kernels only evaluate: the lane co-simulator
  (:mod:`repro.verify.lanes`) clocks the registers itself.
* Injectors and module overrides are scalar Python callables; the hooked
  kernel applies them elementwise at the few hooked sites only, so fault-free
  lanes pay nothing.  Injected values are masked to the net width, the
  semantics all backends share.

The scalar compiled kernels remain the differential oracle (see
``tests/test_batched_differential.py``) and the fallback when numpy is
absent: numpy is an *optional* dependency, and every entry point raises a
clean ``ImportError`` (via :func:`require_numpy`) when it is missing.
"""

from __future__ import annotations

import os
import threading
from typing import Mapping, Sequence

from repro.datapath.simulate import no_injection
from repro.utils.bits import mask

try:  # pragma: no cover - exercised by the no-numpy CI tier
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAS_NUMPY = _np is not None

#: Default lane width used when a ``lanes`` knob is left on auto (``None``).
DEFAULT_LANES = 64


def require_numpy() -> None:
    """Raise a clean ImportError when the optional numpy dependency is absent."""
    if _np is None:
        raise ImportError(
            "the batched datapath backend requires numpy, which is an "
            "optional dependency; install numpy or use lanes=0 (the scalar "
            "compiled kernels) instead"
        )


def effective_lanes(lanes: int | None) -> int:
    """Resolve a ``lanes`` knob to a concrete lane width.

    ``None`` means auto: :data:`DEFAULT_LANES` when numpy is importable,
    else 0 (scalar).  0 always means scalar.  An explicit ``lanes >= 1``
    requires numpy and raises the clean ImportError when it is missing.
    """
    if lanes is None:
        return DEFAULT_LANES if HAS_NUMPY else 0
    if lanes < 0:
        raise ValueError(f"lanes must be >= 0, got {lanes}")
    if lanes:
        require_numpy()
    return lanes


# ---------------------------------------------------------------------------
# Process-global profiling counters (reported on the service /metrics
# endpoint; multiprocessing shards return their deltas).
# ---------------------------------------------------------------------------
_COUNTER_KEYS = ("batch_calls", "lane_cycles", "active_lane_cycles")
_counters_lock = threading.Lock()
_counters = {key: 0 for key in _COUNTER_KEYS}


def _note_call(lanes: int, active: int) -> None:
    with _counters_lock:
        _counters["batch_calls"] += 1
        _counters["lane_cycles"] += lanes
        _counters["active_lane_cycles"] += active


def counters_snapshot() -> dict:
    """Current batched-kernel counters plus the derived batch fill rate."""
    with _counters_lock:
        snap = dict(_counters)
    lane_cycles = snap["lane_cycles"]
    snap["fill_rate"] = (
        round(snap["active_lane_cycles"] / lane_cycles, 4) if lane_cycles else 1.0
    )
    return snap


def merge_counters(delta: Mapping[str, int]) -> None:
    """Fold a shard's counter delta (from a worker process) into this one."""
    with _counters_lock:
        for key in _COUNTER_KEYS:
            _counters[key] += int(delta.get(key, 0))


def counters_delta(before: Mapping[str, int]) -> dict:
    """Difference of the current counters against a prior snapshot."""
    now = counters_snapshot()
    return {key: now[key] - before.get(key, 0) for key in _COUNTER_KEYS}


# ---------------------------------------------------------------------------
# Elementwise fallbacks for hooked sites and module types without a
# vectorised expression.  These mirror compiled._pp / module.evaluate lane
# by lane and are deliberately slow — they only run at hooked positions.
# ---------------------------------------------------------------------------
def _pl(module, in_ids, ctl_ids, values, known, n, override, m):
    """Elementwise three-valued evaluation.

    Mirrors ``compiled._pp``: all controls known -> needed data inputs
    known -> 0-substitute unneeded unknowns -> evaluate (or override).
    Unknown lanes store 0 (the stored-0 invariant).
    """
    out = _np.zeros(n, _np.uint64)
    out_known = _np.zeros(n, _np.bool_)
    fn = module.evaluate if override is None else override
    for b in range(n):
        controls = []
        ok = True
        for i in ctl_ids:
            if not known[i][b]:
                ok = False
                break
            controls.append(int(values[i][b]))
        if not ok:
            continue
        inputs = [int(values[i][b]) if known[i][b] else None for i in in_ids]
        for idx in module.needed_inputs(controls):
            if inputs[idx] is None:
                ok = False
                break
        if not ok:
            continue
        inputs = [0 if v is None else v for v in inputs]
        out[b] = fn(inputs, controls) & m
        out_known[b] = True
    return out, out_known


def _ipk(fn, vals, kn, m):
    """Apply a scalar injector to the known lanes only."""
    out = vals.copy()
    for b in range(len(vals)):
        if kn[b]:
            out[b] = fn(int(vals[b])) & m
    return out


# ---------------------------------------------------------------------------
# Vectorised helpers for the module types whose scalar semantics need more
# than one masked-select (kept as named functions so the generated source
# stays readable).
# ---------------------------------------------------------------------------
def _sra(v, amt, w, m):
    """Arithmetic right shift: clamp the amount to w-1, then fill the sign."""
    ac = _np.minimum(amt, w - 1)
    lo = v >> ac
    fill = m ^ (m >> ac)
    return _np.where((v & (1 << (w - 1))) != 0, lo | fill, lo)


def _rotl(v, amt, w, m):
    ac = amt % w
    acs = _np.where(ac == 0, 1, ac)  # dodge shift-by-w (UB at w=64)
    rot = ((v << acs) | (v >> (w - acs))) & m
    return _np.where(ac == 0, v, rot)


def _rotr(v, amt, w, m):
    ac = amt % w
    acs = _np.where(ac == 0, 1, ac)
    rot = ((v >> acs) | (v << (w - acs))) & m
    return _np.where(ac == 0, v, rot)


def _np_expr(module, a: list[str]) -> str | None:
    """Vectorised numpy expression for a module, or None for elementwise.

    ``a`` holds operand expressions (uint64 arrays, every lane masked to the
    operand net's width).  The expression must equal ``module.evaluate``
    bit-for-bit on every lane.
    """
    t = type(module).__name__
    w = getattr(module, "width", None)
    m = mask(w) if w else None
    if t == "AddModule":
        return f"(({a[0]} + {a[1]}) & {m})"
    if t == "SubModule":
        return f"(({a[0]} - {a[1]}) & {m})"
    if t == "MultModule":
        return f"(({a[0]} * {a[1]}) & {m})"
    if t == "XorModule":
        return f"({a[0]} ^ {a[1]})"
    if t == "XnorModule":
        return f"(~({a[0]} ^ {a[1]}) & {m})"
    if t == "NotModule":
        return f"(~{a[0]} & {m})"
    if t == "AndModule":
        return f"({a[0]} & {a[1]})"
    if t == "OrModule":
        return f"({a[0]} | {a[1]})"
    if t == "NandModule":
        return f"(~({a[0]} & {a[1]}) & {m})"
    if t == "NorModule":
        return f"(~({a[0]} | {a[1]}) & {m})"
    if t == "ZeroExtendModule":
        return f"({a[0]} & {mask(module.in_width)})"
    if t == "SliceModule":
        return f"(({a[0]} >> {module.lo}) & {mask(module.out_width)})"
    if t == "SignExtendModule":
        sign = 1 << (module.in_width - 1)
        ext = mask(module.out_width) ^ mask(module.in_width)
        return f"_w(({a[0]} & {sign}) != 0, {a[0]} | {ext}, {a[0]})"
    if t == "ConcatModule":
        return (f"(({a[1]} << {module.low_width}) | "
                f"({a[0]} & {mask(module.low_width)}))")
    if t in ("EqModule", "NeModule", "LtuModule", "LeuModule",
             "GtuModule", "GeuModule"):
        op = {"EqModule": "==", "NeModule": "!=", "LtuModule": "<",
              "LeuModule": "<=", "GtuModule": ">", "GeuModule": ">="}[t]
        return f"(({a[0]} {op} {a[1]}).astype(_dt))"
    if t in ("LtModule", "LeModule", "GtModule", "GeModule"):
        op = {"LtModule": "<", "LeModule": "<=",
              "GtModule": ">", "GeModule": ">="}[t]
        s = 1 << (w - 1)
        return f"((({a[0]} ^ {s}) {op} ({a[1]} ^ {s})).astype(_dt))"
    if t == "AddOvfModule":
        s = w - 1
        return (f"(((~({a[0]} ^ {a[1]}) & "
                f"({a[0]} ^ (({a[0]} + {a[1]}) & {m}))) >> {s}) & 1)")
    if t == "SubOvfModule":
        s = w - 1
        return (f"(((({a[0]} ^ {a[1]}) & "
                f"({a[0]} ^ (({a[0]} - {a[1]}) & {m}))) >> {s}) & 1)")
    if t == "ShlModule":
        return (f"_w({a[1]} >= {w}, 0, "
                f"({a[0]} << _w({a[1]} >= {w}, 0, {a[1]})) & {m})")
    if t == "ShrModule":
        return (f"_w({a[1]} >= {w}, 0, "
                f"{a[0]} >> _w({a[1]} >= {w}, 0, {a[1]}))")
    if t == "SraModule":
        return f"_sra({a[0]}, {a[1]}, {w}, {m})"
    if t == "RotlModule":
        return f"_rotl({a[0]}, {a[1]}, {w}, {m})"
    if t == "RotrModule":
        return f"_rotr({a[0]}, {a[1]}, {w}, {m})"
    if t == "MinModule":
        s = 1 << (w - 1)
        return f"_w(({a[0]} ^ {s}) <= ({a[1]} ^ {s}), {a[0]}, {a[1]})"
    if t == "MaxModule":
        s = 1 << (w - 1)
        return f"_w(({a[0]} ^ {s}) >= ({a[1]} ^ {s}), {a[0]}, {a[1]})"
    if t == "AbsModule":
        s = 1 << (w - 1)
        return f"_w(({a[0]} & {s}) != 0, (0 - {a[0]}) & {m}, {a[0]})"
    return None


class BatchedDatapath:
    """Lane-vectorised codegen'd form of one netlist.

    Reuses the dense ids, schedule and hook maps of the scalar
    :class:`~repro.datapath.compiled.CompiledDatapath` and generates two
    three-valued batch kernels::

        partial_plain(n, values, known, state, ext_v, ext_k)
        partial_hooked(n, values, known, state, ext_v, ext_k, ovr, inj)

    ``values`` / ``known`` / ``ext_v`` / ``ext_k`` are lists of ``(n,)``
    arrays indexed by net id; ``state`` is a list of ``(n,)`` arrays indexed
    by register position.  ``ext_v`` entries must already be masked to the
    net width with unknown lanes stored as 0.
    """

    def __init__(self, netlist) -> None:
        require_numpy()
        self.netlist = netlist
        self.cd = netlist.compiled()
        cd = self.cd
        self.net_width = [netlist.nets[name].width for name in cd.names]
        too_wide = [name for name, w in zip(cd.names, self.net_width) if w > 64]
        if too_wide:
            raise ValueError(
                f"batched backend supports net widths <= 64; too wide: "
                f"{too_wide[:4]}"
            )
        self.net_mask = [mask(w) for w in self.net_width]
        self.source = self._generate_source()
        env = self._exec_env()
        exec(compile(self.source, f"<batched:{netlist.name}>", "exec"), env)
        self.partial_plain = env["partial_plain"]
        self.partial_hooked = env["partial_hooked"]
        self._maybe_dump()

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def _exec_env(self) -> dict:
        env = {
            "_np": _np, "_dt": _np.uint64, "_b": _np.bool_, "_w": _np.where,
            "_sra": _sra, "_rotl": _rotl, "_rotr": _rotr,
            "_pl": _pl, "_ipk": _ipk,
        }
        cd = self.cd
        for k, module in enumerate(cd.sched_modules):
            env[f"_m{k}"] = module
            env[f"_ti{k}"] = cd.sched_in[k]
            env[f"_tc{k}"] = cd.sched_ctl[k]
        return env

    def _module_lines(self, k: int, hooked: bool) -> list[str]:
        cd = self.cd
        module = cd.sched_modules[k]
        out = cd.sched_out[k]
        ins = cd.sched_in[k]
        ctls = cd.sched_ctl[k]
        t = type(module).__name__
        m = self.net_mask[out]
        body: list[str] = []
        if t == "MuxModule":
            body.append(f"_s = values[{ctls[0]}]")
            body.append(f"_v = values[{ins[0]}]")
            body.append(f"_kv = known[{ins[0]}]")
            for i in range(1, module.n_inputs):
                body.append(f"_c = _s == {i}")
                body.append(f"_v = _w(_c, values[{ins[i]}], _v)")
                body.append(f"_kv = _w(_c, known[{ins[i]}], _kv)")
            body.append(f"_k = known[{ctls[0]}] & _kv")
        elif t == "TristateModule":
            body.append(f"_s = values[{ctls[0]}] == 1")
            body.append(f"_v = _w(_s, values[{ins[0]}], 0)")
            body.append(f"_k = known[{ctls[0]}] & (~_s | known[{ins[0]}])")
        else:
            expr = _np_expr(module, [f"values[{i}]" for i in ins])
            if expr is None or ctls:
                body.append(f"_v, _k = _pl(_m{k}, _ti{k}, _tc{k}, "
                            f"values, known, n, None, {m})")
            else:
                body.append(f"_v = {expr}")
                knowns = " & ".join(f"known[{i}]" for i in ins)
                body.append(f"_k = {knowns}")
        if hooked:
            lines = [f"if {k} in ovr:",
                     f"    _v, _k = _pl(_m{k}, _ti{k}, _tc{k}, "
                     f"values, known, n, ovr[{k}], {m})",
                     "else:"]
            lines += ["    " + line for line in body]
            lines.append(f"if {out} in inj:")
            lines.append(f"    _v = _ipk(inj[{out}], _v, _k, {m})")
            body = lines
        body.append(f"values[{out}] = _w(_k, _v, 0)")
        body.append(f"known[{out}] = _k")
        return body

    def _source_sources(self, hooked: bool) -> list[str]:
        cd = self.cd
        lines = ["_kt = _np.ones(n, _b)"]
        emits: list[tuple[int, str, str]] = []
        for i, _ in cd.ext_pairs:
            emits.append((i, f"ext_v[{i}] & {self.net_mask[i]}",
                          f"ext_k[{i}]"))
        for i, value in cd.const_slots:
            emits.append((i, f"_np.full(n, {value}, _dt)", "_kt"))
        for j, i in enumerate(cd.reg_q_ids):
            emits.append((i, f"state[{j}]", "_kt"))
        for i, expr, kexpr in emits:
            if not hooked:
                lines.append(f"values[{i}] = {expr}")
            else:
                m = self.net_mask[i]
                lines.append(f"_v = {expr}")
                lines.append(f"if {i} in inj:")
                lines.append(f"    _v = _ipk(inj[{i}], _v, {kexpr}, {m})")
                lines.append(f"values[{i}] = _v")
            lines.append(f"known[{i}] = {kexpr}")
        return lines

    def _generate_source(self) -> str:
        def fn(name: str, hooked: bool) -> list[str]:
            sig = "n, values, known, state, ext_v, ext_k"
            if hooked:
                sig += ", ovr, inj"
            lines = [f"def {name}({sig}):"]
            body = self._source_sources(hooked)
            for k in range(len(self.cd.sched_modules)):
                body += self._module_lines(k, hooked)
            lines += ["    " + line for line in body]
            return lines

        chunks = fn("partial_plain", False) + fn("partial_hooked", True)
        return "\n".join(chunks) + "\n"

    def _maybe_dump(self) -> None:
        directory = os.environ.get("REPRO_KERNEL_DUMP")
        if not directory:
            return
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"batched_{self.netlist.name}.py")
        with open(path, "w") as handle:
            handle.write(self.source)


def batched_datapath(netlist) -> BatchedDatapath:
    """The cached batched form of a netlist.

    Cached on the scalar :class:`CompiledDatapath`, which the netlist
    already invalidates on structural edits — so the batched form follows
    the same lifecycle for free.
    """
    require_numpy()
    cd = netlist.compiled()
    bd = getattr(cd, "_batched", None)
    if bd is None:
        bd = BatchedDatapath(netlist)
        cd._batched = bd
    return bd


class BatchedDatapathSimulator:
    """Lane-batch counterpart of :class:`CompiledDatapathSimulator`.

    Carries ``n_lanes`` independent stimulus streams through one kernel call
    per cycle: ``stage`` stages one external net on every lane and
    ``run_partial`` evaluates them.  The array buffers (``values`` /
    ``known`` / ``state`` and the external staging arrays) are exposed for
    hot-loop consumers like the lane co-simulator, which clocks ``state``
    itself.

    ``active_lanes`` feeds the batch fill-rate counter: consumers carrying
    ragged batches (lanes that already finished their program) lower it so
    the profile counters stay honest about wasted lane-cycles.
    """

    def __init__(
        self,
        netlist,
        n_lanes: int,
        injector=no_injection,
        module_overrides: Mapping | None = None,
    ) -> None:
        require_numpy()
        if n_lanes < 1:
            raise ValueError(f"n_lanes must be >= 1, got {n_lanes}")
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.batched = batched_datapath(netlist)
        self.compiled = self.batched.cd
        cd = self.compiled
        self._inj = cd.injector_map(injector)
        self._ovr = cd.override_map(module_overrides or {})
        self.hooked = bool(self._inj) or bool(self._ovr)
        self.values: list = [None] * cd.n_nets
        self.known: list = [None] * cd.n_nets
        self.state = [
            _np.full(n_lanes, reg.reset_value, _np.uint64)
            for reg in cd.registers
        ]
        self._ext_v: list = [None] * cd.n_nets
        self._ext_k: list = [None] * cd.n_nets
        for i, _ in cd.ext_pairs:
            self._ext_v[i] = _np.zeros(n_lanes, _np.uint64)
            self._ext_k[i] = _np.zeros(n_lanes, _np.bool_)
        self.active_lanes = n_lanes

    def reset(self) -> None:
        for j, reg in enumerate(self.compiled.registers):
            self.state[j] = _np.full(self.n_lanes, reg.reset_value, _np.uint64)

    # -- external staging ----------------------------------------------
    def stage(self, i: int, column: Sequence) -> None:
        """Stage external net ``i`` on every lane: ``column[b]`` on lane
        ``b``, masked to the net width in Python (uint64 arrays refuse
        negative ints), or unknown where it is None (stored 0, per the
        stored-0 invariant)."""
        m = self.batched.net_mask[i]
        self._ext_k[i][:] = [value is not None for value in column]
        self._ext_v[i][:] = [0 if value is None else value & m
                             for value in column]

    # -- kernel invocation ---------------------------------------------
    def run_partial(self) -> None:
        """Run the three-valued kernel on the staged externals."""
        bd = self.batched
        _note_call(self.n_lanes, self.active_lanes)
        if self.hooked:
            bd.partial_hooked(self.n_lanes, self.values, self.known,
                              self.state, self._ext_v, self._ext_k,
                              self._ovr, self._inj)
        else:
            bd.partial_plain(self.n_lanes, self.values, self.known,
                             self.state, self._ext_v, self._ext_k)
