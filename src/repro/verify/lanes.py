"""Lane-batched processor co-simulation over the batched datapath kernels.

:class:`LaneProcessorSimulator` is the batch-axis counterpart of
:class:`repro.verify.cosim.ProcessorSimulator`: it carries ``n_lanes``
independent stimulus streams (one program per lane) through the machine in
lockstep, with one batched datapath kernel call and one lane controller
evaluation per fixpoint sweep instead of one scalar call of each per lane.

Equivalence contract (enforced by ``tests/test_batched_differential.py``):
per lane, every resolved value, every clocked state and every failure
message is byte-identical to a scalar :class:`ProcessorSimulator` run of
that lane alone.  Three design points make that hold:

* **Lockstep global fixpoint.**  ``resolve`` iterates the controller/
  datapath sweep until *all* lanes settle.  A lane that settled early is
  re-swept, but re-sweeping a settled lane is idempotent (same assignment
  -> same controller values -> same partial evaluation), so its values
  cannot drift from the scalar run's.
* **Lane controller kernel.**  Controller values live in lane arrays of
  codes, each lane's index into the signal's domain with one extra code
  for X (:mod:`repro.controller.lanes`), and so does the controller
  state.  Each fixpoint iteration makes one ``ControlNetwork.evaluate``
  call for all lanes: one lookup per node into a table built from the
  entries the scalar kernel uses.  It writes the CTRL codes into the
  datapath's external arrays and reads the STS nets back as codes.  The
  clock edge reuses the settled codes: per CPR, array selects reproduce
  ``PipelinedController.next_state`` (clear wins, then a low enable
  holds, else D loads).  The per-lane value dicts that the environments
  and traces read are decoded once per ``resolve``/``step`` call.
* **Per-lane failure collection.**  Where the scalar co-simulator raises
  (:class:`CosimError` for an unresolved CTRL at the clock edge, an
  unresolved register control or loading an unresolved value;
  :class:`ControlNetworkError` for a CPR loading an X D input), ``step``
  instead records the lane's failure — message-identical to the scalar
  exception, in the scalar check order — and clocks the lane safely: its
  controller state freezes, as the scalar raise leaves it, and a failed
  register holds its value.  The environments stop committing for a
  failed lane; its later values are unobserved.

:func:`run_lanes` steps one per-program testbench per lane (the same
testbench class :func:`repro.verify.cosim.run_testbench` steps on the
scalar co-simulator), so the lane-batched environments add no
architectural logic of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.datapath.batched import BatchedDatapathSimulator, require_numpy
from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.model.processor import Processor
from repro.utils.bits import mask
from repro.verify.cosim import CosimError, CycleTrace, Trace

try:  # pragma: no cover - exercised by the no-numpy CI tier
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class LaneProcessorSimulator:
    """Cycle-accurate lane-batched co-simulator for a :class:`Processor`."""

    def __init__(
        self,
        processor: Processor,
        n_lanes: int,
        injector: Injector = no_injection,
        module_overrides: Mapping[str, ModuleOverride] | None = None,
        max_fixpoint_iters: int = 8,
    ) -> None:
        require_numpy()
        self.processor = processor
        self.n_lanes = n_lanes
        self.dp = BatchedDatapathSimulator(
            processor.datapath, n_lanes, injector=injector,
            module_overrides=module_overrides,
        )
        cd = self.dp.compiled
        self.cd = cd
        controller = processor.controller
        self.kernel = kernel = controller.network.compiled().lane_kernel()
        self.max_fixpoint_iters = max_fixpoint_iters
        nm = self.dp.batched.net_mask
        self._ctrl_x = [
            (name, kernel.x[kernel.index[name]])
            for name in controller.ctrl_signals
        ]
        # CTRL -> datapath: (name, net id, code -> masked net value, X).
        self._ctrl_slots = []
        for name, x in self._ctrl_x:
            i = cd.index.get(name)
            if i is not None:
                domain = kernel.domains[kernel.index[name]]
                values = [value & nm[i] for value in domain] + [0]
                self._ctrl_slots.append(
                    (name, i, _np.array(values, _np.uint64), x)
                )
        # Datapath -> STS: (name, net id, net value -> code, X).
        self._sts_slots = []
        for name in controller.sts_signals:
            i = cd.index.get(name)
            if i is not None:
                self._sts_slots.append((
                    name, i, _net_codes(kernel, name, nm[i]),
                    kernel.x[kernel.index[name]],
                ))
        self._sts_unknown = [
            _np.full(n_lanes, x, _np.intp) for *_, x in self._sts_slots
        ]
        self._cpr_plan = [_cpr_plan(kernel, cpr) for cpr in controller.cprs]
        # Register clock plan: (reg, d_id, ctl_ids, width mask).
        self._reg_plan = [
            (reg, cd.reg_d_ids[j], cd.reg_ctl_ids[j], mask(reg.width))
            for j, reg in enumerate(cd.registers)
        ]
        self.reset()

    def reset(self) -> None:
        self.dp.reset()
        kernel = self.kernel
        #: CPR output name -> lane array of codes.
        self.ctl_state = {
            q: _np.full(
                self.n_lanes, kernel.code_of[kernel.index[q]][value],
                _np.intp,
            )
            for q, value in self.processor.controller.reset_state().items()
        }

    def _drive_ctrl(self, ctl: Mapping) -> None:
        """Stage the CTRL codes as the datapath's CTRL externals."""
        ext_v, ext_k = self.dp._ext_v, self.dp._ext_k
        for name, i, values, x in self._ctrl_slots:
            codes = ctl[name]
            _np.take(values, codes, out=ext_v[i])
            _np.not_equal(codes, x, out=ext_k[i])

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def _settle(
        self,
        cpi_list: Sequence[Mapping],
        dpi_list: Sequence[Mapping],
    ) -> dict:
        """The controller/datapath fixpoint of one cycle on every lane,
        without clocking; returns the settled controller code arrays."""
        processor = self.processor
        ext_names = processor.datapath.external_input_names
        frames = []
        for b in range(self.n_lanes):
            dpi_full: dict = dict.fromkeys(ext_names)
            dpi_full.update(dpi_list[b])
            cpi = cpi_list[b]
            for cpi_name, dpi_name in processor.cpi_dpi_bindings.items():
                if cpi_name in cpi and cpi[cpi_name] is not None:
                    dpi_full[dpi_name] = cpi[cpi_name]
            frames.append(dpi_full)
        self.dp.fill_external(frames)

        controller = processor.controller
        encode = self.kernel.encode
        assignment = {
            name: encode(name, [cpi.get(name) for cpi in cpi_list])
            for name in controller.cpi_signals
        }
        assignment.update(self.ctl_state)
        sts = self._sts_unknown
        for _ in range(self.max_fixpoint_iters):
            ctl = controller.network.evaluate(assignment, lanes=self.n_lanes)
            self._drive_ctrl(ctl)
            self.dp.run_partial()
            values, known = self.dp.values, self.dp.known
            new_sts = [
                _np.where(known[i], codes[values[i]], x)
                for _, i, codes, x in self._sts_slots
            ]
            if all(map(_np.array_equal, new_sts, sts)):
                return ctl
            sts = new_sts
            for (name, *_), codes in zip(self._sts_slots, sts):
                assignment[name] = codes
        raise CosimError(  # pragma: no cover - defensive
            "controller/datapath fixpoint did not settle"
        )

    def resolve(
        self,
        cpi_list: Sequence[Mapping],
        dpi_list: Sequence[Mapping],
    ) -> list[dict]:
        """Resolve one cycle's values for every lane WITHOUT clocking.

        Mirrors :meth:`ProcessorSimulator.resolve` per lane; the resolved
        datapath arrays stay staged in ``self.dp`` (read them with
        :meth:`datapath_dict` / :meth:`dense_datapath`).  Returns the
        per-lane controller value dicts.
        """
        return self.kernel.lane_dicts(self._settle(cpi_list, dpi_list))

    def preview_shallow(self) -> list[dict]:
        """State-only single-sweep preview (MiniPipe's commit peek).

        Evaluate the controller on the pipe-register state alone and feed
        only the CTRL values into one partial datapath evaluation — exactly
        :meth:`ProcessorSimulator.preview_shallow`, on every lane.  Leaves
        the preview staged in ``self.dp``; returns the per-lane controller
        dicts.
        """
        ext_v, ext_k = self.dp._ext_v, self.dp._ext_k
        for i, _ in self.cd.ext_pairs:
            ext_v[i][:] = 0
            ext_k[i][:] = False
        ctl = self.processor.controller.network.evaluate(
            self.ctl_state, lanes=self.n_lanes
        )
        self._drive_ctrl(ctl)
        self.dp.run_partial()
        return self.kernel.lane_dicts(ctl)

    def step(
        self,
        cpi_list: Sequence[Mapping],
        dpi_list: Sequence[Mapping],
    ) -> tuple[list[dict], dict[int, str]]:
        """Resolve and clock one cycle on every lane.

        Returns ``(ctl_values, failures)`` where ``failures`` maps a lane
        index to the message of the :class:`CosimError` (or controller
        :class:`ControlNetworkError`) the scalar co-simulator would have
        raised for that lane this cycle — first failure in scalar check
        order.  Failed lanes are clocked safely (holds instead of loading
        unknowns) so the batch keeps running; callers must stop observing
        a lane once it fails.
        """
        ctl = self._settle(cpi_list, dpi_list)
        failures: dict[int, str] = {}
        unresolved = [(name, ctl[name] == x) for name, x in self._ctrl_x]
        for b in _np.flatnonzero(
            _np.logical_or.reduce([m for _, m in unresolved])
        ):
            names = [name for name, m in unresolved if m[b]]
            failures[int(b)] = (
                f"CTRL signals unresolved after fixpoint: {names}"
            )
        self._clock_controller(ctl, failures)
        self._clock_datapath(failures)
        return self.kernel.lane_dicts(ctl), failures

    def _clock_controller(
        self, ctl: Mapping, failures: dict[int, str]
    ) -> None:
        """``PipelinedController.next_state`` on every lane.

        A lane loading an X D input fails with ``next_state``'s message
        (first CPR in order).  Every failed lane keeps its whole state,
        as the scalar raise (or the earlier CTRL check) leaves it.
        """
        state = self.ctl_state
        new_state = {}
        for q, d, load, x_d, hold, clear, message in self._cpr_plan:
            current = state[q]
            d_codes = ctl[d]
            nxt = load[d_codes]
            x_load = d_codes == x_d
            if hold is not None:
                held = ctl[hold[0]] == hold[1]
                nxt = _np.where(held, current, nxt)
                x_load &= ~held
            if clear is not None:
                cleared = ctl[clear[0]] == clear[1]
                nxt = _np.where(cleared, clear[2], nxt)
                x_load &= ~cleared
            for b in _np.flatnonzero(x_load):
                failures.setdefault(int(b), message)
            new_state[q] = nxt
        if failures:
            frozen = _np.zeros(self.n_lanes, _np.bool_)
            frozen[list(failures)] = True
            for q, nxt in new_state.items():
                new_state[q] = _np.where(frozen, state[q], nxt)
        self.ctl_state = new_state

    def _clock_datapath(self, failures: dict[int, str]) -> None:
        """Vectorised register clocking with per-lane failure collection.

        Mirrors ``ProcessorSimulator._clock`` per lane and per register, in
        order: an unresolved control, then an unknown D that would load,
        each become that lane's failure (first only).  Unknown loads hold
        the current value so the lane stays clocked and safe.
        """
        values, known = self.dp.values, self.dp.known
        state = self.dp.state
        new_state = []
        for j, (reg, d_id, ctl_ids, m) in enumerate(self._reg_plan):
            cur = state[j]
            dv = values[d_id]
            kd = known[d_id]
            ctl_known = None
            for c in ctl_ids:
                kc = known[c]
                ctl_known = kc if ctl_known is None else (ctl_known & kc)
            if ctl_known is not None and not ctl_known.all():
                for b in _np.nonzero(~ctl_known)[0]:
                    failures.setdefault(
                        int(b),
                        f"register {reg.name}: unresolved control at "
                        f"clock edge",
                    )
            # Would the register load D?  (Clear wins, then enable; a
            # register with neither always loads.)
            nxt = _np.where(kd, dv, cur) & m
            loads = _np.ones(self.n_lanes, _np.bool_)
            pos = 0
            if reg.has_enable:
                en = values[ctl_ids[pos]] == 1
                nxt = _np.where(en, nxt, cur)
                loads &= en
                pos += 1
            if reg.has_clear:
                clr = values[ctl_ids[pos]] == 1
                nxt = _np.where(clr, _np.uint64(reg.clear_value), nxt)
                loads &= ~clr
            if ctl_known is not None:
                loads &= ctl_known
                nxt = _np.where(ctl_known, nxt, cur)
            bad_load = loads & ~kd
            if bad_load.any():
                for b in _np.nonzero(bad_load)[0]:
                    failures.setdefault(
                        int(b),
                        f"register {reg.name}: loading an unresolved value",
                    )
                nxt = _np.where(bad_load, cur, nxt)
            new_state.append(nxt)
        for j, nxt in enumerate(new_state):
            state[j] = nxt

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def dense_datapath(self, lane: int) -> list:
        """One lane's resolved values as a dense list indexed by net id
        (``None`` where unknown) — the golden-cycle form
        :class:`repro.datapath.faultsim.BatchFaultSimulator` consumes."""
        values, known = self.dp.values, self.dp.known
        return [
            int(values[i][lane]) if known[i][lane] else None
            for i in range(self.cd.n_nets)
        ]

    def datapath_dict(self, lane: int) -> dict:
        """One lane's resolved values as a name -> value dict (the scalar
        ``resolve`` / ``CycleTrace.datapath`` form)."""
        values, known = self.dp.values, self.dp.known
        return {
            name: int(values[i][lane]) if known[i][lane] else None
            for i, name in enumerate(self.cd.names)
        }


@dataclass
class LaneRun:
    """Per-lane outcome of one batched run."""

    #: ISA-visible outcome (the testbench's ``result()``); None when the
    #: lane failed mid-run.
    result: Any
    #: Co-simulation trace of the lane (format per the ``record`` mode).
    trace: Trace
    #: Scalar ``CosimError`` message, or None for a clean run.
    failure: str | None
    #: Dense per-cycle net-value lists (``record="dense"`` only) — the
    #: golden-cycle form ``BatchFaultSimulator`` consumes.
    dense_cycles: list | None

    def raise_failure(self) -> None:
        """Raise the ``CosimError`` the scalar run of this lane raises, if
        any, so a batch is never silently partial."""
        if self.failure is not None:
            raise CosimError(self.failure)


def run_lanes(
    sim: LaneProcessorSimulator,
    benches: Sequence,
    record: str = "controller",
) -> list[LaneRun]:
    """Run one testbench per lane in lockstep; returns per-lane outcomes.

    Each lane does what :func:`repro.verify.cosim.run_testbench` does for
    its testbench alone, so every lane is byte-identical to a scalar run
    of that program.  Testbenches may run for different numbers of cycles:
    a finished or failed lane steps on the testbench class's
    ``QUIET_STIMULUS``, unobserved, and the simulator's ``active_lanes``
    counts only running lanes so the batch fill-rate counters stay
    honest.  A lane whose scalar run would raise ``CosimError`` records
    the message instead and goes dead (no further commits or trace).

    ``record`` selects the trace format: ``"controller"`` keeps only
    controller values per cycle (what the fuzz coverage collector reads),
    ``"dense"`` additionally collects dense datapath value lists and each
    cycle's testbench save (a golden run the conformance fault simulator
    forks against and resumes excursions from, see
    :func:`repro.verify.cosim.batch_detects`), and ``"full"``
    materializes the scalar ``CycleTrace`` datapath dicts.
    """
    n = sim.n_lanes
    if len(benches) != n:
        raise ValueError(f"expected {n} programs, got {len(benches)}")
    if record not in ("controller", "dense", "full"):
        raise ValueError(f"unknown record mode {record!r}")
    bench_cls = type(benches[0])
    net_ids = [sim.cd.index[name] for name in bench_cls.PREVIEW_NETS]
    quiet_cpi, quiet_dpi = bench_cls.QUIET_STIMULUS
    empty: dict = {}
    traces = [Trace() for _ in range(n)]
    dense: list[list | None] = [
        [] if record == "dense" else None for _ in range(n)
    ]
    failure: list[str | None] = [None] * n

    while True:
        active = [
            b for b in range(n) if failure[b] is None and benches[b].running
        ]
        if not active:
            break
        sim.dp.active_lanes = len(active)
        if bench_cls.SHALLOW_PREVIEW:
            ctl_list = sim.preview_shallow()
        else:
            ctl_list = sim.resolve([empty] * n, [empty] * n)
        values, known = sim.dp.values, sim.dp.known
        columns = [
            [v if k else None
             for v, k in zip(values[i].tolist(), known[i].tolist())]
            for i in net_ids
        ]
        cpi_list = [quiet_cpi] * n
        dpi_list = [quiet_dpi] * n
        saves = {}
        for b in active:
            if record == "dense":
                saves[b] = benches[b].save()
            cpi_list[b], dpi_list[b] = benches[b].cycle(
                ctl_list[b], *(column[b] for column in columns)
            )

        ctl_values, failures = sim.step(cpi_list, dpi_list)
        for b in active:
            if b in failures:
                # The scalar run raises here: no trace for this cycle, and
                # nothing of this lane is observed from now on.
                failure[b] = failures[b]
                continue
            if record == "full":
                datapath = sim.datapath_dict(b)
            else:
                datapath = {}
                if record == "dense":
                    dense[b].append(sim.dense_datapath(b))
            traces[b].cycles.append(CycleTrace(
                datapath=datapath, controller=ctl_values[b],
                bench=saves.get(b),
            ))
            benches[b].advance(ctl_list[b])
    sim.dp.active_lanes = n

    return [
        LaneRun(
            result=None if failure[b] is not None else benches[b].result(),
            trace=traces[b],
            failure=failure[b],
            dense_cycles=dense[b],
        )
        for b in range(n)
    ]


def _net_codes(kernel, name: str, net_mask: int):
    """Net value -> code of the STS signal ``name``, over every value its
    net can hold."""
    code_of = kernel.code_of[kernel.index[name]]
    return _np.array(
        [code_of[value] for value in range(net_mask + 1)], _np.intp
    )


def _cpr_plan(kernel, cpr) -> tuple:
    """How :meth:`LaneProcessorSimulator._clock_controller` clocks ``cpr``:
    ``(q, d, D code -> Q code, X code of D, (enable, code of 0) or None,
    (clear, code of 1, Q code of clear_value) or None, X-D message)``.
    An enable without 0 in its domain never holds, a clear without 1
    never clears."""
    q_code = kernel.code_of[kernel.index[cpr.q]]
    d_id = kernel.index[cpr.d]
    load = [q_code[value] for value in kernel.domains[d_id]] + [q_code[None]]
    hold = clear = None
    if cpr.enable is not None:
        code = kernel.code_of[kernel.index[cpr.enable]].get(0)
        if code is not None:
            hold = (cpr.enable, code)
    if cpr.clear is not None:
        code = kernel.code_of[kernel.index[cpr.clear]].get(1)
        if code is not None:
            clear = (cpr.clear, code, q_code[cpr.clear_value])
    return (cpr.q, cpr.d, _np.array(load, _np.intp), kernel.x[d_id], hold,
            clear, str(cpr.x_input_error()))
