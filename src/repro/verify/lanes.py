"""Lane-batched processor co-simulation over the batched datapath kernels.

:class:`LaneProcessorSimulator` is the batch-axis counterpart of
:class:`repro.verify.cosim.ProcessorSimulator`: it carries ``n_lanes``
independent stimulus streams (one program per lane) through the machine in
lockstep, one batched kernel call per fixpoint sweep instead of one scalar
kernel call per lane.

Equivalence contract (enforced by ``tests/test_batched_differential.py``):
per lane, every resolved value, every clocked state and every failure
message is byte-identical to a scalar :class:`ProcessorSimulator` run of
that lane alone.  Three design points make that hold:

* **Lockstep global fixpoint.**  ``resolve`` iterates the controller/
  datapath sweep until *all* lanes settle.  A lane that settled early is
  re-swept, but re-sweeping a settled lane is idempotent (same assignment
  -> same controller values -> same partial evaluation), so its values
  cannot drift from the scalar run's.
* **Scalar controller.**  The controller is symbolic (domains, not
  bit-vectors) and small; each lane runs the same generated controller
  kernel as the scalar path (``ControlNetwork.evaluate``), once per
  fixpoint sweep, and takes its next controller state from the values
  that sweep settled (``PipelinedController.next_state``), exactly as
  :meth:`ProcessorSimulator.step` does.
* **Per-lane failure collection.**  Where the scalar co-simulator raises
  :class:`CosimError` (unresolved CTRL at the clock edge, unresolved
  register control, loading an unresolved value), ``step`` instead records
  the lane's failure — message-identical to the scalar exception, in the
  scalar check order — and clocks the lane safely (a failed register holds
  its value).  The environments stop committing for a failed lane; its
  later values are unobserved.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.controller.network import ControlNetworkError
from repro.datapath.batched import BatchedDatapathSimulator, require_numpy
from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.model.processor import Processor
from repro.utils.bits import mask
from repro.verify.cosim import CosimError

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
        self.ctl_states = [
            dict(controller.reset_state()) for _ in range(n_lanes)
        ]
        self.max_fixpoint_iters = max_fixpoint_iters
        nm = self.dp.batched.net_mask
        self._ctrl_slots = [
            (name, cd.index[name], nm[cd.index[name]])
            for name in controller.ctrl_signals if name in cd.index
        ]
        self._sts_slots = [
            (name, cd.index[name]) for name in controller.sts_signals
            if name in cd.index
        ]
        # Register clock plan: (reg, d_id, ctl_ids, width mask).
        self._reg_plan = [
            (reg, cd.reg_d_ids[j], cd.reg_ctl_ids[j], mask(reg.width))
            for j, reg in enumerate(cd.registers)
        ]

    def reset(self) -> None:
        self.dp.reset()
        controller = self.processor.controller
        self.ctl_states = [
            dict(controller.reset_state()) for _ in range(self.n_lanes)
        ]

    def _poke_ctrl(self, lane: int, ctl_values: Mapping) -> None:
        ext_v, ext_k = self.dp._ext_v, self.dp._ext_k
        for name, i, m in self._ctrl_slots:
            value = ctl_values.get(name)
            if value is None:
                ext_v[i][lane] = 0
                ext_k[i][lane] = False
            else:
                ext_v[i][lane] = value & m
                ext_k[i][lane] = True

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
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
        processor = self.processor
        evaluate = processor.controller.network.evaluate
        ext_names = processor.datapath.external_input_names
        n = self.n_lanes
        frames = []
        for b in range(n):
            dpi_full: dict = dict.fromkeys(ext_names)
            dpi_full.update(dpi_list[b])
            cpi = cpi_list[b]
            for cpi_name, dpi_name in processor.cpi_dpi_bindings.items():
                if cpi_name in cpi and cpi[cpi_name] is not None:
                    dpi_full[dpi_name] = cpi[cpi_name]
            frames.append(dpi_full)
        self.dp.fill_external(frames, None)

        sts_known: list[dict] = [{} for _ in range(n)]
        ctl_values: list[dict] = [{}] * n
        values, known = None, None
        for _ in range(self.max_fixpoint_iters):
            for b in range(n):
                assignment = dict(cpi_list[b])
                assignment.update(self.ctl_states[b])
                assignment.update(sts_known[b])
                ctl_values[b] = evaluate(assignment)
                self._poke_ctrl(b, ctl_values[b])
            self.dp.run_partial()
            values, known = self.dp.values, self.dp.known
            settled = True
            for b in range(n):
                new_sts = {
                    name: int(values[i][b])
                    for name, i in self._sts_slots if known[i][b]
                }
                if new_sts != sts_known[b]:
                    sts_known[b] = new_sts
                    settled = False
            if settled:
                break
        else:  # pragma: no cover - defensive
            raise CosimError("controller/datapath fixpoint did not settle")
        return ctl_values

    def preview_shallow(self) -> list[dict]:
        """State-only single-sweep preview (MiniEnv's commit peek).

        Per lane: evaluate the controller on the pipe-register state alone,
        feed only the CTRL values into one partial datapath evaluation —
        exactly ``MiniEnv.run``'s pre-commit preview.  Leaves the preview
        staged in ``self.dp``; returns the per-lane controller dicts.
        """
        ext_v, ext_k = self.dp._ext_v, self.dp._ext_k
        for i, _ in self.cd.ext_pairs:
            ext_v[i][:] = 0
            ext_k[i][:] = False
        evaluate = self.processor.controller.network.evaluate
        ctl_values = []
        for b in range(self.n_lanes):
            preview = evaluate(self.ctl_states[b])
            self._poke_ctrl(b, preview)
            ctl_values.append(preview)
        self.dp.run_partial()
        return ctl_values

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
        ctl_values = self.resolve(cpi_list, dpi_list)
        failures: dict[int, str] = {}
        controller = self.processor.controller
        ctrl_names = controller.ctrl_signals

        for b in range(self.n_lanes):
            unknown_ctrl = [
                name for name in ctrl_names
                if ctl_values[b].get(name) is None
            ]
            if unknown_ctrl:
                failures[b] = (
                    f"CTRL signals unresolved after fixpoint: {unknown_ctrl}"
                )

        for b in range(self.n_lanes):
            if b in failures:
                continue  # scalar raised before clocking: freeze the lane
            try:
                self.ctl_states[b] = controller.next_state(
                    self.ctl_states[b], ctl_values[b]
                )
            except ControlNetworkError as exc:
                failures[b] = str(exc)

        self._clock_datapath(failures)
        return ctl_values, failures

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

    def set_stimulus_state(self, lane: int, state: Mapping[str, int]) -> None:
        """Set stimulus-register contents for one lane (masked)."""
        for name, value in state.items():
            self.dp.set_state(name, lane, value)
