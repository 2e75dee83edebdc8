"""Cone-forked multi-error fault simulation over a shared golden trace.

Concurrent-fault-simulation style: the fault-free ("golden") trace of a
stimulus is simulated once; each planted error is then *forked* against it.
Per cycle, a fork materializes only the net values inside the error site's
activated fanout cone (a sparse overlay keyed by net id, plus a sparse
forked-register diff across cycles).  A forked value equal to the golden
one never enters the overlay, so a masked error converges back to sharing
the golden trace at zero marginal cost.  A fork may start at any golden
cycle, from the golden state there (a bad machine that has rejoined the
golden), and its outcome carries the register diff it held at the cycle it
stopped in.

Soundness contract (why consumers can trust the outcome kinds).  Every
kind but ``"clean"`` and ``"unsupported"`` is a *touch* at ``cycle``: up to
the start of that cycle the erroneous machine is the golden machine plus
the outcome's ``state_diff``, so a serial run of it may resume there.

``"sts"``
    A status net diverged.  STS values feed the controller *within* the
    cycle (the co-simulation fixpoint), so every forked value of that cycle
    onward is suspect.  Checked before everything else each cycle.
``"dpo"``
    First (cycle, net) where a data primary output differs with both sides
    concrete — exactly :func:`repro.verify.cosim.traces_diverge` — and no
    STS net diverged at or before that cycle.
``"abort"``
    The forked machine would clock an unresolved control or load an
    unresolved value — the same conditions under which the co-simulator
    raises ``CosimError``.  With no prior STS divergence this is exact.
``"observed"``
    A watched net — DPO, STS or a caller-supplied extra such as an
    environment-read internal net — diverged in a way not covered above
    (e.g. a known/unknown mismatch).
``"clean"``
    The fork never touched a watched net: the erroneous machine's observable
    behaviour is identical to golden for this stimulus.
``"unsupported"``
    The error's injector carries no site annotation; no fork was attempted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.datapath.simulate import no_injection


@dataclass
class ForkOutcome:
    """Result of forking one error against the golden trace."""

    kind: str
    cycle: int | None = None
    net: str | None = None
    #: Datapath register name -> the forked machine's value, for every
    #: register whose value differs from the golden's at the start of
    #: ``cycle``.
    state_diff: dict[str, int] = field(default_factory=dict)
    #: Cycles in which the fork actually held diverging values.
    forked_cycles: int = 0
    #: Module evaluations performed inside cones (cost metric).
    evals: int = 0


class BatchFaultSimulator:
    """Fork many errors against one golden :class:`~repro.verify.cosim.Trace`.

    The golden trace is densified once (per-cycle lists indexed by net id);
    every fork shares those arrays.  ``observed_extra`` names additional
    nets the environment reads back (e.g. DLX's ``mem_alu.y``) so a fork
    counts them as observable.
    """

    def __init__(self, processor, golden_trace=None, observed_extra=(),
                 dense_cycles=None) -> None:
        self.processor = processor
        self.cd = processor.datapath.compiled()
        cd = self.cd
        if dense_cycles is not None:
            # Pre-densified golden cycles (e.g. from the batched lane
            # environments, which produce dense per-lane arrays directly).
            self.cycles = dense_cycles
        else:
            self.cycles = [
                [cycle.datapath.get(name) for name in cd.names]
                for cycle in golden_trace.cycles
            ]
        self.observed_set = frozenset(
            cd.dpo_ids + cd.sts_ids
            + [cd.index[n] for n in observed_extra if n in cd.index]
        )

    # ------------------------------------------------------------------
    def hooks_for(self, error):
        """(inj_map, ovr_map) for an error, or None when unsupported."""
        cd = self.cd
        injector, module_overrides = error.hooks(self.processor.datapath)
        inj = {}
        if injector is not no_injection:
            if getattr(injector, "sites", None) is None:
                return None  # no site annotation: cone unknown
            inj = cd.injector_map(injector)
        ovr = cd.override_map(module_overrides)
        return inj, ovr

    def fork(self, error, start: int = 0) -> ForkOutcome:
        """Fork ``error`` from the golden state at the start of cycle
        ``start`` until its first observable divergence."""
        hooks = self.hooks_for(error)
        if hooks is None:
            return ForkOutcome("unsupported")
        return self._fork(*hooks, start)

    # ------------------------------------------------------------------
    def _fork(self, inj, ovr, start) -> ForkOutcome:
        cd = self.cd
        names = cd.names
        sched_modules = cd.sched_modules
        sched_out, sched_in, sched_ctl = (
            cd.sched_out, cd.sched_in, cd.sched_ctl,
        )
        fanout = cd.fanout_sched
        n_regs = len(cd.registers)
        net_mask = cd.net_mask

        # Permanent per-cycle seeds: overridden / injected combinational
        # modules re-evaluate every cycle; injected source nets re-emit.
        forced = set(ovr)
        inj_src: list[tuple[int, object]] = []
        inj_q: dict[int, object] = {}  # reg position -> corrupter
        q_pos = {q: j for j, q in enumerate(cd.reg_q_ids)}
        for i, fn in inj.items():
            if i in q_pos:
                inj_q[q_pos[i]] = fn
            else:
                driver = self.processor.datapath.nets[names[i]].driver
                if driver is not None and driver.module.name in cd.sched_pos:
                    forced.add(cd.sched_pos[driver.module.name])
                else:
                    inj_src.append((i, fn))  # external or constant
        forced = sorted(forced)

        state_diff: dict[int, int] = {}
        forked_cycles = 0
        evals = 0

        def outcome(kind, t, net):
            diff = {cd.reg_names[j]: v for j, v in state_diff.items()}
            return ForkOutcome(kind, t, net, diff, forked_cycles, evals)

        for t in range(start, len(self.cycles)):
            golden = self.cycles[t]
            overlay: dict = {}

            def read(i):
                return overlay[i] if i in overlay else golden[i]

            # -- seed the cycle's cone ---------------------------------
            heap = list(forced)
            heapq.heapify(heap)
            queued = set(forced)

            def touch(i):
                value_changed_for = fanout[i]
                for k in value_changed_for:
                    if k not in queued:
                        queued.add(k)
                        heapq.heappush(heap, k)

            for j in set(state_diff) | set(inj_q):
                q_id = cd.reg_q_ids[j]
                raw = state_diff.get(j, golden[q_id])
                fn = inj_q.get(j)
                value = (
                    fn(raw) & net_mask[q_id]
                    if fn is not None and raw is not None else raw
                )
                if value != golden[q_id]:
                    overlay[q_id] = value
                    touch(q_id)
            for i, fn in inj_src:
                base = golden[i]
                if base is None:
                    continue  # partial sources skip injection on unknowns
                value = fn(base) & net_mask[i]
                if value != golden[i]:
                    overlay[i] = value
                    touch(i)

            # -- propagate through the cone in topological order -------
            while heap:
                k = heapq.heappop(heap)
                module = sched_modules[k]
                value = None
                controls = [read(c) for c in sched_ctl[k]]
                if None not in controls:
                    inputs = [read(i) for i in sched_in[k]]
                    known = True
                    for i in module.needed_inputs(controls):
                        if inputs[i] is None:
                            known = False
                            break
                    if known:
                        inputs = [0 if v is None else v for v in inputs]
                        fn = ovr.get(k)
                        if fn is not None:
                            value = fn(inputs, controls) & net_mask[sched_out[k]]
                        else:
                            value = module.evaluate(inputs, controls)
                        evals += 1
                out = sched_out[k]
                fn = inj.get(out)
                if fn is not None and value is not None:
                    value = fn(value) & net_mask[out]
                if value != golden[out]:
                    overlay[out] = value
                    touch(out)

            if overlay or state_diff:
                forked_cycles += 1

            # -- per-cycle observability checks (STS strictly first) ---
            sts_hit = None
            for i in cd.sts_ids:
                if i in overlay:
                    sts_hit = i
                    break
            if sts_hit is not None:
                return outcome("sts", t, names[sts_hit])
            for i in cd.dpo_ids:
                if (i in overlay and overlay[i] is not None
                        and golden[i] is not None):
                    return outcome("dpo", t, names[i])
            for i in overlay:
                if i in self.observed_set:
                    return outcome("observed", t, names[i])

            # -- clock the forked registers ----------------------------
            next_golden = (
                self.cycles[t + 1] if t + 1 < len(self.cycles) else None
            )
            new_diff: dict[int, int] = {}
            for j in range(n_regs):
                d_id = cd.reg_d_ids[j]
                ctl_ids = cd.reg_ctl_ids[j]
                affected = j in state_diff or d_id in overlay
                if not affected:
                    for c in ctl_ids:
                        if c in overlay:
                            affected = True
                            break
                if not affected:
                    continue
                reg = cd.registers[j]
                controls = [read(c) for c in ctl_ids]
                if None in controls:
                    return outcome("abort", t, reg.name)
                current = state_diff.get(j, golden[cd.reg_q_ids[j]])
                d_value = read(d_id)
                if d_value is None:
                    if reg.next_state(current, 0, controls) != reg.next_state(
                        current, 1, controls
                    ):
                        return outcome("abort", t, reg.name)
                    d_value = current
                if next_golden is None:
                    continue
                forked = reg.next_state(current, d_value, controls)
                if forked != next_golden[cd.reg_q_ids[j]]:
                    new_diff[j] = forked
            state_diff = new_diff

        return ForkOutcome("clean", forked_cycles=forked_cycles, evals=evals)
