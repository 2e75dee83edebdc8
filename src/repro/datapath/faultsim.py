"""Cone-forked multi-error fault simulation over a shared golden trace.

Concurrent-fault-simulation style: the fault-free ("golden") trace of a
stimulus is simulated once; each planted error is then *forked* against it.
Per cycle, a fork evaluates only the modules in the error site's activated
fanout cone, on one copy of the golden cycle's dense net values, and keeps
a sparse forked-register diff across cycles, so a masked error converges
back to sharing the golden trace at zero marginal cost.  While the fork
holds no register diff, it builds a cycle's cone only where the error is
*active* (some seed, an injected net or an overridden module's output,
moves off its golden value on golden inputs) and some seed is
*observable*.  A fork may start at any golden cycle, from the golden state
there (a bad machine that has rejoined the golden).

Observability.  ``BatchFaultSimulator.observable`` gives every net a
bitmask over the golden cycles: bit ``t`` is set when a change of the net
at cycle ``t`` can reach what the fork reads after the cone, an STS net, a
previewed net or a register's data or control input.  One backward sweep
of the schedule builds it: a control input always passes, a data input
only where the module's golden controls need it (``needed_inputs``: the
input a mux's golden select picks, a tristate's input while enabled; every
input where a control is unknown).  Skipping such a cycle is exact.  A net
the cycle moves is a seed or the output of a module with a moved input,
and under golden controls only a needed data input or a control input can
move the output; those are the edges the sweep passes.  So a moved watched
net or register input leads back to an observable seed, and with none the
cone would end with no controller step, no judgement and no register diff.

Soundness contract.  Up to the start of the cycle a fork stops in, the
erroneous machine is the golden machine plus the outcome's ``state_diff``,
with the golden's controller and testbench state.  A cycle keeps that
when its bad controller feeds the datapath the CTRLs the fork used and
reaches the golden's next state, and its testbench commits the same
events, supplies the same stimulus and ends in the same state.  The fork
checks this wherever it moves an STS net or a net the judge previews
(``judge.preview_nets``, every DPO net among them); a cycle it skips moves
neither (see Observability).  It follows an STS divergence through the
controller: re-evaluated on the golden cycle's CPI and CPR values with the
fork's STS values, changed CTRLs enter the fork and propagate until the
STS values settle (within ``repro.verify.cosim.FIXPOINT_ITERS`` sweeps).
The ``judge`` (``repro.verify.cosim.TestbenchJudge``) replays the bad
testbench's cycle on the fork's STS and previewed values.  Those equal
what the testbench previews because no STS or previewed net has a data
primary input in its fan-in, nor a CTRL on those paths a controller
primary input (or, under ``SHALLOW_PREVIEW``, an STS;
``tests/test_faultsim_precondition.py``).

Outcome kinds:

``"clean"``
    No cycle broke the invariant: the erroneous machine commits the golden
    machine's events for this stimulus.
``"detected"``
    At ``cycle`` the bad testbench commits an event that departs from the
    specification's.
``"touch"``
    At ``cycle`` the invariant breaks: the STS feedback does not settle, a
    CTRL is unresolved, a CPR's next state differs, the judge sees another
    stimulus or testbench state, or a register would clock an unresolved
    control or load an unresolved value (where the co-simulator raises
    ``CosimError``).  A serial run of the bad machine may resume at the
    start of ``cycle`` from the golden state plus ``state_diff``.
``"unsupported"``
    The error's injector carries no site annotation; no fork was attempted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.controller.network import ControlNetworkError
from repro.datapath.simulate import no_injection
from repro.verify.cosim import FIXPOINT_ITERS


@dataclass
class ForkOutcome:
    """Result of forking one error against the golden trace."""

    kind: str
    cycle: int | None = None
    #: Datapath register name -> the forked machine's value, for every
    #: register whose value differs from the golden's at the start of
    #: ``cycle``.
    state_diff: dict[str, int] = field(default_factory=dict)
    #: Cycles in which the fork actually held diverging values.
    forked_cycles: int = 0


class BatchFaultSimulator:
    """Fork many errors against one golden :class:`~repro.verify.cosim.Trace`.

    ``golden_trace`` is the fault-free run: its cycles' controller values
    and, for the judge, the testbench's saves and stimulus.  Its datapath
    values are densified once (per-cycle lists indexed by net id) unless
    ``dense_cycles`` supplies them; every fork shares those arrays.
    ``judge(cycle, values)`` decides whether the bad machine's testbench
    sees a touch at ``cycle``, given the bad machine's STS and
    ``judge.preview_nets`` values by net name: ``"detected"``, ``"touch"``
    or None (invisible).
    """

    def __init__(self, processor, golden_trace, judge,
                 dense_cycles=None) -> None:
        self.processor = processor
        self.golden = golden_trace
        self.judge = judge
        self.cd = cd = processor.datapath.compiled()
        if dense_cycles is not None:
            # Pre-densified golden cycles (e.g. from the batched lane
            # environments, which produce dense per-lane arrays directly).
            self.cycles = dense_cycles
        else:
            self.cycles = [
                [cycle.datapath.get(name) for name in cd.names]
                for cycle in golden_trace.cycles
            ]
        controller = processor.controller
        self.sts = [(name, cd.index[name]) for name in controller.sts_signals]
        self.ctrl = [(name, cd.index[name]) for name in controller.ctrl_signals]
        self.cprs = controller.csi_signals
        self.sts_ids = {i for _, i in self.sts}
        self.watched = sorted(
            self.sts_ids | {cd.index[name] for name in judge.preview_nets}
        )
        #: Net id -> positions of the registers reading it (data or
        #: control).
        self.readers: list[list[int]] = [[] for _ in range(cd.n_nets)]
        for j, d_id in enumerate(cd.reg_d_ids):
            for i in {d_id, *cd.reg_ctl_ids[j]}:
                self.readers[i].append(j)
        self.observable = self._observability()

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
        ``start`` until the first cycle that breaks the invariant."""
        hooks = self.hooks_for(error)
        if hooks is None:
            return ForkOutcome("unsupported")
        return self._fork(*hooks, start)

    # ------------------------------------------------------------------
    def _observability(self) -> list[int]:
        """``observable``: net id -> bitmask over the golden cycles, from
        one backward sweep of the schedule (see the module docstring)."""
        cd = self.cd
        every = (1 << len(self.cycles)) - 1
        observable = [0] * cd.n_nets
        for i in set(self.watched).union(cd.reg_d_ids, *cd.reg_ctl_ids):
            observable[i] = every
        for k in reversed(range(len(cd.sched_modules))):
            seen = observable[cd.sched_out[k]]
            if not seen:
                continue
            ctl, ins = cd.sched_ctl[k], cd.sched_in[k]
            passes = [every] * len(ins)
            if ctl:
                module = cd.sched_modules[k]
                passes = [0] * len(ins)
                for t, values in enumerate(self.cycles):
                    if seen >> t & 1:
                        controls = [values[c] for c in ctl]
                        needed = (range(len(ins)) if None in controls
                                  else module.needed_inputs(controls))
                        for x in needed:
                            passes[x] |= 1 << t
            for c in ctl:
                observable[c] |= seen
            for i, needed_at in zip(ins, passes):
                observable[i] |= seen & needed_at
        return observable

    def _fork(self, inj, ovr, start) -> ForkOutcome:
        cd = self.cd
        names = cd.names
        sched_modules = cd.sched_modules
        sched_out, sched_in, sched_ctl = (
            cd.sched_out, cd.sched_in, cd.sched_ctl,
        )
        fanout = cd.fanout_sched
        net_mask = cd.net_mask
        cycles = self.cycles
        heap: list[int] = []
        queued: set[int] = set()
        touched: list[int] = []  # nets ``put`` moved this cycle
        values: list = []  # this cycle's forked values, by net id

        def evaluate(k):
            """Scheduled module ``k`` on ``values``, with the error's
            override and injection."""
            module = sched_modules[k]
            value = None
            controls = [values[c] for c in sched_ctl[k]]
            if None not in controls:
                inputs = [values[i] for i in sched_in[k]]
                if None in inputs and all(
                    inputs[x] is not None
                    for x in module.needed_inputs(controls)
                ):
                    inputs = [0 if v is None else v for v in inputs]
                if None not in inputs:
                    fn = ovr.get(k)
                    if fn is not None:
                        value = fn(inputs, controls) & net_mask[sched_out[k]]
                    else:
                        value = module.evaluate(inputs, controls)
            fn = inj.get(sched_out[k])
            if fn is not None and value is not None:
                value = fn(value) & net_mask[sched_out[k]]
            return value

        def put(i, value):
            """Give net ``i`` the forked ``value``; queue its readers
            when that changes what they read."""
            if value != values[i]:
                values[i] = value
                touched.append(i)
                for k in fanout[i]:
                    if k not in queued:
                        queued.add(k)
                        heapq.heappush(heap, k)

        def propagate():
            """Evaluate the queued cone in topological order."""
            while heap:
                k = heapq.heappop(heap)
                put(sched_out[k], evaluate(k))
            queued.clear()

        # Permanent per-cycle seeds: overridden / injected combinational
        # modules re-evaluate every cycle; injected source nets and
        # register outputs re-emit.
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
        # The cycles at which some seed's change can reach a watched net
        # or a register.
        observable = 0
        for i in set(inj).union(sched_out[k] for k in ovr):
            observable |= self.observable[i]
        inj_items = list(inj.items())

        state_diff: dict[int, int] = {}
        forked_cycles = 0

        def outcome(kind, t):
            diff = {cd.reg_names[j]: v for j, v in state_diff.items()}
            return ForkOutcome(kind, t, diff, forked_cycles)

        for t in range(start, len(cycles)):
            values = golden = cycles[t]
            if not state_diff:
                # With no register diff, the cycle is quiet when every seed
                # yields its golden value: an injected net keeps it, and an
                # overridden module computes it on golden inputs.
                for i, fn in inj_items:
                    v = golden[i]
                    if v is not None and fn(v) & net_mask[i] != v:
                        break
                else:
                    for k in ovr:
                        if evaluate(k) != golden[sched_out[k]]:
                            break
                    else:
                        continue
                if not observable >> t & 1:
                    forked_cycles += 1  # masked inside the cycle
                    continue

            # -- seed and propagate the cycle's cone -------------------
            values = golden.copy()
            touched.clear()
            heap[:] = forced  # sorted: already a heap
            queued.update(forced)
            for j in set(state_diff) | set(inj_q):
                q_id = cd.reg_q_ids[j]
                value = state_diff.get(j, golden[q_id])
                fn = inj_q.get(j)
                if fn is not None and value is not None:
                    value = fn(value) & net_mask[q_id]
                put(q_id, value)
            for i, fn in inj_src:
                if golden[i] is not None:  # partial sources skip unknowns
                    put(i, fn(golden[i]) & net_mask[i])
            propagate()
            changed = {i for i in touched if values[i] != golden[i]}
            if changed or state_diff:
                forked_cycles += 1

            # -- the controller and the testbench see the touch? -------
            if not changed.isdisjoint(self.sts_ids):
                if self._controller_diverges(t, values, put, propagate, inj):
                    return outcome("touch", t)
                changed = {i for i in touched if values[i] != golden[i]}
            if not changed.isdisjoint(self.watched):
                verdict = self.judge(t, {names[i]: values[i]
                                         for i in self.watched})
                if verdict is not None:
                    return outcome(verdict, t)

            # -- clock the forked registers ----------------------------
            next_golden = cycles[t + 1] if t + 1 < len(cycles) else None
            affected = set(state_diff)
            for i in changed:
                affected.update(self.readers[i])
            new_diff: dict[int, int] = {}
            for j in sorted(affected):
                reg = cd.registers[j]
                controls = [values[c] for c in cd.reg_ctl_ids[j]]
                if None in controls:
                    return outcome("touch", t)
                current = state_diff.get(j, golden[cd.reg_q_ids[j]])
                d_value = values[cd.reg_d_ids[j]]
                if d_value is None:
                    if reg.next_state(current, 0, controls) != reg.next_state(
                        current, 1, controls
                    ):
                        return outcome("touch", t)
                    d_value = current
                if next_golden is None:
                    continue
                forked = reg.next_state(current, d_value, controls)
                if forked != next_golden[cd.reg_q_ids[j]]:
                    new_diff[j] = forked
            state_diff = new_diff

        return ForkOutcome("clean", forked_cycles=forked_cycles)

    def _controller_diverges(self, t, values, put, propagate, inj) -> bool:
        """Follow the fork's STS values (in ``values``, the cycle's dense
        forked values) through the controller at cycle ``t``: changed CTRLs
        enter the fork (``put``) and propagate until the STS values settle.
        True when the bad machine's controller leaves the fork: its
        feedback does not settle, a CTRL is unresolved, or its next state
        differs from the golden's."""
        controller = self.processor.controller
        net_mask = self.cd.net_mask
        golden = self.golden.cycles[t].controller
        for _ in range(FIXPOINT_ITERS):
            assignment = dict(golden)
            sts = {name: values[i] for name, i in self.sts}
            assignment.update(sts)
            ctl = controller.network.evaluate(assignment)
            for name, i in self.ctrl:
                value = ctl[name]
                fn = inj.get(i)
                if fn is not None and value is not None:
                    value = fn(value) & net_mask[i]
                put(i, value)
            propagate()
            if all(values[i] == sts[name] for name, i in self.sts):
                break
        else:
            return True
        if any(ctl[name] is None for name, _ in self.ctrl):
            return True
        try:
            return controller.next_state(golden, ctl) != self._next_state(t)
        except ControlNetworkError:
            return True

    def _next_state(self, t):
        """The golden controller state after cycle ``t``: the CPR values
        of the next golden cycle, clocked only past the last one."""
        cycles = self.golden.cycles
        if t + 1 < len(cycles):
            after = cycles[t + 1].controller
            return {q: after[q] for q in self.cprs}
        golden = cycles[t].controller
        return self.processor.controller.next_state(golden, golden)
