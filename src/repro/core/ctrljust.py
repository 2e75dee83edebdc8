"""CTRLJUST: justification of CTRL objectives in the controller (V.C).

Given objectives ``(c_i, v_i)`` on CTRL signal instances of the unrolled
controller (produced by DPTRACE) CTRLJUST determines an input sequence —
values for the CPI and STS signals of each timeframe, starting from the
controller's reset state — that satisfies every objective.

It is a PODEM-based branch-and-bound whose decision variables are the CPI,
CTI and STS signal instances (the pipeframe organization of Section IV):

* CPI and STS instances are external signals: deciding them is a plain
  assignment.
* CTI instances are *driven* signals that we cut: deciding one lets
  implication proceed through its consumers immediately, and adds the
  decided value to the J-frontier — the driving cone must eventually
  compute the same value, which the implication sweep checks (justified /
  conflicting classification).

Implication runs, by default, on the event-driven
:class:`~repro.controller.implication.ImplicationSession`: each decision
``assume``\\ s one signal and propagates only through its fanout cone, and
each backtrack ``retract``\\ s in O(changed) off the trail — instead of
re-sweeping the whole unrolled network per decision.  Constructing the
engine with ``incremental=False`` selects the original full-sweep
implication (``ControlNetwork.consistency``), kept as the reference
oracle; both paths share the identical search loop, so their decisions,
backtracks and outcomes are bit-identical.

The backtrace walks each node's ``backtrace_options`` (memoized in the
compiled network) until it reaches an open decision variable.  STS
decisions are returned to the caller: the datapath (DPRELAX) must justify
them.

With ``backjump=True`` the unwind is conflict-directed (Prosser's CBJ):
every conflict is *explained* as the set of decisions supporting it —
the non-``None`` support cone of the conflicting or mismatched signal,
which three-valued monotonicity makes a sound reason — and when a
decision exhausts its values, the search jumps straight to the deepest
decision in its accumulated blame set instead of trying the untouched
levels in between.  Skipped subtrees provably contain no solution (the
blame set is a semantic nogood over *assignments*, independent of the
dynamic variable order), so the first solution found — and therefore
every SUCCESS assignment and every FAILURE verdict — is identical to
the chronological search; only the backtrack counts shrink.  Conflicts
whose cause the engine cannot see (a backtrace dead-end) degrade that
level to chronological unwinding rather than guess.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.controller.implication import ImplicationSession
from repro.controller.pipeline import UnrolledController
from repro.controller.signals import SignalKind


#: Explanations a search may spend per backjump it has produced (plus one
#: starting credit) before conflict-directed unwinding degrades to
#: chronological; see ``CtrlJust._search``.
_EXPLAIN_ALLOWANCE = 256


class JustStatus(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass
class JustDecision:
    """One CTRLJUST decision with untried alternative values."""

    signal: str  # instance name
    value: int
    alternatives: list[int]
    is_cti: bool


@dataclass
class JustResult:
    """Outcome of a justification run."""

    status: JustStatus
    assignment: dict[str, int] = field(default_factory=dict)  # CPI/STS insts
    cti_values: dict[str, int] = field(default_factory=dict)
    implied: dict[str, int | None] = field(default_factory=dict)
    backtracks: int = 0
    decisions: int = 0
    #: The search was cut short by the caller's deadline: the FAILURE is
    #: time-bound, not a proof — never cache or learn from it.
    deadline_hit: bool = False
    #: The chronological search emptied its decision stack before hitting
    #: any budget: the FAILURE is a *complete* proof that no assignment
    #: justifies the objectives (with the given pre-assignment), valid
    #: for every justify variant.
    exhausted: bool = False
    #: The FAILURE is a completed CDCL unjustifiability *proof* (refuted
    #: before the chronological search ran), with ``core`` the
    #: unsatisfiable (instance, value) subset of the objectives and
    #: ``core_lbd`` the closing conflict's LBD.
    refuted: bool = False
    core: tuple = ()
    core_lbd: int = 1
    #: CDCL effort counters of the refutation probe (zero when the probe
    #: is disabled); ``clause_hits`` counts certificate-database hits
    #: recorded by the caller.
    conflicts: int = 0
    learned_clauses: int = 0
    backjumps: int = 0
    clause_hits: int = 0

    def sts_requirements(
        self, unrolled: UnrolledController
    ) -> list[tuple[int, str, int]]:
        """(frame, signal, value) triples the datapath must justify."""
        out = []
        for inst, value in self.assignment.items():
            frame, name = unrolled.frame_and_signal(inst)
            if unrolled.controller.network.signal(name).kind is SignalKind.STS:
                out.append((frame, name, value))
        return out

    def cpi_sequence(
        self, unrolled: UnrolledController, defaults: dict[str, int]
    ) -> list[dict[str, int]]:
        """Per-frame CPI assignments, filling gaps from ``defaults``."""
        frames: list[dict[str, int]] = []
        for frame in range(unrolled.n_frames):
            frame_values = {}
            for name in unrolled.controller.cpi_signals:
                inst = unrolled.instance(frame, name)
                if inst in self.assignment:
                    frame_values[name] = self.assignment[inst]
                elif self.implied.get(inst) is not None:
                    frame_values[name] = self.implied[inst]
                else:
                    frame_values[name] = defaults.get(name, 0)
            frames.append(frame_values)
        return frames

    def ctrl_values(
        self, unrolled: UnrolledController
    ) -> dict[tuple[int, str], int]:
        """Concrete implied CTRL values, keyed (frame, signal)."""
        out: dict[tuple[int, str], int] = {}
        for name in unrolled.controller.ctrl_signals:
            for frame in range(unrolled.n_frames):
                value = self.implied.get(unrolled.instance(frame, name))
                if value is not None:
                    out[(frame, name)] = value
        return out


class _IncrementalState:
    """Implication backend over an event-driven session (the default)."""

    def __init__(self, compiled, base_assignment) -> None:
        self.session = ImplicationSession(compiled, base_assignment)
        #: The session doubles as the value mapping (``.get`` by name).
        self.values = self.session

    def refresh(self) -> None:
        pass  # state is maintained eagerly by assume/retract

    @property
    def has_conflict(self) -> bool:
        return self.session.has_conflict

    @property
    def conflicting_ids(self) -> set[int]:
        return self.session.conflicting_ids

    def is_justified(self, name: str) -> bool:
        return self.session.is_justified(name)

    def assume(self, name: str, value: int) -> None:
        self.session.assume(name, value)

    def retract(self) -> None:
        self.session.retract()

    def snapshot(self) -> dict[str, int | None]:
        return self.session.snapshot()


class _FullSweepState:
    """Reference implication backend: one full consistency sweep per query.

    Reads the same ``assignment`` / ``cti_values`` dicts the search loop
    mutates, so ``assume`` / ``retract`` have nothing to do.
    """

    def __init__(self, network, assignment, cti_values) -> None:
        self.network = network
        self.assignment = assignment
        self.cti_values = cti_values
        self.values: dict[str, int | None] = {}
        self._justified: set[str] = set()
        self.has_conflict = False
        self.conflicting_ids: set[int] = set()

    def refresh(self) -> None:
        values, justified, conflicting = self.network.consistency(
            self.assignment, self.cti_values
        )
        self.values = values
        self._justified = set(justified)
        index = self.network.compiled().index
        self.conflicting_ids = {index[name] for name in conflicting}
        self.has_conflict = bool(conflicting)

    def is_justified(self, name: str) -> bool:
        return name in self._justified

    def assume(self, name: str, value: int) -> None:
        pass

    def retract(self) -> None:
        pass

    def snapshot(self) -> dict[str, int | None]:
        return self.values


class CtrlJust:
    """PODEM justification engine over an unrolled controller."""

    def __init__(
        self,
        unrolled: UnrolledController,
        max_backtracks: int = 1000,
        variant: int = 0,
        incremental: bool = True,
        deadline: float | None = None,
        refute_conflicts: int = 0,
        backjump: bool = False,
    ) -> None:
        self.unrolled = unrolled
        self.network = unrolled.network
        self.max_backtracks = max_backtracks
        #: Event-driven implication (default) vs the full-sweep oracle.
        self.incremental = incremental
        #: Absolute ``time.process_time()`` budget; the search returns a
        #: (non-cacheable) FAILURE promptly once it passes.
        self.deadline = deadline
        #: Conflict budget of the CDCL refutation-first probe
        #: (:mod:`repro.core.clauses`); 0 disables it.  The probe can only
        #: *refute* (a completed proof returns FAILURE immediately) — a
        #: satisfiable or budget-exhausted probe falls through to the
        #: chronological search below, so SUCCESS results are untouched.
        self.refute_conflicts = refute_conflicts
        #: Conflict-directed backjumping in the search loop (see the
        #: module docstring): identical decisions and verdicts, fewer
        #: backtracks.  Works with both implication backends.
        self.backjump = backjump
        #: Diversification index: rotates backtrace option order so retries
        #: explore different (equally valid) justifications, e.g. a
        #: different store opcode for the same memwrite objective.
        self.variant = variant
        ctl = unrolled.controller
        self._decidable: set[str] = set()
        self._cti: set[str] = set()
        for frame in range(unrolled.n_frames):
            for name in ctl.cpi_signals + ctl.sts_signals:
                self._decidable.add(unrolled.instance(frame, name))
            for name in ctl.cti_signals:
                inst = unrolled.instance(frame, name)
                self._decidable.add(inst)
                self._cti.add(inst)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def justify(
        self,
        objectives: list[tuple[str, int]],
        pre_assignment: dict[str, int] | None = None,
    ) -> JustResult:
        """Satisfy all (instance, value) objectives from the reset state."""
        for inst, value in objectives:
            signal = self.network.signal(inst)
            signal.validate_value(value)
        refutation = None
        if self.refute_conflicts and objectives and not pre_assignment:
            from repro.core.clauses import CdclRefuter

            refutation = CdclRefuter(
                self.network, objectives,
                conflict_limit=self.refute_conflicts,
                deadline=self.deadline,
            ).run()
            if refutation.refuted and not refutation.deadline_hit:
                return JustResult(
                    JustStatus.FAILURE,
                    refuted=True,
                    core=refutation.core,
                    core_lbd=refutation.lbd,
                    conflicts=refutation.conflicts,
                    learned_clauses=refutation.learned,
                    backjumps=refutation.backjumps,
                )
            if refutation.deadline_hit:
                return JustResult(
                    JustStatus.FAILURE,
                    deadline_hit=True,
                    conflicts=refutation.conflicts,
                    learned_clauses=refutation.learned,
                    backjumps=refutation.backjumps,
                )
        result = self._search(objectives, pre_assignment)
        if refutation is not None:
            result.conflicts += refutation.conflicts
            result.learned_clauses += refutation.learned
            result.backjumps += refutation.backjumps
        return result

    def _search(
        self,
        objectives: list[tuple[str, int]],
        pre_assignment: dict[str, int] | None = None,
    ) -> JustResult:
        """The PODEM branch-and-bound (chronological unwind by default)."""
        assignment: dict[str, int] = dict(pre_assignment or {})
        cti_values: dict[str, int] = {}
        stack: list[JustDecision] = []
        backtracks = 0
        decision_count = 0
        backjumps = 0
        cbj = self.backjump
        #: Per-decision blame (parallel to ``stack``): the decision ids
        #: implicated in conflicts seen under this level.  ``None`` is the
        #: "blame everything" sentinel — an unexplainable conflict degrades
        #: the level to chronological unwinding.  ``sig_ids`` mirrors the
        #: stack's decision signals as compiled ids (the blame currency).
        blame: list[set[int] | None] = []
        sig_ids: list[int] = []
        index = self.network.compiled().index if cbj else None
        #: Conflict explanation costs a support-cone walk per backtrack
        #: and pays off only when jumps materialize.  Each backjump earns
        #: the search a further allowance of explanations; a search whose
        #: jumps dry up stops explaining (``None`` blame) and unwinds
        #: chronologically from then on — deterministic, and sound at any
        #: cutoff point.
        explained = 0
        limit = self.max_backtracks
        if self.incremental:
            state = _IncrementalState(self.network.compiled(), assignment)
        else:
            state = _FullSweepState(self.network, assignment, cti_values)

        while True:
            if (
                self.deadline is not None
                and time.process_time() > self.deadline
            ):
                return JustResult(JustStatus.FAILURE, backtracks=backtracks,
                                  decisions=decision_count,
                                  backjumps=backjumps,
                                  deadline_hit=True)
            state.refresh()
            values = state.values
            conflict = state.has_conflict
            #: Signal ids the current conflict is observed at; ``None``
            #: for a backtrace dead-end (no explainable site).
            seeds = state.conflicting_ids if conflict and cbj else None
            open_objectives: list[tuple[str, int]] = []
            if not conflict:
                for inst, want in objectives:
                    got = values.get(inst)
                    if got is None:
                        open_objectives.append((inst, want))
                    elif got != want:
                        conflict = True
                        if cbj:
                            seeds = (index[inst],)
                        break
            if not conflict:
                unjustified = [
                    (inst, cti_values[inst])
                    for inst in cti_values
                    if not state.is_justified(inst)
                ]
                if not open_objectives and not unjustified:
                    return JustResult(
                        JustStatus.SUCCESS,
                        assignment=dict(assignment),
                        cti_values=dict(cti_values),
                        implied=state.snapshot(),
                        backtracks=backtracks,
                        decisions=decision_count,
                        backjumps=backjumps,
                    )
                # Select an objective and backtrace to a decision.
                decision = None
                for inst, want in open_objectives + unjustified:
                    decision = self._backtrace(inst, want, values, assignment,
                                               cti_values)
                    if decision is not None:
                        break
                if decision is not None:
                    self._apply(decision, assignment, cti_values, state)
                    stack.append(decision)
                    if cbj:
                        blame.append(set())
                        sig_ids.append(index[decision.signal])
                    decision_count += 1
                    continue
                conflict = True  # no way to make progress (seeds stay None)
            if cbj and stack and blame[-1] is not None:
                # Charge the conflict's support set to the top decision.
                if seeds and explained < _EXPLAIN_ALLOWANCE * (backjumps + 1):
                    explained += 1
                    blame[-1] |= self._explain(seeds, state, cti_values)
                else:
                    blame[-1] = None
            # Backtrack.  The budget is enforced per unwind step, so one
            # exhausted deep stack cannot blow far past the limit before
            # the overrun is noticed.
            while stack:
                last = stack[-1]
                self._unapply(last, assignment, cti_values, state)
                backtracks += 1
                if backtracks > limit:
                    return JustResult(JustStatus.FAILURE,
                                      backtracks=backtracks,
                                      decisions=decision_count,
                                      backjumps=backjumps)
                if (
                    backtracks % 64 == 0
                    and self.deadline is not None
                    and time.process_time() > self.deadline
                ):
                    return JustResult(JustStatus.FAILURE,
                                      backtracks=backtracks,
                                      decisions=decision_count,
                                      backjumps=backjumps,
                                      deadline_hit=True)
                if last.alternatives:
                    last.value = last.alternatives.pop(0)
                    self._apply(last, assignment, cti_values, state)
                    break
                stack.pop()
                if not cbj:
                    continue
                # Every value of ``last`` failed for reasons inside its
                # accumulated blame set: the current assignment restricted
                # to ``culprit`` is a nogood, so levels outside it cannot
                # cure the failure — pop them without trying alternatives
                # (Prosser's conflict-directed backjumping).
                culprit = blame.pop()
                last_id = sig_ids.pop()
                if culprit is not None:
                    culprit.discard(last_id)
                    jumped = False
                    while stack and sig_ids[-1] not in culprit:
                        self._unapply(stack[-1], assignment, cti_values,
                                      state)
                        backtracks += 1
                        jumped = True
                        if backtracks > limit:
                            return JustResult(JustStatus.FAILURE,
                                              backtracks=backtracks,
                                              decisions=decision_count,
                                              backjumps=backjumps)
                        if (
                            backtracks % 64 == 0
                            and self.deadline is not None
                            and time.process_time() > self.deadline
                        ):
                            return JustResult(JustStatus.FAILURE,
                                              backtracks=backtracks,
                                              decisions=decision_count,
                                              backjumps=backjumps,
                                              deadline_hit=True)
                        stack.pop()
                        blame.pop()
                        sig_ids.pop()
                    if jumped:
                        backjumps += 1
                if stack:
                    # The jump target inherits the exhausted level's
                    # blame (minus itself) as its own conflict reason.
                    if culprit is None:
                        blame[-1] = None
                    elif blame[-1] is not None:
                        blame[-1] |= culprit
            else:
                return JustResult(JustStatus.FAILURE, backtracks=backtracks,
                                  decisions=decision_count,
                                  backjumps=backjumps, exhausted=True)

    # ------------------------------------------------------------------
    # Decision bookkeeping
    # ------------------------------------------------------------------
    def _apply(self, decision: JustDecision, assignment, cti_values,
               state) -> None:
        if decision.is_cti:
            cti_values[decision.signal] = decision.value
        else:
            assignment[decision.signal] = decision.value
        state.assume(decision.signal, decision.value)

    def _unapply(self, decision: JustDecision, assignment, cti_values,
                 state) -> None:
        if decision.is_cti:
            cti_values.pop(decision.signal, None)
        else:
            assignment.pop(decision.signal, None)
        state.retract()

    # ------------------------------------------------------------------
    # Conflict explanation (backjumping)
    # ------------------------------------------------------------------
    def _explain(
        self, seeds, state, cti_values: dict[str, int]
    ) -> set[str]:
        """Assigned signals supporting the conflict observed at ``seeds``.

        Walks the non-``None`` support cone of each seed down to assumed
        signals: externals with a value (decisions or pre-assignment) and
        cut CTI instances.  Three-valued evaluation is monotone — the
        concrete inputs present at a node imply its computed value under
        any completion — so the returned set is a sound (over-approximate)
        conflict reason.  A conflicting cut contributes both its own
        decision and its driving cone's support; a cut met *as support*
        contributes only its decision, because consumers see the decided
        value, not the cone.

        Seeds, blame and the returned set are all compiled signal ids
        (this sits on the conflict path, once per backtrack); both
        implication backends traverse the identical id sequence, so
        their blame sets — and therefore their searches — stay
        bit-identical.
        """
        compiled = self.network.compiled()
        index = compiled.index
        inputs_of = compiled.inputs_of
        is_driven = compiled.is_driven
        if isinstance(state, _IncrementalState):
            values = state.session.values
        else:
            vdict = state.values
            values = [vdict.get(name) for name in compiled.names]
        cut_ids = {index[name] for name in cti_values}
        seed_set = set(seeds)
        out: set[int] = set()
        seen: set[int] = set()
        work = list(seed_set)
        while work:
            i = work.pop()
            if i in seen:
                continue
            seen.add(i)
            if not is_driven[i]:
                if values[i] is not None:  # assigned external: assumed
                    out.add(i)
                continue
            if i in cut_ids:
                out.add(i)
                if i not in seed_set:
                    continue
            for j in inputs_of[i]:
                if values[j] is not None and j not in seen:
                    work.append(j)
        return out

    # ------------------------------------------------------------------
    # Backtrace
    # ------------------------------------------------------------------
    def _backtrace(
        self,
        inst: str,
        target: int,
        values,
        assignment: dict[str, int],
        cti_values: dict[str, int],
    ) -> JustDecision | None:
        """Walk from an objective to an open decision variable.

        Depth-first over each node's (memoized) ``backtrace_options``,
        with an explicit stack: unrolled networks produce walks deeper
        than Python's recursion limit.
        """
        compiled = self.network.compiled()
        drivers = self.network.drivers
        stack = [iter(((inst, target),))]
        while stack:
            entry = next(stack[-1], None)
            if entry is None:
                stack.pop()
                continue
            inst, target = entry
            if inst in self._decidable and self._open(
                inst, assignment, cti_values
            ):
                domain = self.network.signal(inst).domain
                if target not in domain:
                    continue  # infeasible: try the next option
                return JustDecision(
                    inst, target, [v for v in domain if v != target],
                    is_cti=inst in self._cti,
                )
            node = drivers.get(inst)
            if node is None:
                continue  # an already-assigned external: cannot help
            input_values = tuple(values.get(i) for i in node.inputs)
            options = compiled.backtrace_options(
                compiled.index[inst], target, input_values
            )
            if self.variant and len(options) > 1:
                shift = self.variant % len(options)
                options = options[shift:] + options[:shift]
            stack.append(
                iter([(node.inputs[index], want) for index, want in options])
            )
        return None

    def _open(self, inst: str, assignment, cti_values) -> bool:
        return inst not in assignment and inst not in cti_values

