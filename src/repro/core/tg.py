"""TG: the overall test generation algorithm (Figure 3 / Figure 4).

For one design error, TG iterates over pipeframe-window sizes and activation
frames and coordinates the three engines:

1. **DPTRACE** selects justification and propagation paths for the error
   site, producing CTRL objectives;
2. **CTRLJUST** justifies those objectives in the unrolled controller from
   the reset state, deciding CPI fields, tertiary signals and STS values;
   the concrete CTRL values it implies are fed back to DPTRACE, which
   re-checks (and, if needed, re-selects) its paths — the paper's step 6;
3. **DPRELAX** finds data values that activate the error and justify the
   STS decisions.

Finally the candidate test is *applied*: the processor is co-simulated
fault-free and with the error planted, and the test is kept only if the two
observable traces diverge (exposure is ground truth, never assumed).  When
exposure fails because a side input masks the difference, relaxation is
retried with different seed patterns on the free inputs — the
mode-exercising heuristics of Section V.B.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.controller.pipeline import UnrolledController
from repro.core.clauses import ClauseDB
from repro.core.ctrljust import CtrlJust, JustResult, JustStatus
from repro.core.dprelax import DiscreteRelaxer
from repro.core.dptrace import DPTrace, TraceStatus
from repro.core.nogoods import (
    LearnedNogoods,
    PathCache,
    blame_key,
    justify_key,
)
from repro.errors.models import DesignError
from repro.model.processor import Processor
from repro.verify.cosim import (
    CosimError,
    GoldenTraceCache,
    ProcessorSimulator,
    traces_diverge,
)

#: Seed patterns tried on free data inputs when exposure fails (masking).
#: The mix includes byte-distinct patterns (0x67452301, 0x0F1E2D3C) so that
#: byte-lane routing errors expose — byte-periodic patterns like 0x55555555
#: read the same in every lane.
UNMASK_SEEDS = (
    None, 0x67452301, 0x55555555, 0xAAAAAAAA, 0x0F1E2D3C, 0xFFFFFFFF, 0x1,
)


class TGStatus(enum.Enum):
    DETECTED = "detected"
    ABORTED = "aborted"


@dataclass
class TestCase:
    """A complete verification test: stimulus for every cycle.

    ``cpi_frames[t]`` / ``dpi_frames[t]`` are the controller / datapath
    primary inputs of cycle t; ``stimulus_state`` is the initial contents of
    the stimulus registers (part of the test, realized as a preamble by
    ISA-level back ends).
    """

    __test__ = False  # not a pytest class, despite the name

    n_frames: int
    cpi_frames: list[dict[str, int]]
    dpi_frames: list[dict[str, int]]
    stimulus_state: dict[str, int]
    error: str
    activation_frame: int
    observation: tuple[int, str] | None = None
    #: (frame, field) pairs whose CPI value the search actually decided;
    #: everything else is a filled-in default, free for realization.
    decided_cpi: frozenset[tuple[int, str]] = frozenset()


@dataclass
class TGResult:
    """Outcome and effort statistics for one error."""

    status: TGStatus
    error: str
    test: TestCase | None = None
    backtracks: int = 0
    dptrace_backtracks: int = 0
    ctrljust_backtracks: int = 0
    relax_events: int = 0
    attempts: int = 0
    frames_used: int = 0
    #: Backtracks of the *successful* search only (the paper's Table 1
    #: counts 50 backtracks across all detected errors — the effort of the
    #: final searches, not of the failed exploration rounds).
    final_backtracks: int = 0
    #: CPU seconds per engine phase ("dptrace", "ctrljust", "dprelax",
    #: "cosim"), measured with ``time.process_time()``.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Golden-trace cache traffic for this error: exposure checks served
    #: from the cache vs fault-free simulations actually run.
    golden_hits: int = 0
    golden_misses: int = 0
    #: Whether the most recent (window, activation frame) attempt reached
    #: a justified DPTRACE/CTRLJUST pair — the justify-variant retry
    #: heuristic keys off this.
    last_attempt_justified: bool = False
    #: Search-accelerator traffic for this error: learned-nogood and
    #: path-set cache hits/misses, memoized justification answers, and
    #: full C/O sweeps the incremental DPTRACE session avoided.
    nogood_hits: int = 0
    nogood_misses: int = 0
    justify_cache_hits: int = 0
    path_cache_hits: int = 0
    path_cache_misses: int = 0
    dptrace_sweeps_avoided: int = 0
    #: CDCL learning inside CTRLJUST (see ``repro.core.clauses``):
    #: implication-graph conflicts analyzed, 1-UIP clauses learned,
    #: non-chronological backjumps taken, certificate-database hits, and
    #: justification questions *refuted* (proved unjustifiable) instead of
    #: searched to exhaustion.
    conflicts: int = 0
    learned_clauses: int = 0
    backjumps: int = 0
    clause_hits: int = 0
    refuted_unjustifiable: int = 0
    #: The abort was forced by the per-error CPU deadline.  Tainted
    #: results never learn (see ``nogoods.record_blame``).
    deadline_hit: bool = False


@dataclass
class TestGenerator:
    """TG driver for one processor."""

    __test__ = False  # not a pytest class, despite the name

    processor: Processor
    min_frames: int | None = None
    max_frames: int | None = None
    max_rounds: int = 6
    ctrljust_backtrack_limit: int = 2000
    dptrace_backtrack_limit: int = 200
    #: How many rotated justification orders to try when a justified test
    #: fails the exposure check (e.g. SB chosen where only SW exposes).
    justify_variants: int = 3
    #: Optional CPU-time budget per error; exceeded attempts abort (the
    #: practical analogue of the paper's per-error effort limit).  Measured
    #: with ``time.process_time()`` so the budget — and therefore the
    #: detected/aborted decision — does not depend on how many sibling
    #: campaign workers compete for the CPU.
    deadline_seconds: float | None = None
    #: Optional processor-specific divergence check ``(processor, good,
    #: bad) -> (cycle, net) | None``; defaults to raw DPO comparison.
    exposure_comparator: object | None = None
    #: Cross-error search memoization: learned no-goods, memoized
    #: justification answers and the per-window path-set cache.  All
    #: three are outcome-transparent (keys capture everything the
    #: deterministic searches depend on; hits replay recorded effort
    #: counters), so disabling them changes wall clock only.
    use_learned_nogoods: bool = True
    #: Conflict-driven clause learning in CTRLJUST: a CDCL probe tries to
    #: *refute* each justification question before the chronological
    #: search runs, and completed proofs persist as unjustifiability
    #: certificates in :class:`ClauseDB` (superset-matched, so one
    #: certificate retires whole families of objective sets and every
    #: justify variant).  Refutation never produces a SUCCESS and
    #: certificates are only consulted before a search, so
    #: detected/aborted outcomes are byte-identical on or off.
    use_clause_learning: bool = True
    #: Conflict budget of one refutation probe.  Deliberately small:
    #: measured refutations complete in a dozen conflicts, while a probe
    #: on a *justifiable* question burns its whole budget before giving
    #: up, so the limit is the probe's overhead cap.
    refute_conflict_limit: int = 24

    _analyzers: dict[int, object] = field(default_factory=dict, repr=False)
    _unrolled: dict[int, UnrolledController] = field(
        default_factory=dict, repr=False
    )
    #: Fault-free traces shared across errors, seeds and variants: the
    #: golden half of the exposure check depends only on the stimulus.
    _golden: GoldenTraceCache = field(
        default_factory=GoldenTraceCache, repr=False
    )
    #: Cross-error learned no-goods + memoized justification answers;
    #: shared across ``generate()`` calls (one store per generator, so a
    #: campaign's errors share learning within one process).
    nogoods: LearnedNogoods = field(
        default_factory=LearnedNogoods, repr=False
    )
    #: Memoized DPTRACE selections per window fingerprint.
    _path_cache: PathCache = field(default_factory=PathCache, repr=False)
    _sweeps_avoided: int = field(default=0, repr=False)
    #: Unjustifiability certificates learned by the CDCL refuter; shared
    #: across errors like ``nogoods`` and kept warm by the campaign
    #: service.
    clauses: ClauseDB = field(default_factory=ClauseDB, repr=False)
    #: Questions whose refutation probe already gave up (SAT or budget
    #: exhausted), mapped to the probe's recorded effort counters.  The
    #: refuter is deterministic, so re-probing the same objective set —
    #: the justify-variants retry loop re-asks constantly — would burn
    #: the same conflicts to learn nothing; a hit skips the probe and
    #: replays the counters instead.  Deadline-cut probes are never
    #: recorded (wall-clock dependence).
    _refute_futile: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.min_frames is None:
            self.min_frames = self.processor.n_stages + 1
        if self.max_frames is None:
            self.max_frames = self.processor.n_stages + 4

    # ------------------------------------------------------------------
    # Cached per-window structures
    # ------------------------------------------------------------------
    def _analyzer(self, n_frames: int):
        if n_frames not in self._analyzers:
            self._analyzers[n_frames] = self.processor.analyzer(n_frames)
        return self._analyzers[n_frames]

    def _unroll(self, n_frames: int) -> UnrolledController:
        if n_frames not in self._unrolled:
            self._unrolled[n_frames] = self.processor.controller.unroll(
                n_frames
            )
        return self._unrolled[n_frames]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def generate(self, error: DesignError) -> TGResult:
        """Generate (and verify by co-simulation) a test for ``error``."""
        started = time.process_time()
        deadline_at = (
            started + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )
        site = self._site_net(error)
        result = TGResult(TGStatus.ABORTED, error=error.describe())
        discouraged: set = set()
        base_hits, base_misses = self._golden.hits, self._golden.misses
        nogoods, cache = self.nogoods, self._path_cache
        base_ng = (nogoods.hits, nogoods.misses, nogoods.justify_hits,
                   cache.hits, cache.misses, self._sweeps_avoided)
        try:
            for n_frames in range(self.min_frames, self.max_frames + 1):
                for act_frame in range(n_frames - 1, -1, -1):
                    if (
                        deadline_at is not None
                        and time.process_time() > deadline_at
                    ):
                        return result
                    result.attempts += 1
                    for jv in range(self.justify_variants):
                        if (
                            deadline_at is not None
                            and time.process_time() > deadline_at
                        ):
                            return result
                        test = self._attempt(
                            error, site, n_frames, act_frame, result,
                            discouraged, jv, deadline_at,
                        )
                        if test is not None:
                            result.status = TGStatus.DETECTED
                            result.test = test
                            result.frames_used = n_frames
                            return result
                        if jv == 0 and not result.last_attempt_justified:
                            break  # variants only help when a path justified
            return result
        finally:
            if (
                result.status is not TGStatus.DETECTED
                and deadline_at is not None
                and time.process_time() > deadline_at
            ):
                result.deadline_hit = True
            result.golden_hits = self._golden.hits - base_hits
            result.golden_misses = self._golden.misses - base_misses
            result.nogood_hits = nogoods.hits - base_ng[0]
            result.nogood_misses = nogoods.misses - base_ng[1]
            result.justify_cache_hits = nogoods.justify_hits - base_ng[2]
            result.path_cache_hits = cache.hits - base_ng[3]
            result.path_cache_misses = cache.misses - base_ng[4]
            result.dptrace_sweeps_avoided = (
                self._sweeps_avoided - base_ng[5]
            )

    def _site_net(self, error: DesignError) -> str:
        try:
            return error.site_net
        except AttributeError:
            return error.site_net_in(self.processor.datapath)

    # ------------------------------------------------------------------
    # One (window, activation frame) attempt
    # ------------------------------------------------------------------
    def _attempt(
        self,
        error: DesignError,
        site: str,
        n_frames: int,
        act_frame: int,
        result: TGResult,
        discouraged: set,
        justify_variant: int = 0,
        deadline_at: float | None = None,
    ) -> TestCase | None:
        analyzer = self._analyzer(n_frames)
        unrolled = self._unroll(n_frames)
        result.last_attempt_justified = False

        # Round-trip DPTRACE <-> CTRLJUST until the paths are consistent
        # with the implied control values (Figure 3 steps 5-6).  When the
        # controller cannot justify a path, its CTRL decisions are recorded
        # as discouraged and DPTRACE re-selects — the TG-level backtrack.
        implied_ctrl: dict[tuple[int, str], int] = {}
        accumulated: dict[tuple[int, str], int] = {}
        control_side_acc: set = set()
        last_good = None  # (trace, just, implied_ctrl)
        variant = 0
        for round_index in range(self.max_rounds):
            if deadline_at is not None and time.process_time() > deadline_at:
                break
            trace = self._select_paths(
                analyzer, site, act_frame, n_frames, implied_ctrl,
                discouraged, variant, result, deadline_at,
            )
            result.dptrace_backtracks += trace.backtracks
            if trace.status is not TraceStatus.SUCCESS:
                break  # keep the last consistent pair, if any
            # Objectives accumulate across rounds: the re-selection after a
            # successful justification typically adds nothing new, and the
            # controller must keep satisfying the earlier path objectives.
            accumulated.update(trace.ctrl_objectives)
            control_side_acc |= set(trace.control_side)
            accumulated_items = tuple(accumulated.items())
            nogood = None
            if self.use_learned_nogoods:
                bkey = blame_key(
                    n_frames, accumulated_items,
                    tuple(trace.ctrl_objectives.items()),
                    trace.control_side, justify_variant,
                    (self.ctrljust_backtrack_limit,
                     self._blame_backtrack_limit()),
                )
                nogood = self.nogoods.lookup_blame(bkey)
                if (
                    nogood is not None
                    and self.use_clause_learning
                    and self.clauses.lookup(n_frames, accumulated_items)
                    is not None
                ):
                    # Certificates outrank the blame replay, exactly as
                    # they precede the memo inside ``_justify``: a
                    # recompute would refute via the certificate at zero
                    # search cost, so replaying the (pre-certificate)
                    # recorded effort would break the no-goods on/off
                    # counter identity.  Take the live path instead.
                    nogood = None
            if nogood is not None:
                # A previous error already proved this objective set
                # unjustifiable and localized the conflict: replay the
                # recorded outcome (backtracks included) without running
                # CTRLJUST or the blame probes at all.
                blamed, recorded_backtracks, recorded_cdcl = nogood
                result.ctrljust_backtracks += recorded_backtracks
                result.backtracks += recorded_backtracks
                result.conflicts += recorded_cdcl[0]
                result.learned_clauses += recorded_cdcl[1]
                result.backjumps += recorded_cdcl[2]
                result.clause_hits += recorded_cdcl[3]
                result.refuted_unjustifiable += recorded_cdcl[4]
                for item in blamed:
                    discouraged.add(item)
                accumulated = {}
                implied_ctrl = {}
                variant += 1
                continue
            objectives = [
                (unrolled.instance(frame, name), value)
                for (frame, name), value in accumulated_items
            ]
            phase_start = time.process_time()
            just = self._justify(
                unrolled, objectives, accumulated_items, justify_variant,
                self.ctrljust_backtrack_limit, deadline_at,
            )
            self._phase(result, "ctrljust", phase_start)
            result.ctrljust_backtracks += just.backtracks
            result.backtracks += just.backtracks
            result.conflicts += just.conflicts
            result.learned_clauses += just.learned_clauses
            result.backjumps += just.backjumps
            result.clause_hits += just.clause_hits
            if just.refuted:
                result.refuted_unjustifiable += 1
            if just.status is not JustStatus.SUCCESS:
                # Find which decision actually breaks justifiability and
                # discourage only that one; then re-select on a rotated
                # ordering from a clean slate.
                phase_start = time.process_time()
                blamed, tainted = self._blame(
                    unrolled, trace.ctrl_objectives, justify_variant,
                    set(trace.control_side), deadline_at,
                )
                for item in blamed:
                    discouraged.add(item)
                self._phase(result, "ctrljust", phase_start)
                if self.use_learned_nogoods:
                    # The taint guard lives inside record_blame so every
                    # call site applies the same rule: a deadline-cut
                    # search never learns (best-effort blame could pin
                    # the wrong objective).
                    self.nogoods.record_blame(
                        bkey, blamed, just.backtracks,
                        cdcl=(
                            just.conflicts, just.learned_clauses,
                            just.backjumps, just.clause_hits,
                            int(just.refuted),
                        ),
                        deadline_hit=tainted or just.deadline_hit,
                    )
                accumulated = {}
                implied_ctrl = {}
                variant += 1
                continue
            new_implied = just.ctrl_values(unrolled)
            converged = new_implied == implied_ctrl
            implied_ctrl = new_implied
            last_good = (trace, just, implied_ctrl)
            result.final_backtracks = trace.backtracks + just.backtracks
            result.last_attempt_justified = True
            if converged:
                break
        if last_good is None:
            return None
        trace, just, implied_ctrl = last_good

        # Value selection + exposure, with unmasking retries.
        sts_reqs = just.sts_requirements(unrolled)
        cpi_frames = just.cpi_sequence(unrolled, self.processor.cpi_defaults)
        activation_failures = 0
        cpi_kinds = set(self.processor.controller.cpi_signals)
        decided_cpi: dict[tuple[int, str], int] = {}
        for inst, value in {**just.assignment, **just.implied}.items():
            if value is None:
                continue
            frame, name = unrolled.frame_and_signal(inst)
            if name in cpi_kinds:
                decided_cpi[(frame, name)] = value
        for seed in UNMASK_SEEDS:
            if deadline_at is not None and time.process_time() > deadline_at:
                break
            relaxer = DiscreteRelaxer(
                self.processor.datapath,
                n_frames,
                ctrl=implied_ctrl,
                stimulus_registers=self.processor.stimulus_registers,
            )
            constraint = error.activation_constraint(act_frame)
            if constraint is not None:
                relaxer.require_activation(constraint)
            for frame, name, value in sts_reqs:
                relaxer.fix(frame, name, value)
            self._bind_cpi_dpi(relaxer, decided_cpi)
            if seed is not None:
                for frame in range(n_frames):
                    for index, net in enumerate(
                        self.processor.datapath.dpi_nets
                    ):
                        key = (frame, net.name)
                        if key not in relaxer.values:
                            # Rotate the seed per input so related operands
                            # get distinct patterns (a & b == a | b would
                            # hide AND/OR substitutions, for example).
                            rot = (5 * index + frame) % 32
                            pattern = ((seed << rot) | (seed >> (32 - rot)))
                            relaxer.suggest(
                                frame, net.name,
                                pattern & ((1 << net.width) - 1),
                            )
            phase_start = time.process_time()
            relax = relaxer.relax()
            self._phase(result, "dprelax", phase_start)
            result.relax_events += relax.events
            if not relax.converged:
                unactivated = any(
                    tag.startswith("activation:") for tag in relax.inconsistent
                )
                for constraint in relaxer.activations:
                    value = relax.values.get(
                        (constraint.frame, constraint.net)
                    )
                    if value is None or not constraint.satisfied_by(value):
                        unactivated = True
                    # A pinned activation value that the site's driver
                    # cannot produce shows up as an inconsistency at the
                    # driving module.
                    driver = self.processor.datapath.net(
                        constraint.net
                    ).driver
                    if driver is not None and (
                        f"{constraint.frame}:{driver.module.name}"
                        in relax.inconsistent
                    ):
                        unactivated = True
                if unactivated:
                    # Seeds sometimes flip an activation bit, but repeated
                    # failures mean the site value is not free under the
                    # selected paths (e.g. a bit constant for the chosen
                    # mux select): stop seeding early and let the caller
                    # re-select the control side.
                    activation_failures += 1
                    if activation_failures >= 3:
                        break
                continue
            test = self._build_test(
                error, act_frame, n_frames, cpi_frames, relax, decided_cpi
            )
            phase_start = time.process_time()
            divergence = self._exposure_check(error, test)
            self._phase(result, "cosim", phase_start)
            if divergence is not None:
                test.observation = divergence
                return test
        if activation_failures:
            # The selected justification (e.g. a particular mux-select
            # closing) pins the site to an unactivatable value: discourage
            # the control-side decisions so re-selection tries other
            # closings.  Observe-route decisions are left alone — they are
            # often the only route to an output.
            for item in control_side_acc:
                discouraged.add(item)
        return None

    def _phase(self, result: TGResult, phase: str, started: float) -> None:
        """Fold CPU time since ``started`` into a phase bucket."""
        elapsed = time.process_time() - started
        result.phase_seconds[phase] = (
            result.phase_seconds.get(phase, 0.0) + elapsed
        )

    # ------------------------------------------------------------------
    # Memoized search front ends
    # ------------------------------------------------------------------
    def _select_paths(
        self, analyzer, site, act_frame, n_frames, implied_ctrl,
        discouraged, variant, result: TGResult, deadline_at,
    ):
        """DPTRACE with the per-window path-set cache in front.

        The key captures every input of the deterministic selection, so a
        hit replays the identical :class:`TraceResult` (and its recorded
        avoided-sweep count); deadline-cut failures are never stored.
        """
        key = None
        if self.use_learned_nogoods:
            key = PathCache.key(
                n_frames, site, act_frame, implied_ctrl, discouraged,
                variant, self.dptrace_backtrack_limit,
            )
            entry = self._path_cache.lookup(key)
            if entry is not None:
                trace, sweeps_avoided = entry
                self._sweeps_avoided += sweeps_avoided
                return trace
        tracer = DPTrace(
            analyzer, implied_ctrl,
            max_backtracks=self.dptrace_backtrack_limit,
            discouraged=discouraged,
            variant=variant,
            deadline=deadline_at,
        )
        phase_start = time.process_time()
        trace = tracer.select_paths(site, act_frame)
        self._phase(result, "dptrace", phase_start)
        self._sweeps_avoided += tracer.sweeps_avoided
        if key is not None:
            self._path_cache.store(key, trace, tracer.sweeps_avoided)
        return trace

    def _blame_backtrack_limit(self) -> int:
        return max(200, self.ctrljust_backtrack_limit // 4)

    def _justify(
        self, unrolled, objectives, key_items, justify_variant, limit,
        deadline_at, learn_certs=True,
    ):
        """CTRLJUST with certificates and the result memo in front.

        The certificate check runs first, *before* the memo and the blame
        no-goods: a stored unjustifiability core that is a subset of the
        question's objectives refutes it outright — for any variant or
        limit, since unjustifiability is a property of the objective set
        alone.  Checking certificates ahead of every replay layer keeps
        the accelerators' effort accounting consistent with a recompute
        (once a core is known, both paths answer "refuted, zero
        backtracks").

        Certificates are (re-)asserted from the *returned* result — after
        the memo, so a replayed answer teaches the same certificate a
        recompute would.  ``learn_certs=False`` (the blame probes) skips
        the assertion entirely: blame results replay wholesale from the
        no-good store without re-running their probe sequence, so any
        certificate learned under a probe would exist only on the
        recompute side and break the on/off outcome identity.
        """
        if self.use_clause_learning:
            cert = self.clauses.lookup(unrolled.n_frames, key_items)
            if cert is not None:
                return JustResult(
                    JustStatus.FAILURE, refuted=True, clause_hits=1,
                    core=tuple(sorted(
                        (unrolled.instance(frame, name), value)
                        for (frame, name), value in cert
                    )),
                )

        futile_key = (unrolled.n_frames, key_items)
        recorded = (
            self._refute_futile.get(futile_key)
            if self.use_clause_learning else None
        )
        refute_budget = (
            self.refute_conflict_limit if self.use_clause_learning else 0
        )
        if recorded is not None:
            refute_budget = 0

        def compute():
            engine = CtrlJust(
                unrolled, max_backtracks=limit,
                variant=justify_variant,
                deadline=deadline_at,
                refute_conflicts=refute_budget,
            )
            result = engine.justify(objectives)
            if recorded is not None:
                # Replay the skipped probe's effort so counters match a
                # recompute exactly (the same contract as a no-good hit).
                result.conflicts += recorded[0]
                result.learned_clauses += recorded[1]
                result.backjumps += recorded[2]
            elif (
                refute_budget
                and not result.refuted
                and not result.deadline_hit
            ):
                self._refute_futile[futile_key] = (
                    result.conflicts, result.learned_clauses,
                    result.backjumps,
                )
            return result

        if not self.use_learned_nogoods:
            result = compute()
        else:
            key = justify_key(
                unrolled.n_frames, key_items, justify_variant, limit
            )
            result = self.nogoods.cached_justify(key, compute)
        if (
            learn_certs
            and self.use_clause_learning
            and not result.deadline_hit
        ):
            if result.refuted and result.core:
                self.clauses.add(
                    unrolled.n_frames,
                    tuple(
                        (unrolled.frame_and_signal(inst), value)
                        for inst, value in result.core
                    ),
                    result.core_lbd,
                )
            elif result.status is JustStatus.FAILURE and result.exhausted:
                # An emptied decision stack is a complete search proof:
                # the whole objective set is unjustifiable for every
                # variant.  Certify it so variant rotation and future
                # errors refute instantly instead of re-running the
                # exhaustion.  The wide LBD ranks these below 1-UIP
                # cores under eviction.
                self.clauses.add(
                    unrolled.n_frames, tuple(key_items), len(key_items)
                )
        return result

    def _blame(
        self,
        unrolled: UnrolledController,
        ctrl_objectives: dict,
        justify_variant: int,
        control_side: set | None = None,
        deadline_at: float | None = None,
    ) -> tuple[list, bool]:
        """Greedy conflict localization after a CTRLJUST failure.

        Objectives are added one at a time (in selection order) until the
        prefix becomes unjustifiable.  The last-added objective is often a
        *mandatory* route select, so before blaming it we try to pin the
        conflict on an earlier, flexible (control-side) objective: if
        removing one makes the prefix justifiable again, that one is
        blamed instead.  Falls back to blaming everything when even single
        objectives justify (a genuinely joint conflict).

        Returns ``(blamed items, tainted)`` — tainted when the deadline
        cut a probe short, so the (best-effort) result must not be
        learned as a no-good.
        """
        limit = self._blame_backtrack_limit()

        def justify(instances, key_items) -> bool | None:
            just = self._justify(
                unrolled, instances, tuple(key_items), justify_variant,
                limit, deadline_at, learn_certs=False,
            )
            if just.deadline_hit:
                return None
            return just.status is JustStatus.SUCCESS

        items = list(ctrl_objectives.items())
        prefix: list = []
        for index, ((frame, name), value) in enumerate(items):
            prefix.append((unrolled.instance(frame, name), value))
            verdict = justify(prefix, items[: index + 1])
            if verdict is None:
                return items[: index + 1], True
            if verdict:
                continue
            # Prefer re-blaming an earlier flexible decision over the one
            # that happened to close the conflict.
            preferred = [
                j for j in range(index)
                if control_side is None or items[j] in control_side
            ]
            for j in preferred:
                trimmed = prefix[:j] + prefix[j + 1:]
                verdict = justify(
                    trimmed, items[:j] + items[j + 1: index + 1]
                )
                if verdict is None:
                    return [((frame, name), value)], True
                if verdict:
                    return [items[j]], False
            return [((frame, name), value)], False
        return items, False  # joint conflict: no single culprit found

    def _bind_cpi_dpi(self, relaxer: DiscreteRelaxer, decided_cpi) -> None:
        """Pin DPI nets bound to CPI fields the controller search decided."""
        for cpi_name, dpi_name in self.processor.cpi_dpi_bindings.items():
            for frame in range(relaxer.n_frames):
                value = decided_cpi.get((frame, cpi_name))
                if value is not None:
                    relaxer.fix(frame, dpi_name, value)

    def _build_test(
        self, error, act_frame, n_frames, cpi_frames, relax, decided_cpi
    ) -> TestCase:
        dpi_frames = relax.dpi_values(self.processor.datapath, n_frames)
        # Fold relaxed values of bound DPIs back into undecided CPI fields.
        cpi_frames = [dict(f) for f in cpi_frames]
        for cpi_name, dpi_name in self.processor.cpi_dpi_bindings.items():
            domain = self.processor.controller.network.signal(cpi_name).domain
            for frame in range(n_frames):
                if (frame, cpi_name) in decided_cpi:
                    continue
                value = dpi_frames[frame].get(dpi_name)
                if value is not None and value in domain:
                    cpi_frames[frame][cpi_name] = value
        stimulus = {}
        for reg_name in self.processor.stimulus_registers:
            reg = self.processor.datapath.module(reg_name)
            value = relax.values.get((0, reg.output.net.name))
            stimulus[reg_name] = value if value is not None else 0
        return TestCase(
            n_frames=n_frames,
            cpi_frames=cpi_frames,
            dpi_frames=dpi_frames,
            stimulus_state=stimulus,
            error=error.describe(),
            activation_frame=act_frame,
            decided_cpi=frozenset(decided_cpi),
        )

    # ------------------------------------------------------------------
    # Ground-truth exposure check
    # ------------------------------------------------------------------
    def _exposure_check(
        self, error: DesignError, test: TestCase
    ) -> tuple[int, str] | None:
        try:
            # The fault-free half depends only on the stimulus, so it is
            # served from the golden-trace cache: across the unmask-seed /
            # justify-variant exposure loop (and across errors) each
            # distinct candidate stimulus is simulated once.
            good = self._golden.trace(
                self.processor, test.stimulus_state,
                test.cpi_frames, test.dpi_frames,
            )
        except CosimError:
            return None
        try:
            injector, module_overrides = error.hooks(self.processor.datapath)
            bad_cosim = ProcessorSimulator(
                self.processor,
                injector=injector,
                module_overrides=module_overrides,
            )
            bad_cosim.set_stimulus_state(test.stimulus_state)
            bad = bad_cosim.run(test.cpi_frames, test.dpi_frames)
        except CosimError:
            return None
        if self.exposure_comparator is not None:
            return self.exposure_comparator(self.processor, good, bad)
        return traces_diverge(self.processor, good, bad)
