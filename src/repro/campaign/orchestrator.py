"""Parallel campaign orchestration: sharded worker pool + checkpoint/resume.

Error-targeted test generation is embarrassingly parallel per error, so the
orchestrator shards an error list across a ``multiprocessing`` worker pool:
each worker process rebuilds the processor model once (pool initializer),
then runs the full TG → realize → ISA-check pipeline per error and returns
the :class:`ErrorOutcome` plus the serialized realized test.  The
coordinator merges results as they complete, emits structured events
(:mod:`repro.campaign.events`), appends each completed error to a JSONL
checkpoint (:mod:`repro.campaign.checkpoint`), and — when error simulation
is enabled — simulates every finished test against the **not-yet-dispatched
tail** of the work list, so fault dropping composes with sharding instead
of being silently disabled.

``jobs=1`` takes the exact serial loop of ``DlxCampaign.run`` (shared via
:func:`repro.campaign.runner.run_serial_campaign`), so single-job
orchestration is byte-identical to the classic driver.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.events import CampaignEvent, EventStream
from repro.campaign.runner import (
    CampaignBase,
    CampaignReport,
    DlxCampaign,
    ErrorOutcome,
    MiniCampaign,
    run_serial_campaign,
)
from repro.errors.models import DesignError

CAMPAIGN_TARGETS = ("dlx", "mini")


def build_campaign(target: str, deadline_seconds: float) -> CampaignBase:
    """The campaign driver for a named test vehicle."""
    if target == "dlx":
        return DlxCampaign(deadline_seconds=deadline_seconds)
    if target == "mini":
        return MiniCampaign(deadline_seconds=deadline_seconds)
    raise ValueError(
        f"unknown campaign target {target!r} (expected one of "
        f"{', '.join(CAMPAIGN_TARGETS)})"
    )


@dataclass(frozen=True)
class OrchestratorConfig:
    """Everything a campaign run needs, picklable and JSON-friendly."""

    target: str = "dlx"
    jobs: int = 1
    deadline_seconds: float = 20.0
    error_simulation: bool = False
    checkpoint_path: str | None = None
    resume: bool = False
    #: Emit per-error ``error-profile`` events (TG phase timings) and one
    #: aggregated ``profile-summary`` into the event stream / JSON report.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.target not in CAMPAIGN_TARGETS:
            raise ValueError(f"unknown campaign target {self.target!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume requires a checkpoint path")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# Per-worker-process campaign, built once by the pool initializer.  The
# processor model is deliberately NOT pickled across the process boundary;
# every worker rebuilds it from scratch.
_WORKER_CAMPAIGN: CampaignBase | None = None


def _worker_init(target: str, deadline_seconds: float) -> None:
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = build_campaign(target, deadline_seconds)


def _worker_run(item: tuple[int, DesignError, list, list]):
    """Run one error in the worker; pool learned no-goods and refutation
    certificates both ways.

    The coordinator ships every record it knows with the task; the worker
    merges them (idempotent) before searching, and returns only what it
    learned locally since its last report (``export_records`` drains the
    fresh list; merged foreign records never re-export).
    """
    from repro.campaign.serialize import (
        clause_records_from_wire,
        clause_records_to_wire,
        nogood_records_from_wire,
        nogood_records_to_wire,
    )

    index, error, records, clause_records = item
    generator = _WORKER_CAMPAIGN.generator
    nogoods = generator.nogoods
    clauses = generator.clauses
    if records:
        nogoods.merge_records(nogood_records_from_wire(records))
    if clause_records:
        clauses.merge_records(clause_records_from_wire(clause_records))
    outcome, realized = _WORKER_CAMPAIGN._run_error_with_test(error)
    test = None
    if realized is not None:
        test = _WORKER_CAMPAIGN.serialize_realized(realized)
    learned = nogood_records_to_wire(nogoods.export_records())
    learned_clauses = clause_records_to_wire(clauses.export_records())
    return index, vars(outcome).copy(), test, learned, learned_clauses


def campaign_run_to_dict(
    config: OrchestratorConfig,
    report: CampaignReport,
    events: Sequence[CampaignEvent] = (),
) -> dict[str, Any]:
    """Machine-readable record of a whole run (the CLI ``--json`` report)."""
    from repro.campaign.serialize import report_to_dict

    return {
        "kind": "campaign-run",
        "config": config.to_dict(),
        "report": report_to_dict(report),
        "events": [event.to_dict() for event in events],
    }


class CampaignOrchestrator:
    """Run a campaign over an error list, serial or sharded.

    Parameters
    ----------
    config:
        The run configuration (target, jobs, checkpointing, ...).
    events:
        Optional :class:`EventStream`; subscribe renderers/loggers before
        calling :meth:`run`.  A fresh private stream is created otherwise.
    campaign:
        Optional pre-built campaign driver for the coordinator process
        (error enumeration + coordinator-side fault dropping); built from
        ``config`` when omitted.
    """

    def __init__(
        self,
        config: OrchestratorConfig,
        events: EventStream | None = None,
        campaign: CampaignBase | None = None,
    ) -> None:
        self.config = config
        self.events = events if events is not None else EventStream()
        if campaign is None:
            campaign = build_campaign(config.target, config.deadline_seconds)
        self.campaign = campaign
        self._stop = threading.Event()

    def default_errors(self, **kwargs) -> list[DesignError]:
        return self.campaign.default_errors(**kwargs)

    def interrupt(self) -> None:
        """Request a cooperative stop (thread- and signal-safe).

        The run finishes the error(s) currently in flight, checkpoints
        them as usual, emits one ``campaign-interrupted`` event, and
        returns a report with ``interrupted=True`` covering the completed
        prefix — nothing the workers finished is lost, and a checkpointed
        run resumes with ``--resume``.
        """
        self._stop.set()

    @property
    def interrupt_requested(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, errors: Sequence[DesignError]) -> CampaignReport:
        config = self.config
        start = time.monotonic()
        report = CampaignReport()
        completed = self._load_resumed(errors, report)
        pending = [
            (index, error)
            for index, error in enumerate(errors)
            if error.describe() not in completed
        ]
        self.events.emit(
            "campaign-started",
            target=config.target,
            n_errors=len(errors),
            jobs=config.jobs,
            error_simulation=config.error_simulation,
            resumed=len(errors) - len(pending),
        )
        checkpoint = None
        if config.checkpoint_path:
            checkpoint = CampaignCheckpoint(config.checkpoint_path)
        unattempted = 0
        try:
            if pending:
                if config.jobs == 1:
                    unattempted = self._run_serial(
                        pending, report, checkpoint
                    )
                else:
                    unattempted = self._run_pool(pending, report, checkpoint)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        report.total_seconds = time.monotonic() - start
        if self._stop.is_set():
            report.interrupted = True
            self.events.emit(
                "campaign-interrupted",
                completed=len(report.outcomes),
                remaining=unattempted,
                resumable=checkpoint is not None,
            )
        if config.profile:
            self._emit_profile_summary(report)
        self.events.emit(
            "campaign-finished",
            n_errors=report.n_errors,
            n_detected=report.n_detected,
            n_aborted=report.n_aborted,
            backtracks=report.backtracks_total,
            wall_seconds=report.total_seconds,
        )
        return report

    def _load_resumed(
        self, errors: Sequence[DesignError], report: CampaignReport
    ) -> set[str]:
        """Seed ``report`` with checkpointed outcomes; return their keys.

        Last record wins per error.  A run writes one record per error,
        but checkpoints from older versions that re-ran an error hold a
        second record for it, and the re-run outcome is the final one.
        """
        if not self.config.resume:
            return set()
        wanted = {error.describe() for error in errors}
        positions: dict[str, int] = {}
        for record in CampaignCheckpoint.load(self.config.checkpoint_path):
            name = record.outcome.error
            if name not in wanted:
                continue
            if name in positions:
                report.outcomes[positions[name]] = record.outcome
            else:
                report.outcomes.append(record.outcome)
                positions[name] = len(report.outcomes) - 1
        return set(positions)

    # ------------------------------------------------------------------
    # Serial path (jobs=1): the classic loop plus events + checkpointing
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: list[tuple[int, DesignError]],
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> int:
        index_of = {error.describe(): index for index, error in pending}

        def on_started(error: DesignError) -> None:
            self.events.emit(
                "error-started",
                error=error.describe(),
                index=index_of[error.describe()],
            )

        def on_finished(outcome: ErrorOutcome, realized) -> None:
            self._emit_finished(outcome, index_of.get(outcome.error, -1))
            test = None
            if realized is not None and checkpoint is not None:
                test = self.campaign.serialize_realized(realized)
            self._write_checkpoint(checkpoint, outcome, test)

        def on_dropped(outcome, dropped, seconds) -> None:
            self.events.emit(
                "test-dropped-others",
                error=outcome.error,
                dropped=[record.error for record in dropped],
                seconds=seconds,
            )
            for record in dropped:
                self._write_checkpoint(checkpoint, record, None)

        remaining = [error for _, error in pending]
        run_serial_campaign(
            self.campaign,
            remaining,
            report,
            error_simulation=self.config.error_simulation,
            on_started=on_started,
            on_finished=on_finished,
            on_dropped=on_dropped,
            should_stop=self._stop.is_set,
        )
        return len(remaining)

    # ------------------------------------------------------------------
    # Parallel path (jobs>1): sharded pool with coordinator-side dropping
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        pending: list[tuple[int, DesignError]],
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> int:
        from repro.campaign.serialize import (
            clause_records_from_wire,
            clause_records_to_wire,
            nogood_records_from_wire,
            nogood_records_to_wire,
        )

        config = self.config
        queue: deque[tuple[int, DesignError]] = deque(pending)
        #: The coordinator's pooled no-good and certificate stores:
        #: everything any worker has reported so far, fanned back out
        #: with each dispatch.  They ride on the coordinator campaign's
        #: own generator so a later in-process run (or serial fallback)
        #: keeps the learning.
        pooled = self.campaign.generator.nogoods
        pooled_clauses = self.campaign.generator.clauses
        with ProcessPoolExecutor(
            max_workers=config.jobs,
            initializer=_worker_init,
            initargs=(config.target, config.deadline_seconds),
        ) as pool:
            in_flight: dict = {}

            def dispatch() -> None:
                if self._stop.is_set():
                    return
                while queue and len(in_flight) < config.jobs:
                    index, error = queue.popleft()
                    self.events.emit(
                        "error-started", error=error.describe(), index=index
                    )
                    known = nogood_records_to_wire(pooled.all_records())
                    known_clauses = clause_records_to_wire(
                        pooled_clauses.all_records()
                    )
                    future = pool.submit(
                        _worker_run, (index, error, known, known_clauses)
                    )
                    in_flight[future] = (index, error)

            dispatch()
            while in_flight:
                done, _ = wait(
                    list(in_flight), return_when=FIRST_COMPLETED
                )
                # Process completions in submission order for determinism.
                for future in sorted(done, key=lambda f: in_flight[f][0]):
                    index, error = in_flight.pop(future)
                    try:
                        _, outcome_dict, test, learned, fresh_clauses = (
                            future.result()
                        )
                        outcome = ErrorOutcome(**outcome_dict)
                        if learned:
                            pooled.merge_records(
                                nogood_records_from_wire(learned)
                            )
                        if fresh_clauses:
                            pooled_clauses.merge_records(
                                clause_records_from_wire(fresh_clauses)
                            )
                    except Exception:
                        # A lost worker aborts the error, not the campaign.
                        outcome, test = ErrorOutcome(
                            error=error.describe(),
                            detected=False,
                            failure_stage="worker",
                        ), None
                    report.outcomes.append(outcome)
                    self._emit_finished(outcome, index)
                    self._write_checkpoint(checkpoint, outcome, test)
                    if (
                        config.error_simulation
                        and test is not None
                        and queue
                    ):
                        self._drop_from_queue(
                            outcome, test, queue, report, checkpoint
                        )
                dispatch()
            # An interrupt stops dispatching; in-flight errors above ran
            # to completion and were checkpointed, the queued tail is
            # reported as never attempted.
            return len(queue)

    def _drop_from_queue(
        self,
        outcome: ErrorOutcome,
        test: dict[str, Any],
        queue: deque,
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> None:
        """Error-simulate a finished test against the undispatched tail."""
        drop_start = time.monotonic()
        realized = self.campaign.deserialize_realized(test)
        survivors: list[tuple[int, DesignError]] = []
        dropped: list[ErrorOutcome] = []
        verdicts = self.campaign.detects_realized_batch(
            realized, [other for _, other in queue]
        )
        for (index, other), hit in zip(queue, verdicts):
            if hit:
                record = self.campaign.dropped_outcome(
                    other, realized, outcome.error
                )
                report.outcomes.append(record)
                dropped.append(record)
                self._write_checkpoint(checkpoint, record, None)
            else:
                survivors.append((index, other))
        queue.clear()
        queue.extend(survivors)
        if dropped:
            self.events.emit(
                "test-dropped-others",
                error=outcome.error,
                dropped=[record.error for record in dropped],
                seconds=time.monotonic() - drop_start,
            )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _emit_finished(self, outcome: ErrorOutcome, index: int) -> None:
        self.events.emit(
            "error-finished",
            error=outcome.error,
            index=index,
            detected=outcome.detected,
            failure_stage=outcome.failure_stage,
            test_length=outcome.test_length,
            backtracks=outcome.backtracks,
            final_backtracks=outcome.final_backtracks,
            attempts=outcome.attempts,
            seconds=outcome.seconds,
            cpu_seconds=outcome.cpu_seconds,
        )
        if self.config.profile:
            self.events.emit(
                "error-profile",
                error=outcome.error,
                index=index,
                phase_seconds=dict(outcome.phase_seconds),
                golden_hits=outcome.golden_hits,
                golden_misses=outcome.golden_misses,
                backtracks=outcome.backtracks,
                nogood_hits=outcome.nogood_hits,
                nogood_misses=outcome.nogood_misses,
                justify_cache_hits=outcome.justify_cache_hits,
                path_cache_hits=outcome.path_cache_hits,
                path_cache_misses=outcome.path_cache_misses,
                dptrace_sweeps_avoided=outcome.dptrace_sweeps_avoided,
                conflicts=outcome.conflicts,
                learned_clauses=outcome.learned_clauses,
                backjumps=outcome.backjumps,
                clause_hits=outcome.clause_hits,
                refuted_unjustifiable=outcome.refuted_unjustifiable,
                deadline_hit=outcome.deadline_hit,
            )

    def _emit_profile_summary(self, report: CampaignReport) -> None:
        phase_seconds: dict[str, float] = {}
        for outcome in report.outcomes:
            for phase, seconds in outcome.phase_seconds.items():
                phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        outcomes = report.outcomes
        self.events.emit(
            "profile-summary",
            phase_seconds=phase_seconds,
            golden_hits=sum(o.golden_hits for o in outcomes),
            golden_misses=sum(o.golden_misses for o in outcomes),
            backtracks=report.backtracks_total,
            nogood_hits=sum(o.nogood_hits for o in outcomes),
            nogood_misses=sum(o.nogood_misses for o in outcomes),
            justify_cache_hits=sum(o.justify_cache_hits for o in outcomes),
            path_cache_hits=sum(o.path_cache_hits for o in outcomes),
            path_cache_misses=sum(o.path_cache_misses for o in outcomes),
            dptrace_sweeps_avoided=sum(
                o.dptrace_sweeps_avoided for o in outcomes
            ),
            conflicts=sum(o.conflicts for o in outcomes),
            learned_clauses=sum(o.learned_clauses for o in outcomes),
            backjumps=sum(o.backjumps for o in outcomes),
            clause_hits=sum(o.clause_hits for o in outcomes),
            refuted_unjustifiable=sum(
                o.refuted_unjustifiable for o in outcomes
            ),
        )

    def _write_checkpoint(
        self,
        checkpoint: CampaignCheckpoint | None,
        outcome: ErrorOutcome,
        test: dict[str, Any] | None,
    ) -> None:
        if checkpoint is None:
            return
        checkpoint.append(outcome, test)
        self.events.emit(
            "checkpoint-written",
            path=checkpoint.path,
            records=checkpoint.n_written,
            error=outcome.error,
        )
