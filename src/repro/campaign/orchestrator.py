"""Campaign orchestration: one loop for every worker count, plus
checkpoint/resume.

Error-targeted test generation is independent per error, so the
orchestrator hands each error to an executor and merges the results as
they complete.  ``jobs=1`` runs each error in this process, on the
coordinator's own campaign, when it is submitted; ``jobs>1`` shards the
list across a ``multiprocessing`` worker pool whose processes each
rebuild the processor model once (pool initializer).  Either way a task
returns the :class:`ErrorOutcome` plus the realized test, and the
coordinator emits structured events (:mod:`repro.campaign.events`),
appends each completed error to a JSONL checkpoint
(:mod:`repro.campaign.checkpoint`), and — when error simulation is
enabled — simulates every finished test against the **not-yet-dispatched
tail** of the work list (at ``jobs=1``, every remaining error).  Workers
share nothing but their results: learned search state never crosses a
process boundary.
"""

from __future__ import annotations

import math
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointRecord
from repro.campaign.events import CampaignEvent, EventStream
from repro.campaign.runner import (
    CampaignBase,
    CampaignReport,
    DlxCampaign,
    ErrorOutcome,
    MiniCampaign,
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


def check_deadline(seconds: float) -> None:
    """Raise ``ValueError`` unless ``seconds`` is a finite positive number.

    A deadline of zero or less aborts every error, and NaN never
    compares true, so it would mean no deadline at all.
    """
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(
            f"deadline must be a finite positive number of seconds, "
            f"got {seconds}"
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
        check_deadline(self.deadline_seconds)
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


def _worker_run(
    campaign: CampaignBase | None, index: int, error: DesignError
):
    """Run one error's TG → realize → ISA-check pipeline.

    A pool worker passes None and runs on its own ``_WORKER_CAMPAIGN``.
    In-process runs pass the coordinator's campaign instead of using the
    global, because the service runs campaigns concurrently in threads.
    """
    if campaign is None:
        campaign = _WORKER_CAMPAIGN
    outcome, realized = campaign._run_error_with_test(error)
    return index, outcome, realized


class _InlineExecutor(Executor):
    """The ``jobs=1`` executor: runs each task when it is submitted.

    Not a thread pool, so a second Ctrl-C kills the running error at once
    instead of waiting for it at shutdown.  As in a process pool, a
    task's exception lands in its future; ``KeyboardInterrupt`` does not.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


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
    """Run a campaign over an error list, in process or sharded.

    Parameters
    ----------
    config:
        The run configuration (target, jobs, checkpointing, ...).
    events:
        Optional :class:`EventStream`; subscribe renderers/loggers before
        calling :meth:`run`.  A fresh private stream is created otherwise.
    campaign:
        Optional pre-built campaign driver for the coordinator process
        (error enumeration, fault dropping and, at ``jobs=1``, every
        error's pipeline); built from ``config`` when omitted.
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
        resumed = self._load_resumed(errors, report)
        completed = {record.outcome.error for record in resumed}
        queue = deque(
            (index, error)
            for index, error in enumerate(errors)
            if error.describe() not in completed
        )
        self.events.emit(
            "campaign-started",
            target=config.target,
            n_errors=len(errors),
            jobs=config.jobs,
            error_simulation=config.error_simulation,
            resumed=len(errors) - len(queue),
        )
        checkpoint = None
        if config.checkpoint_path:
            checkpoint = CampaignCheckpoint(config.checkpoint_path)
        unattempted = 0
        try:
            if config.error_simulation:
                self._replay_recorded(resumed, queue, report, checkpoint)
            if queue:
                unattempted = self._run_pending(queue, report, checkpoint)
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
    ) -> list[CheckpointRecord]:
        """Seed ``report`` with checkpointed outcomes; return the records
        of the submitted errors, in checkpoint order.

        Last record wins per error.  A run writes one record per error,
        but checkpoints from older versions that re-ran an error hold a
        second record for it, and the re-run outcome is the final one.
        """
        if not self.config.resume:
            return []
        wanted = {error.describe() for error in errors}
        positions: dict[str, int] = {}
        records = []
        for record in CampaignCheckpoint.load(self.config.checkpoint_path):
            name = record.outcome.error
            if name not in wanted:
                continue
            records.append(record)
            if name in positions:
                report.outcomes[positions[name]] = record.outcome
            else:
                report.outcomes.append(record.outcome)
                positions[name] = len(report.outcomes) - 1
        return records

    def _replay_recorded(
        self,
        records: Sequence[CheckpointRecord],
        queue: deque,
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> None:
        """Error-simulate each recorded test, in checkpoint order, against
        the pending errors, and record what it drops as :meth:`_finish`
        does.

        A run killed after a dropper's record but before the records of
        the errors its test drops resumes with those errors pending;
        without the replay they would run TG or fall to a later dropper.
        """
        for record in records:
            if not queue:
                return
            if record.test is None:
                continue
            realized = self.campaign.deserialize_realized(record.test)
            dropped, seconds = self._drop_from_queue(
                record.outcome, realized, queue
            )
            report.outcomes.extend(dropped)
            self._record_dropped(
                record.outcome, dropped, seconds, checkpoint
            )

    def _run_pending(
        self,
        queue: deque[tuple[int, DesignError]],
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> int:
        """Run the queued errors; return how many were never attempted."""
        config = self.config
        if config.jobs == 1:
            executor, campaign = _InlineExecutor(), self.campaign
        else:
            executor, campaign = ProcessPoolExecutor(
                max_workers=config.jobs,
                initializer=_worker_init,
                initargs=(config.target, config.deadline_seconds),
            ), None
        with executor:
            in_flight: dict = {}

            def dispatch() -> None:
                while (queue and len(in_flight) < config.jobs
                       and not self._stop.is_set()):
                    index, error = queue.popleft()
                    self.events.emit(
                        "error-started", error=error.describe(), index=index
                    )
                    future = executor.submit(
                        _worker_run, campaign, index, error
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
                        _, outcome, realized = future.result()
                    except Exception:
                        # A lost worker or a failing pipeline aborts the
                        # error, not the campaign; the traceback says why.
                        traceback.print_exc()
                        outcome, realized = ErrorOutcome(
                            error=error.describe(),
                            detected=False,
                            failure_stage="worker",
                        ), None
                    self._finish(index, outcome, realized, queue, report,
                                 checkpoint)
                dispatch()
            # An interrupt stops dispatching; in-flight errors above ran
            # to completion and were checkpointed, the queued tail is
            # reported as never attempted.
            return len(queue)

    def _finish(
        self,
        index: int,
        outcome: ErrorOutcome,
        realized,
        queue: deque,
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> None:
        """Record one finished error and the errors its test drops.

        Dropping runs first so its time counts in the dropper's
        ``seconds``; the events follow in a fixed order for every
        ``jobs`` value.
        """
        report.outcomes.append(outcome)
        dropped, drop_seconds = [], 0.0
        if self.config.error_simulation and realized is not None and queue:
            dropped, drop_seconds = self._drop_from_queue(
                outcome, realized, queue
            )
            outcome.seconds += drop_seconds
            report.outcomes.extend(dropped)
        self._emit_finished(outcome, index)
        test = None
        if realized is not None and checkpoint is not None:
            test = self.campaign.serialize_realized(realized)
        self._write_checkpoint(checkpoint, outcome, test)
        self._record_dropped(outcome, dropped, drop_seconds, checkpoint)

    def _record_dropped(
        self,
        dropper: ErrorOutcome,
        dropped: list[ErrorOutcome],
        seconds: float,
        checkpoint: CampaignCheckpoint | None,
    ) -> None:
        """Announce and checkpoint the errors ``dropper``'s test drops."""
        if not dropped:
            return
        self.events.emit(
            "test-dropped-others",
            error=dropper.error,
            dropped=[record.error for record in dropped],
            seconds=seconds,
        )
        for record in dropped:
            self._write_checkpoint(checkpoint, record, None)

    def _drop_from_queue(
        self, outcome: ErrorOutcome, realized, queue: deque
    ) -> tuple[list[ErrorOutcome], float]:
        """Error-simulate a finished test against the undispatched tail;
        remove the errors it detects and return their records and the
        seconds it took."""
        start = time.monotonic()
        verdicts = self.campaign.detects_realized_batch(
            realized, [other for _, other in queue]
        )
        survivors: list[tuple[int, DesignError]] = []
        dropped: list[ErrorOutcome] = []
        for (index, other), hit in zip(queue, verdicts):
            if hit:
                dropped.append(self.campaign.dropped_outcome(
                    other, realized, outcome.error
                ))
            else:
                survivors.append((index, other))
        queue.clear()
        queue.extend(survivors)
        return dropped, time.monotonic() - start

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
