"""Campaign driver: run TG over an error list and report Table-1 statistics.

An error counts as **detected** only when the whole chain succeeds: TG finds
a test, the test realizes as an instruction program, and the program
distinguishes the erroneous implementation from the ISA specification by
co-simulation.  Everything else is **aborted** — the same accounting as the
paper's Table 1.

The drivers here are single-process; :mod:`repro.campaign.orchestrator`
shards the same campaigns across a worker pool.  Both paths funnel through
:func:`run_serial_campaign`, so ``jobs=1`` orchestration is the very loop
``DlxCampaign.run`` has always executed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.tg import TestGenerator, TGStatus
from repro.errors.models import DesignError
from repro.model.processor import Processor


@dataclass
class ErrorOutcome:
    """Per-error campaign record."""

    error: str
    detected: bool
    test_length: int = 0
    nontrivial_instructions: int = 0
    backtracks: int = 0
    final_backtracks: int = 0
    attempts: int = 0
    seconds: float = 0.0
    failure_stage: str = ""  # "", "tg", "realize", "isa-check", "worker"
    #: Set when error simulation (fault dropping) detected this error with
    #: a test generated for another error, skipping TG entirely.
    dropped_by: str = ""
    #: CPU seconds per TG engine phase (dptrace/ctrljust/dprelax/cosim).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Golden-trace cache traffic during this error's exposure checks.
    golden_hits: int = 0
    golden_misses: int = 0
    #: Exposure checks screened by a cone fork / decided without a full
    #: bad-machine co-simulation (see ``repro.datapath.faultsim``).
    exposure_forks: int = 0
    exposure_fork_decided: int = 0
    #: Search-accelerator traffic (see ``repro.core.nogoods``): learned
    #: no-good and path-set cache hits/misses, memoized justification
    #: answers, and full C/O sweeps the incremental DPTRACE avoided.
    nogood_hits: int = 0
    nogood_misses: int = 0
    justify_cache_hits: int = 0
    path_cache_hits: int = 0
    path_cache_misses: int = 0
    dptrace_sweeps_avoided: int = 0
    #: CDCL refuter activity (see ``repro.core.clauses``): conflicts
    #: analyzed, 1-UIP clauses learned, non-chronological backjumps,
    #: certificate hits from the clause DB, and windows proven
    #: unjustifiable (refuted instead of search-exhausted).
    conflicts: int = 0
    learned_clauses: int = 0
    backjumps: int = 0
    clause_hits: int = 0
    refuted_unjustifiable: int = 0
    #: CPU seconds this error actually consumed (``time.process_time``
    #: delta around TG + realization + ISA check), next to the wall-clock
    #: ``seconds``.
    cpu_seconds: float = 0.0
    #: The TG abort was forced by the CPU deadline: the outcome is
    #: time-bound (taint).
    deadline_hit: bool = False


#: Outcome fields of the removed restart search and deadline bank.
#: Checkpoints and reports written before the removal still carry them.
_RETIRED_OUTCOME_KEYS = frozenset({"restarts", "deadline_grant"})


def outcome_from_dict(data: dict[str, Any]) -> ErrorOutcome:
    """Decode a serialized outcome (``vars(outcome)``).

    Drops exactly the retired restart and banking fields, so older
    checkpoints and reports still load; any other unknown field raises
    ``ValueError``.
    """
    fields = {
        key: value for key, value in data.items()
        if key not in _RETIRED_OUTCOME_KEYS
    }
    unknown = sorted(set(fields) - set(ErrorOutcome.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown outcome field(s): {', '.join(unknown)}")
    return ErrorOutcome(**fields)


@dataclass
class CampaignReport:
    """Aggregate campaign statistics in the shape of Table 1."""

    outcomes: list[ErrorOutcome] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Set when the run was stopped cooperatively (SIGINT, service drain)
    #: before the error list was exhausted; the outcomes cover only the
    #: completed prefix.
    interrupted: bool = False

    @property
    def n_errors(self) -> int:
        return len(self.outcomes)

    @property
    def n_detected(self) -> int:
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def n_aborted(self) -> int:
        return self.n_errors - self.n_detected

    @property
    def detection_rate(self) -> float:
        return self.n_detected / self.n_errors if self.n_errors else 0.0

    @property
    def avg_test_length(self) -> float:
        lengths = [o.test_length for o in self.outcomes if o.detected]
        return sum(lengths) / len(lengths) if lengths else 0.0

    @property
    def backtracks_detected(self) -> int:
        """Backtracks of the successful searches only, summed over the
        detected errors — the paper's Table 1 accounting (their 50)."""
        return sum(o.final_backtracks for o in self.outcomes if o.detected)

    @property
    def backtracks_total(self) -> int:
        """All backtracks spent, including failed exploration rounds."""
        return sum(o.backtracks for o in self.outcomes)

    @property
    def cpu_minutes(self) -> float:
        return self.total_seconds / 60.0

    def table1(self, title: str = "Test generation for bus SSL errors") -> str:
        """Render the campaign in the paper's Table 1 format."""
        rows = [
            ("No. of errors", f"{self.n_errors}"),
            ("No. of errors detected", f"{self.n_detected}"),
            ("No. of errors aborted", f"{self.n_aborted}"),
            ("Average test sequence length", f"{self.avg_test_length:.1f}"),
            (
                "No. of backtracks (detected errors only)",
                f"{self.backtracks_detected}",
            ),
            ("CPU time [minutes]", f"{self.cpu_minutes:.1f}"),
        ]
        width = max(len(r[0]) for r in rows) + 2
        lines = [title, "-" * (width + 8)]
        lines += [f"{name:<{width}}{value:>6}" for name, value in rows]
        return "\n".join(lines)


def _outcome_from_result(error: DesignError, result) -> ErrorOutcome:
    """The (not-yet-detected) outcome skeleton carrying TG's statistics."""
    return ErrorOutcome(
        error=error.describe(),
        detected=False,
        backtracks=result.backtracks,
        final_backtracks=result.final_backtracks,
        attempts=result.attempts,
        phase_seconds=dict(result.phase_seconds),
        golden_hits=result.golden_hits,
        golden_misses=result.golden_misses,
        exposure_forks=result.exposure_forks,
        exposure_fork_decided=result.exposure_fork_decided,
        nogood_hits=result.nogood_hits,
        nogood_misses=result.nogood_misses,
        justify_cache_hits=result.justify_cache_hits,
        path_cache_hits=result.path_cache_hits,
        path_cache_misses=result.path_cache_misses,
        dptrace_sweeps_avoided=result.dptrace_sweeps_avoided,
        conflicts=result.conflicts,
        learned_clauses=result.learned_clauses,
        backjumps=result.backjumps,
        clause_hits=result.clause_hits,
        refuted_unjustifiable=result.refuted_unjustifiable,
        deadline_hit=result.deadline_hit,
    )


class CampaignBase:
    """Shared campaign machinery over a concrete test vehicle.

    Subclasses provide the per-error pipeline (:meth:`_run_error_with_test`)
    plus the handful of vehicle-specific hooks the shared loop and the
    orchestrator need: re-checking a realized test against another error
    (fault dropping) and (de)serializing realized tests so they can cross a
    process boundary or land in a checkpoint.
    """

    processor: Processor
    generator: TestGenerator

    def default_errors(self, **kwargs) -> list[DesignError]:
        raise NotImplementedError

    def _run_error_with_test(self, error: DesignError):
        """Run TG + realization + ISA check; return ``(outcome, realized)``
        where ``realized`` is the realized test when detected, else None."""
        raise NotImplementedError

    def detects_realized(self, realized, error: DesignError) -> bool:
        """Does an already-realized test also detect ``error``?"""
        raise NotImplementedError

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        """``[self.detects_realized(realized, e) for e in errors]``.

        Vehicles with a batch fault simulator override this to run the
        fault-free trace once and cone-fork all errors against it; the
        base implementation just loops.
        """
        return [self.detects_realized(realized, e) for e in errors]

    def nontrivial_count(self, program) -> int:
        """Instructions in ``program`` other than NOP."""
        raise NotImplementedError

    def serialize_realized(self, realized) -> dict[str, Any]:
        raise NotImplementedError

    def deserialize_realized(self, data: dict[str, Any]):
        raise NotImplementedError

    def run_error(self, error: DesignError) -> ErrorOutcome:
        outcome, _ = self._run_error_with_test(error)
        return outcome

    def dropped_outcome(self, other: DesignError, realized,
                        dropper: str) -> ErrorOutcome:
        """The record for an error detected by another error's test."""
        return ErrorOutcome(
            error=other.describe(),
            detected=True,
            test_length=len(realized.program),
            nontrivial_instructions=self.nontrivial_count(realized.program),
            dropped_by=dropper,
        )

    def run(
        self,
        errors: Sequence[DesignError],
        error_simulation: bool = False,
    ) -> CampaignReport:
        """Run the campaign.

        With ``error_simulation`` enabled (the paper's stated future
        improvement: "no error simulation was used in this preliminary
        implementation"), every test that detects its target error is also
        simulated against the remaining errors, and the ones it detects are
        dropped from the TG work list.
        """
        report = CampaignReport()
        start = time.monotonic()
        run_serial_campaign(
            self, list(errors), report, error_simulation=error_simulation
        )
        report.total_seconds = time.monotonic() - start
        return report


def run_serial_campaign(
    campaign: CampaignBase,
    remaining: list[DesignError],
    report: CampaignReport,
    error_simulation: bool = False,
    on_started: Callable[[DesignError], None] | None = None,
    on_finished: Callable[[ErrorOutcome, Any], None] | None = None,
    on_dropped: Callable[[ErrorOutcome, list[ErrorOutcome], float], None]
    | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> None:
    """The serial campaign loop, appending outcomes to ``report``.

    ``remaining`` is consumed in place (fault dropping removes errors that
    an earlier test already detects).  The optional callbacks let the
    orchestrator attach event emission and checkpointing without forking
    the control flow: ``on_finished(outcome, realized)`` fires once the
    outcome is final (dropping time folded in), ``on_dropped(outcome,
    dropped, seconds)`` after a test removed errors from the work list.
    ``should_stop`` is polled between errors: when it returns True the
    loop returns early, leaving the unattempted tail in ``remaining`` —
    the cooperative-interrupt hook (the in-flight error always finishes,
    so every appended outcome is complete and checkpointable).
    """
    while remaining:
        if should_stop is not None and should_stop():
            return
        error = remaining.pop(0)
        if on_started is not None:
            on_started(error)
        outcome, realized = campaign._run_error_with_test(error)
        report.outcomes.append(outcome)
        dropped: list[ErrorOutcome] = []
        drop_seconds = 0.0
        if error_simulation and realized is not None:
            drop_start = time.monotonic()
            survivors = []
            verdicts = campaign.detects_realized_batch(realized, remaining)
            for other, hit in zip(remaining, verdicts):
                if hit:
                    record = campaign.dropped_outcome(
                        other, realized, outcome.error
                    )
                    report.outcomes.append(record)
                    dropped.append(record)
                else:
                    survivors.append(other)
            remaining[:] = survivors
            drop_seconds = time.monotonic() - drop_start
            outcome.seconds += drop_seconds
        if on_finished is not None:
            on_finished(outcome, realized)
        if dropped and on_dropped is not None:
            on_dropped(outcome, dropped, drop_seconds)


class DlxCampaign(CampaignBase):
    """Table-1 campaign on the DLX (bus SSL errors in EX/MEM/WB)."""

    def __init__(
        self,
        processor: Processor | None = None,
        deadline_seconds: float = 20.0,
    ) -> None:
        from repro.dlx import build_dlx
        from repro.dlx.env import dlx_exposure_comparator

        self.processor = processor or build_dlx()
        self.generator = TestGenerator(
            self.processor,
            deadline_seconds=deadline_seconds,
            exposure_comparator=dlx_exposure_comparator,
        )

    def default_errors(
        self, max_bits_per_net: int | None = 4
    ) -> list[DesignError]:
        """Bus SSL errors in the execute, memory and write-back stages.

        With the default bit sampling (3 low bits + MSB per net, both
        polarities) the campaign size lands near the paper's 298 errors;
        ``max_bits_per_net=None`` enumerates every bit.
        """
        from repro.dlx.datapath import STAGE_EX, STAGE_MEM, STAGE_WB
        from repro.errors.models import enumerate_bus_ssl

        return enumerate_bus_ssl(
            self.processor.datapath,
            stages={STAGE_EX, STAGE_MEM, STAGE_WB},
            max_bits_per_net=max_bits_per_net,
        )

    def _run_error_with_test(self, error: DesignError):
        from repro.dlx import detects
        from repro.dlx.realize import RealizationError, realize

        start = time.monotonic()
        cpu_start = time.process_time()
        result = self.generator.generate(error)
        outcome = _outcome_from_result(error, result)
        realized = None
        if result.status is not TGStatus.DETECTED:
            outcome.failure_stage = "tg"
        else:
            try:
                realized = realize(self.processor, result.test)
            except RealizationError:
                outcome.failure_stage = "realize"
            else:
                if detects(
                    self.processor, realized.program, error,
                    realized.init_regs, realized.init_memory,
                ):
                    outcome.detected = True
                    outcome.test_length = len(realized.program)
                    outcome.nontrivial_instructions = self.nontrivial_count(
                        realized.program
                    )
                else:
                    outcome.failure_stage = "isa-check"
                    realized = None
        outcome.cpu_seconds = time.process_time() - cpu_start
        outcome.seconds = time.monotonic() - start
        return outcome, realized

    def detects_realized(self, realized, error: DesignError) -> bool:
        from repro.dlx import detects

        return detects(
            self.processor, realized.program, error,
            realized.init_regs, realized.init_memory,
        )

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        from repro.dlx.env import batch_detects

        return batch_detects(
            self.processor, realized.program, errors,
            realized.init_regs, realized.init_memory,
        )

    def nontrivial_count(self, program) -> int:
        from repro.dlx.isa import NOP

        return sum(1 for i in program if i != NOP)

    def serialize_realized(self, realized) -> dict[str, Any]:
        from repro.campaign.serialize import realized_dlx_to_dict

        return realized_dlx_to_dict(realized)

    def deserialize_realized(self, data: dict[str, Any]):
        from repro.campaign.serialize import realized_dlx_from_dict

        return realized_dlx_from_dict(data)


class MiniCampaign(CampaignBase):
    """The same campaign on MiniPipe (execute/write-back stages)."""

    def __init__(
        self,
        processor: Processor | None = None,
        deadline_seconds: float = 10.0,
    ) -> None:
        from repro.mini import build_minipipe

        self.processor = processor or build_minipipe()
        self.generator = TestGenerator(
            self.processor, deadline_seconds=deadline_seconds
        )

    def default_errors(
        self, max_bits_per_net: int | None = None
    ) -> list[DesignError]:
        from repro.errors.models import enumerate_bus_ssl

        return enumerate_bus_ssl(
            self.processor.datapath,
            stages={1, 2},
            max_bits_per_net=max_bits_per_net,
        )

    def _run_error_with_test(self, error: DesignError):
        from repro.mini import detects
        from repro.mini.realize import RealizationError, realize

        start = time.monotonic()
        cpu_start = time.process_time()
        result = self.generator.generate(error)
        outcome = _outcome_from_result(error, result)
        realized = None
        if result.status is not TGStatus.DETECTED:
            outcome.failure_stage = "tg"
        else:
            try:
                realized = realize(result.test)
            except RealizationError:
                outcome.failure_stage = "realize"
            else:
                if detects(
                    self.processor, realized.program, error,
                    realized.init_regs,
                ):
                    outcome.detected = True
                    outcome.test_length = len(realized.program)
                    outcome.nontrivial_instructions = self.nontrivial_count(
                        realized.program
                    )
                else:
                    outcome.failure_stage = "isa-check"
                    realized = None
        outcome.cpu_seconds = time.process_time() - cpu_start
        outcome.seconds = time.monotonic() - start
        return outcome, realized

    def detects_realized(self, realized, error: DesignError) -> bool:
        from repro.mini import detects

        return detects(
            self.processor, realized.program, error, realized.init_regs
        )

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        from repro.mini.spec import batch_detects

        return batch_detects(
            self.processor, realized.program, errors, realized.init_regs
        )

    def nontrivial_count(self, program) -> int:
        from repro.mini.isa import NOP

        return sum(1 for i in program if i != NOP)

    def serialize_realized(self, realized) -> dict[str, Any]:
        from repro.campaign.serialize import realized_mini_to_dict

        return realized_mini_to_dict(realized)

    def deserialize_realized(self, data: dict[str, Any]):
        from repro.campaign.serialize import realized_mini_from_dict

        return realized_mini_from_dict(data)
