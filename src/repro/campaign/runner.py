"""Campaign driver: run TG over an error list and report Table-1 statistics.

An error counts as **detected** only when the whole chain succeeds: TG finds
a test, the test realizes as an instruction program, and the program
distinguishes the erroneous implementation from the ISA specification by
co-simulation.  Everything else is **aborted** — the same accounting as the
paper's Table 1.

The campaigns here run one error at a time.
:mod:`repro.campaign.orchestrator` loops over the error list, in this
process or across a worker pool, and :meth:`CampaignBase.run` is that loop
at ``jobs=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.tg import RealizationError, TestGenerator, TGStatus
from repro.errors.models import DesignError, enumerate_bus_ssl
from repro.machines import Machine, machine_adapter
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


#: Outcome fields of the removed restart search, deadline bank and TG
#: exposure fork screen.  Checkpoints and reports written before the
#: removals still carry them.
_RETIRED_OUTCOME_KEYS = frozenset({
    "restarts", "deadline_grant", "exposure_forks", "exposure_fork_decided",
})


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
    #: Wall-clock seconds of the run (the ``campaign-finished`` event's
    #: ``wall_seconds``).
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
        """Table 1's CPU time: every outcome's ``cpu_seconds`` (TG,
        realization and ISA check), summed."""
        return sum(o.cpu_seconds for o in self.outcomes) / 60.0

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
    """The TG → realize → ISA-check pipeline over one machine.

    Subclasses name their machine (:mod:`repro.machines`), which supplies
    the processor, the error list, realization, the ISA check, the batch
    check that fault dropping runs on a realized test, and the checkpoint
    codec of realized tests.  ``deadline_seconds`` (TG CPU seconds per
    error) defaults to the machine's.
    """

    machine: Machine

    def __init__(
        self,
        processor: Processor | None = None,
        deadline_seconds: float | None = None,
    ) -> None:
        machine = self.machine
        if deadline_seconds is None:
            deadline_seconds = machine.deadline
        self.processor = processor or machine.build()
        self.generator = TestGenerator(
            self.processor,
            deadline_seconds=deadline_seconds,
            exposure_comparator=machine.exposure_comparator,
        )

    @property
    def target(self) -> str:
        """The orchestrator's name for this vehicle (``CAMPAIGN_TARGETS``)."""
        return self.machine.name

    def default_errors(self, **options) -> list[DesignError]:
        """Bus SSL errors on the machine's campaign stages.

        ``max_bits_per_net`` defaults to the machine's bit sampling (on
        the DLX the 3 low bits and the MSB of each net, both polarities,
        which lands near the paper's 298 errors); None enumerates every
        bit.
        """
        options.setdefault("max_bits_per_net", self.machine.max_bits_per_net)
        return enumerate_bus_ssl(
            self.processor.datapath, stages=self.machine.campaign_stages,
            **options,
        )

    def _run_error_with_test(self, error: DesignError):
        """Run TG + realization + ISA check; return ``(outcome, realized)``
        where ``realized`` is the realized test when detected, else None."""
        machine = self.machine
        start = time.monotonic()
        cpu_start = time.process_time()
        result = self.generator.generate(error)
        outcome = _outcome_from_result(error, result)
        realized = None
        if result.status is not TGStatus.DETECTED:
            outcome.failure_stage = "tg"
        else:
            try:
                realized = machine.realize(self.processor, result.test)
            except RealizationError:
                outcome.failure_stage = "realize"
            else:
                if machine.detects(self.processor, realized, error):
                    outcome.detected = True
                    outcome.test_length = len(realized.program)
                    outcome.nontrivial_instructions = (
                        machine.nontrivial_count(realized.program)
                    )
                else:
                    outcome.failure_stage = "isa-check"
                    realized = None
        outcome.cpu_seconds = time.process_time() - cpu_start
        outcome.seconds = time.monotonic() - start
        return outcome, realized

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        """Which of ``errors`` an already-realized test also detects: one
        fault-free run, every error cone-forked against it (the machine's
        ``batch_detects``)."""
        return self.machine.detects_realized(self.processor, realized, errors)

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
            nontrivial_instructions=self.machine.nontrivial_count(
                realized.program
            ),
            dropped_by=dropper,
        )

    def run(
        self,
        errors: Sequence[DesignError],
        error_simulation: bool = False,
    ) -> CampaignReport:
        """Run the campaign in this process (the orchestrator at
        ``jobs=1``, without events or checkpoint).

        With ``error_simulation`` enabled (the paper's stated future
        improvement: "no error simulation was used in this preliminary
        implementation"), every test that detects its target error is also
        simulated against the remaining errors, and the ones it detects are
        dropped from the TG work list.
        """
        from repro.campaign.orchestrator import (
            CampaignOrchestrator,
            OrchestratorConfig,
        )

        config = OrchestratorConfig(
            target=self.target, error_simulation=error_simulation
        )
        return CampaignOrchestrator(config, campaign=self).run(errors)


class DlxCampaign(CampaignBase):
    """Table-1 campaign on the DLX (bus SSL errors in EX/MEM/WB)."""

    machine = machine_adapter("dlx")
    # An attribute of this class, not inherited, so that a wrapper can
    # time the DLX drop check alone.
    detects_realized_batch = CampaignBase.detects_realized_batch


class MiniCampaign(CampaignBase):
    """The same campaign on MiniPipe (execute/write-back stages)."""

    machine = machine_adapter("mini")
