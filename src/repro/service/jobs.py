"""Service job model: one submitted campaign/fuzz request and its state.

A :class:`Job` is the unit the server queues, runs and reports on.  Its
event feed is the same structured stream every other consumer of
``repro.campaign.events`` sees: the orchestrator (or fuzz harness) emits
into a private :class:`EventStream`, the job's bounded :class:`EventLog`
records it, and each emission pokes the asyncio side (thread-safely) so
live ``/events`` streamers wake up.  The JSON report a finished campaign
job carries is built by the very same :func:`campaign_run_to_dict` the
CLI uses — which is what makes the HTTP-vs-CLI byte-identity guarantee a
code path, not a test aspiration.

Request validation happens here (:func:`campaign_config_from_request`,
:func:`fuzz_config_from_request`) so the HTTP layer stays dumb and the
same checks guard in-process submissions from tests.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any

import asyncio

from repro.campaign.events import EventLog, EventStream
from repro.campaign.orchestrator import (
    CAMPAIGN_TARGETS,
    CampaignOrchestrator,
    OrchestratorConfig,
    campaign_run_to_dict,
)
from repro.service.http11 import HttpError

JOB_KINDS = ("campaign", "fuzz")
TERMINAL_STATUSES = frozenset({
    "done", "failed", "interrupted", "cancelled"
})

#: Per-target defaults matching the CLI subcommand defaults, so a request
#: that omits them reproduces ``python -m repro table1`` / ``minipipe``.
DEFAULT_DEADLINES = {"dlx": 20.0, "mini": 10.0}
DEFAULT_SAMPLES = {"dlx": 6, "mini": 1}

#: Every ``POST /v1/campaigns`` field anything reads: the run knobs
#: (:func:`campaign_config_from_request`), the error selection
#: (:func:`select_campaign_errors`) and the server's own ``tenant``,
#: ``resume`` and ``checkpoint``.  Any other field is rejected, so a
#: misspelt or retired knob cannot silently run with its default.
CAMPAIGN_REQUEST_FIELDS = frozenset({
    "target", "deadline", "jobs", "dropping", "profile",
    "errors", "sample",
    "tenant", "resume", "checkpoint",
})

#: Every ``POST /v1/fuzz`` field anything reads: the fuzz and matrix
#: knobs (:func:`fuzz_config_from_request`) and the server's ``tenant``.
#: Any other field is rejected, as for campaigns.
FUZZ_REQUEST_FIELDS = frozenset({
    "machine", "seed", "length", "lanes",
    "matrix", "programs", "sample",
    "iters", "jobs", "budget_seconds", "plant", "max_minimize",
    "tenant",
})


def new_job_id(kind: str) -> str:
    return f"{kind}-{uuid.uuid4().hex[:12]}"


@dataclass
class Job:
    """One queued/running/finished service request."""

    id: str
    kind: str
    tenant: str
    request: dict[str, Any]
    max_events: int | None = None

    status: str = "queued"
    created_wall: float = field(default_factory=time.time)
    started_wall: float | None = None
    finished_wall: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    #: Per-request warm-cache story (``WarmLease.report()``).
    cache: dict[str, Any] | None = None
    checkpoint_path: str | None = None
    resumable: bool = False
    #: True once the server compacted this terminal job: the full result
    #: and event buffer are gone, status metadata remains queryable.
    evicted: bool = False
    _dropped_at_compaction: int = 0

    log: EventLog = field(init=False)
    stream: EventStream = field(init=False)
    #: The running orchestrator, for cooperative interruption on drain.
    orchestrator: CampaignOrchestrator | None = None
    _waiters: list[asyncio.Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.log = EventLog(max_events=self.max_events)
        self.stream = EventStream()
        self.stream.subscribe(self.log)

    # ------------------------------------------------------------------
    # Live-stream plumbing
    # ------------------------------------------------------------------
    def bump(self) -> None:
        """Wake every waiting streamer (event-loop thread only)."""
        for waiter in self._waiters:
            waiter.set()

    def attach_notifier(self, loop: asyncio.AbstractEventLoop) -> None:
        """Forward every event emission to the loop thread's waiters."""
        self.stream.subscribe(
            lambda _event: loop.call_soon_threadsafe(self.bump)
        )

    async def wait_for_change(self) -> None:
        waiter = asyncio.Event()
        self._waiters.append(waiter)
        try:
            await waiter.wait()
        finally:
            self._waiters.remove(waiter)

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def events_dropped(self) -> int:
        """Ring-buffer evictions (compaction clears are not drops)."""
        return (self._dropped_at_compaction if self.evicted
                else self.log.dropped)

    def interrupt(self) -> None:
        if self.orchestrator is not None:
            self.orchestrator.interrupt()

    def compact(self) -> None:
        """Release the result dict and event buffer of a terminal job.

        Status metadata (including ``events_seen``/``events_dropped``
        and the warm-cache report) stays; ``GET`` keeps answering with
        ``evicted: true`` and ``result: null``.
        """
        if self.evicted:
            return
        self._dropped_at_compaction = self.log.dropped
        self.evicted = True
        self.result = None
        self.log.clear()

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_status_dict(self, include_result: bool = True) -> dict[str, Any]:
        status: dict[str, Any] = {
            "kind": "service-job",
            "id": self.id,
            "job_kind": self.kind,
            "tenant": self.tenant,
            "status": self.status,
            "created_wall": self.created_wall,
            "started_wall": self.started_wall,
            "finished_wall": self.finished_wall,
            "request": dict(self.request),
            "events_seen": self.log.seen,
            "events_dropped": self.events_dropped,
            "evicted": self.evicted,
            "resumable": self.resumable,
            "checkpoint_path": self.checkpoint_path,
            "cache": self.cache,
            "error": self.error,
        }
        if include_result:
            status["result"] = self.result
        return status


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------
def _field(request: dict, name: str, kind, default):
    value = request.get(name, default)
    if value is default:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise HttpError(400, f"bad field {name!r}: {value!r}") from None


def campaign_config_from_request(
    request: dict[str, Any],
    checkpoint_path: str | None,
    resume: bool,
) -> OrchestratorConfig:
    """Validate a ``POST /v1/campaigns`` body into an orchestrator config.

    Mirrors the CLI flag set exactly — same knobs, same defaults — so a
    request dict and an argv produce the same run.  A field outside
    :data:`CAMPAIGN_REQUEST_FIELDS` answers 400.
    """
    unknown = sorted(set(request) - CAMPAIGN_REQUEST_FIELDS)
    if unknown:
        raise HttpError(
            400, f"unknown campaign request field(s): {', '.join(unknown)}"
        )
    target = request.get("target", "dlx")
    if target not in CAMPAIGN_TARGETS:
        raise HttpError(400, f"unknown campaign target {target!r}")
    deadline = _field(
        request, "deadline", float, DEFAULT_DEADLINES[target]
    )
    jobs = _field(request, "jobs", int, 1)
    try:
        return OrchestratorConfig(
            target=target,
            jobs=jobs,
            deadline_seconds=deadline,
            error_simulation=bool(request.get("dropping", False)),
            checkpoint_path=checkpoint_path,
            resume=resume,
            profile=bool(request.get("profile", False)),
        )
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None


def select_campaign_errors(campaign, target: str, request: dict[str, Any]):
    """The error list a campaign request targets.

    ``errors`` (a list of ``repro.fuzz.minimize`` spec strings, e.g.
    ``bus-ssl:alu_add.y:0:1``) wins when present — the single-error "TG
    request" shape; otherwise the CLI's default enumeration with the
    CLI's ``--sample`` semantics.
    """
    from repro.fuzz.minimize import parse_error_spec

    specs = request.get("errors")
    if specs:
        if not isinstance(specs, list):
            raise HttpError(400, "errors must be a list of spec strings")
        try:
            return [
                parse_error_spec(spec, campaign.processor.datapath)
                for spec in specs
            ]
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
    errors = campaign.default_errors(
        **({"max_bits_per_net": 4} if target == "dlx" else {})
    )
    sample = _field(request, "sample", int, DEFAULT_SAMPLES[target])
    if sample > 1:
        errors = errors[::sample]
    return errors


def run_campaign_job(
    job: Job, orchestrator: CampaignOrchestrator, errors
) -> dict[str, Any]:
    """Blocking campaign execution (runs on the server's worker thread).

    Returns the same ``campaign-run`` dict the CLI writes with
    ``--json`` — config, report, full event list.
    """
    report = orchestrator.run(errors)
    run = campaign_run_to_dict(orchestrator.config, report, job.log.events)
    return run


def fuzz_config_from_request(request: dict[str, Any]):
    """Validate a ``POST /v1/fuzz`` body into Fuzz/Matrix config(s).

    A field outside :data:`FUZZ_REQUEST_FIELDS` answers 400.
    """
    from repro.fuzz import FuzzConfig, MatrixConfig

    unknown = sorted(set(request) - FUZZ_REQUEST_FIELDS)
    if unknown:
        raise HttpError(
            400, f"unknown fuzz request field(s): {', '.join(unknown)}"
        )
    common = dict(
        machine=request.get("machine", "mini"),
        seed=_field(request, "seed", int, 1),
        length=_field(request, "length", int, 12),
        lanes=_field(request, "lanes", int, None),
    )
    try:
        if request.get("matrix"):
            config = MatrixConfig(
                programs=_field(request, "programs", int, 16),
                sample=_field(request, "sample", int, 1),
                **common,
            )
            if config.machine.startswith("dlx"):
                config = replace(config, max_bits_per_net=4)
            return config
        return FuzzConfig(
            iters=_field(request, "iters", int, 200),
            jobs=_field(request, "jobs", int, 1),
            budget_seconds=_field(request, "budget_seconds", float, None),
            plant=request.get("plant"),
            max_minimize=_field(request, "max_minimize", int, 5),
            **common,
        )
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None


def run_fuzz_job(job: Job, config) -> dict[str, Any]:
    """Blocking fuzz / conformance-matrix execution (worker thread)."""
    from repro.fuzz import (
        FuzzConfig,
        machine_adapter,
        matrix_artifact,
        run_fuzz,
        run_matrix,
    )

    if isinstance(config, FuzzConfig):
        report = run_fuzz(config, events=job.stream)
        return {
            "kind": "fuzz-run",
            "report": report.to_dict(machine_adapter(config.machine).build()),
            "events": job.log.to_dicts(),
        }
    fragment = run_matrix(config, events=job.stream)
    return {
        "kind": "matrix-run",
        "artifact": matrix_artifact({config.machine: fragment}),
        "events": job.log.to_dicts(),
    }
