"""Structured campaign event stream.

A long campaign run is observable through a stream of typed events rather
than ad-hoc prints: the orchestrator emits one event per lifecycle step and
any number of subscribers consume them — a live progress renderer for
humans, an :class:`EventLog` for the machine-readable ``--json`` report,
test assertions, or anything else.

Every event serializes with a ``schema_version`` (the wire format of the
stream, bumped on breaking payload changes) and a ``seq`` number that is
monotonic per :class:`EventStream` — clients of the campaign service
resume a live stream from the last ``seq`` they saw.  Readers tolerate
records written before these fields existed (:func:`event_from_dict`).

Event kinds and their payload fields (all payloads also carry the emission
wall-clock time):

``campaign-started``
    ``target``, ``n_errors``, ``jobs``, ``error_simulation``, ``resumed``
    (errors skipped because a resumed checkpoint already holds them).
``error-started``
    ``error``, ``index`` (position in the submitted error list).
``error-finished``
    ``error``, ``index``, ``detected``, ``failure_stage``, ``test_length``,
    ``backtracks``, ``final_backtracks``, ``attempts``, ``seconds``,
    ``cpu_seconds`` (process CPU time the attempt consumed).
``error-profile``
    ``error``, ``index``, ``phase_seconds`` (CPU seconds per TG phase:
    dptrace / ctrljust / dprelax / cosim), ``golden_hits``,
    ``golden_misses``, ``exposure_forks``, ``exposure_fork_decided``,
    ``backtracks``, plus the search-accelerator counters
    ``nogood_hits`` / ``nogood_misses`` (learned no-good lookups),
    ``justify_cache_hits`` (memoized CTRLJUST answers),
    ``path_cache_hits`` / ``path_cache_misses`` (DPTRACE selections) and
    ``dptrace_sweeps_avoided`` (full C/O recomputes the incremental
    session replaced), and the CDCL refuter counters ``conflicts``,
    ``learned_clauses``, ``backjumps``, ``clause_hits`` and
    ``refuted_unjustifiable`` (windows proven unjustifiable instead of
    search-exhausted; see ``repro.core.clauses``), plus ``deadline_hit``
    (the attempt was cut short by its CPU deadline and is taint-excluded
    from learning).  Emitted only when profiling is enabled
    (``--profile``).
``profile-summary``
    The same fields as ``error-profile`` (minus ``error``/``index``),
    summed over every error.  One per profiled campaign, before
    ``campaign-finished``.
``test-dropped-others``
    ``error`` (whose test was simulated), ``dropped`` (list of error
    descriptions removed from the work list), ``seconds``.
``checkpoint-written``
    ``path``, ``records`` (total records in the file), ``error``.
``campaign-interrupted``
    ``completed`` (errors finished before the stop), ``remaining``
    (errors never attempted), ``resumable`` (a checkpoint holds every
    completed error, so ``--resume`` can pick the run back up).  Emitted
    when a run is stopped cooperatively — SIGINT on the CLI, drain on
    the campaign service — before ``campaign-finished``.
``campaign-finished``
    ``n_errors``, ``n_detected``, ``n_aborted``, ``backtracks``,
    ``wall_seconds``.

The differential fuzzer and conformance-matrix runner (``repro.fuzz``)
emit their own kinds into the same stream:

``fuzz-started``
    ``machine``, ``iters``, ``seed``, ``jobs``, ``planted`` (error
    description or ``None``).
``fuzz-divergence``
    ``index`` (iteration), ``mismatch`` (first differing architectural
    item), ``planted``.
``fuzz-minimized``
    ``index``, ``original_length``, ``minimized_length``, ``path``
    (emitted reproducer file, or ``None`` when not persisted).
``fuzz-finished``
    ``machine``, ``iterations``, ``divergences``, ``wall_seconds``,
    ``budget_exhausted``.
``matrix-started``
    ``machine``, ``n_errors``, ``programs``.
``matrix-classified``
    ``machine``, ``error``, ``classification``, ``programs_run``.
``matrix-finished``
    ``machine``, ``detected``, ``undetected_by_budget``,
    ``proven_benign``, ``wall_seconds``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

#: Version of the serialized event wire format.  Bump on breaking payload
#: changes; additive fields do not require a bump.
EVENT_SCHEMA_VERSION = 2

EVENT_KINDS = frozenset({
    "campaign-started",
    "error-started",
    "error-finished",
    "error-profile",
    "profile-summary",
    "test-dropped-others",
    "checkpoint-written",
    "campaign-interrupted",
    "campaign-finished",
    "fuzz-started",
    "fuzz-divergence",
    "fuzz-minimized",
    "fuzz-finished",
    "matrix-started",
    "matrix-classified",
    "matrix-finished",
})


@dataclass(frozen=True)
class CampaignEvent:
    """One structured event: a kind, a wall-clock stamp, and a payload."""

    kind: str
    wall_time: float
    data: dict[str, Any] = field(default_factory=dict)
    #: Monotonic position in the emitting stream (0-based).  Events built
    #: by hand (or read from pre-versioned logs) default to 0.
    seq: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "wall_time": self.wall_time,
            "data": dict(self.data),
        }


def event_from_dict(data: dict[str, Any]) -> CampaignEvent:
    """Rebuild an event from its serialized form.

    Tolerates records written before ``schema_version``/``seq`` existed
    (old checkpoints and ``--json`` logs): both default rather than
    raise.  Unknown *kinds* are preserved verbatim so a newer server can
    stream event kinds an older client has never heard of.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("not a serialized campaign event")
    return CampaignEvent(
        kind=data["kind"],
        wall_time=data.get("wall_time", 0.0),
        data=dict(data.get("data", {})),
        seq=int(data.get("seq", 0)),
    )


class EventStream:
    """Fan-out of campaign events to registered subscribers."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[CampaignEvent], None]] = []
        self._next_seq = 0

    def subscribe(
        self, subscriber: Callable[[CampaignEvent], None]
    ) -> Callable[[CampaignEvent], None]:
        self._subscribers.append(subscriber)
        return subscriber

    def emit(self, kind: str, **data: Any) -> CampaignEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = CampaignEvent(
            kind=kind, wall_time=time.time(), data=data, seq=self._next_seq
        )
        self._next_seq += 1
        for subscriber in self._subscribers:
            subscriber(event)
        return event


class EventLog:
    """Subscriber that records events (for the ``--json`` report).

    ``max_events`` bounds the buffer: a long-lived consumer (the campaign
    service holds one log per job) keeps only the most recent N events, so
    server memory does not grow with campaign length.  The default
    (``None``) records everything — the CLI behaviour.  ``dropped``
    counts evicted events; each event's ``seq`` survives eviction, so
    readers can detect the gap.

    Thread-safe: the campaign service appends from its worker thread
    while ``/events`` streamers read from the asyncio thread, so every
    buffer access snapshots under a lock (a bare deque raises
    ``deque mutated during iteration`` under that interleaving).
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 (or None)")
        self.max_events = max_events
        self._events: deque[CampaignEvent] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self.seen = 0

    @property
    def events(self) -> list[CampaignEvent]:
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self.seen - len(self._events)

    def __call__(self, event: CampaignEvent) -> None:
        with self._lock:
            self._events.append(event)
            self.seen += 1

    def clear(self) -> None:
        """Release the buffer; ``seen`` (and so ``dropped``) survive."""
        with self._lock:
            self._events.clear()

    def to_dicts(self) -> list[dict[str, Any]]:
        return [event.to_dict() for event in self.events]

    def of_kind(self, kind: str) -> list[CampaignEvent]:
        return [event for event in self.events if event.kind == kind]

    def since(self, seq: int) -> list[CampaignEvent]:
        """Buffered events with ``seq`` strictly greater than ``seq``."""
        return [event for event in self.events if event.seq > seq]


class ProgressRenderer:
    """Subscriber that renders a live one-line-per-error progress feed."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0

    def _line(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def __call__(self, event: CampaignEvent) -> None:
        data = event.data
        if event.kind == "campaign-started":
            self._total = data["n_errors"]
            self._done = data.get("resumed", 0)
            bits = [f"{self._total} errors", f"{data['jobs']} worker(s)"]
            if data.get("error_simulation"):
                bits.append("error simulation on")
            if self._done:
                bits.append(f"{self._done} resumed from checkpoint")
            self._line(f"campaign[{data['target']}] started: "
                       + ", ".join(bits))
        elif event.kind == "error-finished":
            self._done += 1
            if data["detected"]:
                status = (f"detected (len {data['test_length']}, "
                          f"{data['final_backtracks']} backtracks)")
            else:
                status = f"aborted ({data['failure_stage']})"
            self._line(f"[{self._done:>4}/{self._total}] {data['error']}: "
                       f"{status} in {data['seconds']:.1f}s")
        elif event.kind == "test-dropped-others":
            dropped = data["dropped"]
            self._done += len(dropped)
            self._line(f"[{self._done:>4}/{self._total}] dropped "
                       f"{len(dropped)} error(s) with the test for "
                       f"{data['error']}")
        elif event.kind == "profile-summary":
            phases = ", ".join(
                f"{name} {seconds:.1f}s"
                for name, seconds in sorted(data["phase_seconds"].items())
            )
            self._line(f"profile: {phases or 'no phase samples'}; "
                       f"golden cache {data['golden_hits']} hit(s), "
                       f"{data['golden_misses']} fault-free sim(s)")
            if "nogood_hits" in data:
                self._line(
                    f"profile: search accel: "
                    f"{data['nogood_hits']} nogood hit(s) "
                    f"({data['nogood_misses']} miss(es)), "
                    f"{data['justify_cache_hits']} memoized "
                    f"justification(s), "
                    f"{data['path_cache_hits']} path-cache hit(s), "
                    f"{data['dptrace_sweeps_avoided']} co-state "
                    f"sweep(s) avoided")
            if "conflicts" in data:
                self._line(
                    f"profile: cdcl: "
                    f"{data['refuted_unjustifiable']} window(s) refuted, "
                    f"{data['conflicts']} conflict(s), "
                    f"{data['learned_clauses']} clause(s) learned, "
                    f"{data['backjumps']} backjump(s), "
                    f"{data['clause_hits']} certificate hit(s)")
        elif event.kind == "campaign-interrupted":
            resume = (" (resumable via --resume)"
                      if data.get("resumable") else "")
            self._line(f"campaign INTERRUPTED: {data['completed']} "
                       f"completed, {data['remaining']} never "
                       f"attempted{resume}")
        elif event.kind == "campaign-finished":
            self._line(f"campaign finished: {data['n_detected']} detected, "
                       f"{data['n_aborted']} aborted "
                       f"in {data['wall_seconds']:.1f}s wall clock")
        elif event.kind == "fuzz-started":
            planted = (f", planted {data['planted']}"
                       if data.get("planted") else "")
            self._line(f"fuzz[{data['machine']}] started: "
                       f"{data['iters']} iterations, seed {data['seed']}, "
                       f"{data['jobs']} worker(s){planted}")
        elif event.kind == "fuzz-divergence":
            self._line(f"fuzz: iteration {data['index']} DIVERGED "
                       f"({data['mismatch']})")
        elif event.kind == "fuzz-minimized":
            where = f" -> {data['path']}" if data.get("path") else ""
            self._line(f"fuzz: minimized iteration {data['index']} from "
                       f"{data['original_length']} to "
                       f"{data['minimized_length']} instruction(s){where}")
        elif event.kind == "fuzz-finished":
            budget = " (budget exhausted)" if data.get(
                "budget_exhausted") else ""
            self._line(f"fuzz[{data['machine']}] finished: "
                       f"{data['iterations']} iterations, "
                       f"{data['divergences']} divergence(s) "
                       f"in {data['wall_seconds']:.1f}s{budget}")
        elif event.kind == "matrix-started":
            self._line(f"matrix[{data['machine']}] started: "
                       f"{data['n_errors']} errors, "
                       f"{data['programs']} program(s) each")
        elif event.kind == "matrix-finished":
            self._line(f"matrix[{data['machine']}] finished: "
                       f"{data['detected']} detected, "
                       f"{data['undetected_by_budget']} undetected, "
                       f"{data['proven_benign']} proven benign "
                       f"in {data['wall_seconds']:.1f}s")
