"""TG-as-a-service: the persistent asyncio campaign server.

One long-lived process serves test-generation campaigns, differential
fuzzing and conformance matrices over HTTP/1.1 + JSON, keeping every
search accelerator warm across requests (:mod:`repro.service.cache`).

Endpoints::

    POST /v1/campaigns            submit a campaign (202 + job id)
    GET  /v1/campaigns/{id}       job status; full JSON report when done
    GET  /v1/campaigns/{id}/events   live NDJSON event stream (chunked);
                                     ?since=SEQ resumes after that seq
    POST /v1/fuzz                 submit a fuzz run (or matrix=true)
    GET  /v1/fuzz/{id}[/events]   same surface for fuzz jobs
    GET  /v1/jobs/{id}[/events]   kind-agnostic aliases
    GET  /healthz                 liveness + draining flag
    GET  /metrics                 JSON counters (requests, queue, workers,
                                  per-phase CPU, warm-cache hit rates)
    POST /v1/drain                begin graceful drain (also on SIGTERM)

Execution model: the asyncio loop owns all bookkeeping; each admitted job
runs its (blocking) orchestrator on a bounded thread-pool slot, and the
orchestrator may itself shard across processes (``jobs`` in the request,
exactly like ``--jobs``).  Draining interrupts running campaigns
cooperatively — they flush their checkpoint tail, emit
``campaign-interrupted``, and report ``resumable`` so a client can
resubmit with ``{"resume": "<job id>"}`` after a restart.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import asyncio

from repro.campaign.events import EVENT_SCHEMA_VERSION
from repro.campaign.orchestrator import CampaignOrchestrator
from repro.service.cache import WarmCacheRegistry
from repro.service.http11 import (
    ChunkedWriter,
    HttpError,
    Request,
    read_request,
    send_json,
)
from repro.service.jobs import (
    Job,
    campaign_config_from_request,
    fuzz_config_from_request,
    new_job_id,
    run_campaign_job,
    run_fuzz_job,
    select_campaign_errors,
)
from repro.service.queueing import RateLimited, TenantGovernor


def _batched_counters() -> dict:
    """Process-wide batched-kernel profile counters for ``/metrics``.

    Lane-batched fuzz/matrix jobs run on this process's worker threads
    (multiprocessing shards fold their deltas back in), so the module
    counters are the service totals.
    """
    from repro.datapath.batched import counters_snapshot

    return counters_snapshot()


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs (all CLI-settable)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (tests); CLI default is 8321
    state_dir: str = "repro-service-state"
    max_workers: int = 2
    per_tenant_concurrency: int = 2
    rate_per_second: float = 5.0
    burst: float = 20.0
    #: Ring-buffer bound per job's event log (None = unbounded).
    max_events_per_job: int | None = 20000
    #: Finished jobs that keep their full result + event buffer.  Older
    #: terminal jobs are compacted to status metadata; metadata older
    #: than 4x this cap is forgotten entirely (GET returns 404).
    max_finished_jobs: int = 64
    drain_grace_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.per_tenant_concurrency < 1:
            raise ValueError("per_tenant_concurrency must be >= 1")
        if self.max_finished_jobs < 1:
            raise ValueError("max_finished_jobs must be >= 1")


class CampaignServer:
    """The service: routing, queueing, job execution, metrics."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = WarmCacheRegistry()
        self.governor = TenantGovernor(
            per_tenant_concurrency=self.config.per_tenant_concurrency,
            rate_per_second=self.config.rate_per_second,
            burst=self.config.burst,
        )
        self.jobs: dict[str, Job] = {}
        #: Terminal jobs, oldest first — the retention window (_retire).
        self._finished_order: deque[str] = deque()
        self.jobs_compacted = 0
        self.jobs_forgotten = 0
        #: [seen, dropped] totals of forgotten jobs, so the /metrics
        #: event counters stay monotonic across forgetting.
        self._events_forgotten = [0, 0]
        self._queue: deque[Job] = deque()
        self._running: set[str] = set()
        self._tasks: dict[str, asyncio.Task] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-job",
        )
        self._server: asyncio.base_events.Server | None = None
        self.draining = False
        self.started_wall = time.time()
        self._requests_by_endpoint: dict[str, int] = {}
        self.rejected_draining = 0
        self._phase_cpu: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        os.makedirs(self._checkpoint_dir(), exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> dict[str, Any]:
        """Stop admitting, cancel the queue, interrupt running campaigns,
        and wait (bounded) for them to flush checkpoints and finish."""
        self.draining = True
        cancelled = []
        while self._queue:
            job = self._queue.popleft()
            job.status = "cancelled"
            job.finished_wall = time.time()
            job.bump()
            self._retire(job)
            cancelled.append(job.id)
        for job_id in list(self._running):
            self.jobs[job_id].interrupt()
        pending = [t for t in self._tasks.values() if not t.done()]
        if pending:
            await asyncio.wait(
                pending, timeout=self.config.drain_grace_seconds
            )
        return {
            "cancelled": cancelled,
            "interrupted": [
                job.id for job in self.jobs.values()
                if job.status == "interrupted"
            ],
            "still_running": sorted(self._running),
        }

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _checkpoint_dir(self) -> str:
        return os.path.join(self.config.state_dir, "checkpoints")

    def _checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self._checkpoint_dir(), f"{job_id}.jsonl")

    # ------------------------------------------------------------------
    # Connection handling / routing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except HttpError as exc:  # malformed request: answer, close
                await send_json(writer, exc.status, exc.body())
                return
            if request is None:
                return
            try:
                await self._route(request, writer)
            except HttpError as exc:
                await send_json(writer, exc.status, exc.body())
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # route bug: report, don't die
                await send_json(
                    writer, 500,
                    {"error": f"internal error: {exc!r}", "status": 500},
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: Request, writer) -> None:
        method, path = request.method, request.path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        self._requests_by_endpoint[f"{method} /{'/'.join(parts[:2])}"] = (
            self._requests_by_endpoint.get(
                f"{method} /{'/'.join(parts[:2])}", 0
            ) + 1
        )
        if parts == ["healthz"] and method == "GET":
            await send_json(writer, 200, self._healthz())
            return
        if parts == ["metrics"] and method == "GET":
            await send_json(writer, 200, self.metrics())
            return
        if parts == ["v1", "drain"] and method == "POST":
            await send_json(writer, 200, await self.drain())
            return
        if parts == ["v1", "campaigns"] and method == "POST":
            await self._submit(request, writer, kind="campaign")
            return
        if parts == ["v1", "fuzz"] and method == "POST":
            await self._submit(request, writer, kind="fuzz")
            return
        if (
            len(parts) in (3, 4)
            and parts[0] == "v1"
            and parts[1] in ("campaigns", "fuzz", "jobs")
            and method == "GET"
        ):
            job = self.jobs.get(parts[2])
            wanted = {"campaigns": "campaign", "fuzz": "fuzz"}.get(parts[1])
            if job is None or (wanted and job.kind != wanted):
                raise HttpError(404, f"no such job {parts[2]!r}")
            if len(parts) == 3:
                await send_json(writer, 200, job.to_status_dict())
                return
            if parts[3] == "events":
                await self._stream_events(job, request, writer)
                return
        raise HttpError(404, f"no route for {method} {request.path}")

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": time.time() - self.started_wall,
            "jobs_running": len(self._running),
            "queue_depth": len(self._queue),
        }

    # ------------------------------------------------------------------
    # Submission + scheduling
    # ------------------------------------------------------------------
    async def _submit(self, request: Request, writer, kind: str) -> None:
        if self.draining:
            self.rejected_draining += 1
            raise HttpError(503, "server is draining; resubmit elsewhere")
        body = request.json()
        tenant = str(
            body.get("tenant")
            or request.headers.get("x-tenant")
            or "default"
        )
        try:
            self.governor.admit(tenant)
        except RateLimited as exc:
            raise HttpError(
                429, str(exc), retry_after=round(exc.retry_after, 3)
            ) from None
        job = Job(
            id=new_job_id(kind),
            kind=kind,
            tenant=tenant,
            request=body,
            max_events=self.config.max_events_per_job,
        )
        # Validate now so a bad request fails at submit time, not in the
        # worker; campaign checkpoint/resume paths are server-assigned.
        if kind == "campaign":
            resume_of = body.get("resume")
            if resume_of is not None:
                job.checkpoint_path = self._checkpoint_path(str(resume_of))
                if not os.path.exists(job.checkpoint_path):
                    raise HttpError(
                        404, f"no checkpoint for job {resume_of!r}"
                    )
            elif body.get("checkpoint"):
                job.checkpoint_path = self._checkpoint_path(job.id)
            campaign_config_from_request(
                body, job.checkpoint_path, resume=resume_of is not None
            )
        else:
            fuzz_config_from_request(body)
        job.attach_notifier(asyncio.get_running_loop())
        self.jobs[job.id] = job
        self._queue.append(job)
        self._maybe_start()
        base = {"campaign": "campaigns", "fuzz": "fuzz"}[kind]
        await send_json(
            writer, 202,
            {
                "id": job.id,
                "status": job.status,
                "tenant": tenant,
                "links": {
                    "self": f"/v1/{base}/{job.id}",
                    "events": f"/v1/{base}/{job.id}/events",
                },
            },
        )

    def _maybe_start(self) -> None:
        """FIFO scheduling, skipping tenants at their concurrency cap."""
        while len(self._running) < self.config.max_workers:
            eligible = next(
                (
                    job for job in self._queue
                    if self.governor.can_start(job.tenant)
                ),
                None,
            )
            if eligible is None:
                return
            self._queue.remove(eligible)
            self.governor.started(eligible.tenant)
            self._running.add(eligible.id)
            eligible.status = "starting"
            task = asyncio.get_running_loop().create_task(
                self._run_job(eligible)
            )
            self._tasks[eligible.id] = task

    async def _run_job(self, job: Job) -> None:
        job.started_wall = time.time()
        try:
            if job.kind == "campaign":
                await self._run_campaign(job)
            else:
                await self._run_fuzz(job)
        except HttpError as exc:
            job.status = "failed"
            job.error = exc.message
        except Exception as exc:
            job.status = "failed"
            job.error = repr(exc)
        finally:
            job.finished_wall = time.time()
            job.orchestrator = None
            self._running.discard(job.id)
            self._tasks.pop(job.id, None)
            self.governor.finished(job.tenant)
            job.bump()
            self._retire(job)
            self._maybe_start()

    def _retire(self, job: Job) -> None:
        """Bound the memory terminal jobs hold on a long-lived server.

        The newest ``max_finished_jobs`` terminal jobs keep their full
        result dict and event buffer; jobs pushed past that window are
        compacted to status metadata (result and events released,
        ``evicted`` flagged); metadata pushed past 4x the window is
        dropped from ``jobs`` entirely.
        """
        self._finished_order.append(job.id)
        full_cap = self.config.max_finished_jobs
        while len(self._finished_order) > 4 * full_cap:
            old = self.jobs.pop(self._finished_order.popleft(), None)
            if old is not None:
                self.jobs_forgotten += 1
                self._events_forgotten[0] += old.log.seen
                self._events_forgotten[1] += old.events_dropped
        for job_id in list(self._finished_order)[:-full_cap]:
            old = self.jobs.get(job_id)
            if old is not None and not old.evicted:
                old.compact()
                self.jobs_compacted += 1

    async def _run_campaign(self, job: Job) -> None:
        body = job.request
        resume = body.get("resume") is not None
        config = campaign_config_from_request(
            body, job.checkpoint_path, resume=resume
        )
        loop = asyncio.get_running_loop()
        async with self.registry.lease(
            config.target, config.deadline_seconds
        ) as lease:
            # A resumed run reads its checkpoint here: off the loop.
            orchestrator = await loop.run_in_executor(
                None,
                functools.partial(
                    CampaignOrchestrator, config, events=job.stream,
                    campaign=lease.campaign,
                ),
            )
            job.orchestrator = orchestrator
            if self.draining:  # drained between admit and start
                orchestrator.interrupt()
            # Error enumeration walks the whole netlist — off the loop,
            # so /healthz and streams stay responsive while it runs.
            errors = await loop.run_in_executor(
                None,
                functools.partial(
                    select_campaign_errors, lease.campaign, body
                ),
            )
            job.status = "running"
            job.bump()
            run = await loop.run_in_executor(
                self._executor,
                functools.partial(run_campaign_job, job, orchestrator,
                                  errors),
            )
            job.cache = lease.report()
        job.result = run
        for outcome in run["report"]["outcomes"]:
            for phase, seconds in outcome.get("phase_seconds", {}).items():
                self._phase_cpu[phase] = (
                    self._phase_cpu.get(phase, 0.0) + seconds
                )
        if run["report"].get("interrupted"):
            job.status = "interrupted"
            job.resumable = job.checkpoint_path is not None
        else:
            job.status = "done"

    async def _run_fuzz(self, job: Job) -> None:
        config = fuzz_config_from_request(job.request)
        job.status = "running"
        job.bump()
        loop = asyncio.get_running_loop()
        job.result = await loop.run_in_executor(
            self._executor, functools.partial(run_fuzz_job, job, config)
        )
        job.status = "done"

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    async def _stream_events(
        self, job: Job, request: Request, writer
    ) -> None:
        try:
            since = int(request.query.get("since", -1))
        except ValueError:
            raise HttpError(400, "bad since= (want an integer seq)")
        chunked = ChunkedWriter(writer)
        await chunked.start()
        try:
            while True:
                for event in job.log.since(since):
                    await chunked.write_json_line(event.to_dict())
                    since = event.seq
                if job.finished:
                    break
                await job.wait_for_change()
        finally:
            await chunked.close()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        jobs_by_status: dict[str, int] = {}
        for job in self.jobs.values():
            jobs_by_status[job.status] = jobs_by_status.get(job.status, 0) + 1
        queue_by_tenant: dict[str, int] = {}
        for job in self._queue:
            queue_by_tenant[job.tenant] = queue_by_tenant.get(job.tenant, 0) + 1
        busy = len(self._running)
        return {
            "kind": "service-metrics",
            "event_schema_version": EVENT_SCHEMA_VERSION,
            "uptime_seconds": time.time() - self.started_wall,
            "draining": self.draining,
            "requests": {
                "total": sum(self._requests_by_endpoint.values()),
                "by_endpoint": dict(sorted(
                    self._requests_by_endpoint.items()
                )),
                "rate_limited": self.governor.rejected,
                "rejected_draining": self.rejected_draining,
            },
            "jobs": {
                "total": len(self.jobs) + self.jobs_forgotten,
                "retained": len(self.jobs),
                "compacted": self.jobs_compacted,
                "forgotten": self.jobs_forgotten,
                "by_status": jobs_by_status,
            },
            "queue": {
                "depth": len(self._queue),
                "by_tenant": queue_by_tenant,
                "running_by_tenant": self.governor.running_by_tenant(),
            },
            "workers": {
                "capacity": self.config.max_workers,
                "busy": busy,
                "utilization": busy / self.config.max_workers,
            },
            "phase_cpu_seconds": dict(sorted(self._phase_cpu.items())),
            "caches": self.registry.stats(),
            "batched": _batched_counters(),
            "events": {
                "emitted": self._events_forgotten[0]
                + sum(j.log.seen for j in self.jobs.values()),
                "dropped": self._events_forgotten[1]
                + sum(j.events_dropped for j in self.jobs.values()),
            },
        }


# ---------------------------------------------------------------------------
# ``repro serve``
# ---------------------------------------------------------------------------
def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="listen port (default 8321; 0 = pick free)")
    parser.add_argument("--state-dir", default="repro-service-state",
                        help="checkpoint/state directory")
    parser.add_argument("--max-workers", type=int, default=2,
                        help="concurrent jobs server-wide (default 2)")
    parser.add_argument("--tenant-concurrency", type=int, default=2,
                        help="concurrent jobs per tenant (default 2)")
    parser.add_argument("--rate", type=float, default=5.0,
                        help="submissions/second/tenant (default 5)")
    parser.add_argument("--burst", type=float, default=20.0,
                        help="submission burst per tenant (default 20)")
    parser.add_argument("--max-events", type=int, default=20000,
                        help="event ring-buffer size per job (default "
                             "20000; 0 = unbounded)")
    parser.add_argument("--max-finished-jobs", type=int, default=64,
                        help="finished jobs kept with full results "
                             "(default 64); older ones shrink to status "
                             "metadata, then age out")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds to wait for interrupted jobs on "
                             "drain (default 30)")


def config_from_args(args) -> ServiceConfig:
    return ServiceConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        max_workers=args.max_workers,
        per_tenant_concurrency=args.tenant_concurrency,
        rate_per_second=args.rate,
        burst=args.burst,
        max_events_per_job=args.max_events or None,
        max_finished_jobs=args.max_finished_jobs,
        drain_grace_seconds=args.drain_grace,
    )


async def _serve(config: ServiceConfig) -> int:
    server = CampaignServer(config)
    await server.start()
    print(f"repro campaign service listening on {server.url} "
          f"(state: {config.state_dir})", file=sys.stderr, flush=True)
    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, shutdown.set)
        except NotImplementedError:  # non-Unix event loop
            pass
    serve_task = loop.create_task(server.serve_forever())
    await shutdown.wait()
    print("repro service: draining ...", file=sys.stderr, flush=True)
    summary = await server.drain()
    serve_task.cancel()
    await server.stop()
    print(f"repro service: drained "
          f"({json.dumps(summary, sort_keys=True)})",
          file=sys.stderr, flush=True)
    return 0


def serve_main(args) -> int:
    """Entry point behind ``python -m repro serve``."""
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return asyncio.run(_serve(config))
