"""Synchronous stdlib client for the campaign service.

Used by the test suite, the CI smoke probe and the CLI's ``--remote URL``
passthrough.  One ``http.client`` connection per call (the server closes
connections after each response); the event stream reads the chunked
NDJSON response line by line, yielding each event dict as it arrives.
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from typing import Any, Iterator
from urllib.parse import urlsplit


class ServiceError(Exception):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str,
                 body: dict | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.body = body or {}


class ServiceClient:
    """Talk to a :class:`repro.service.server.CampaignServer`."""

    def __init__(
        self,
        base_url: str,
        tenant: str | None = None,
        timeout: float = 300.0,
    ) -> None:
        split = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {base_url!r} "
                             "(the service speaks plain http)")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.tenant = tenant
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        return headers

    def _json(
        self, method: str, path: str, body: dict | None = None
    ) -> dict[str, Any]:
        connection = self._connect()
        try:
            payload = json.dumps(body).encode() if body is not None else None
            connection.request(method, path, body=payload,
                               headers=self._headers())
            response = connection.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw) if raw else {}
            except ValueError:
                data = {}
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    data.get("error", raw.decode(errors="replace")),
                    data,
                )
            return data
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._json("GET", "/metrics")

    def drain(self) -> dict[str, Any]:
        return self._json("POST", "/v1/drain")

    def submit_campaign(self, **request: Any) -> dict[str, Any]:
        return self._json("POST", "/v1/campaigns", request)

    def submit_fuzz(self, **request: Any) -> dict[str, Any]:
        return self._json("POST", "/v1/fuzz", request)

    def job(self, job_id: str) -> dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def events(
        self, job_id: str, since: int = -1
    ) -> Iterator[dict[str, Any]]:
        """Stream a job's events live; ends when the job finishes.

        Yields serialized event dicts (``schema_version``/``seq``
        included).  Pass the last seen ``seq`` as ``since`` to resume a
        dropped stream without replaying.
        """
        connection = self._connect()
        try:
            connection.request(
                "GET", f"/v1/jobs/{job_id}/events?since={since}",
                headers=self._headers(),
            )
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    data = json.loads(raw)
                except ValueError:
                    data = {}
                raise ServiceError(
                    response.status, data.get("error", "stream failed"),
                    data,
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    def wait(self, job_id: str, poll_seconds: float = 0.1) -> dict[str, Any]:
        """Block until ``job_id`` reaches a terminal status; return it."""
        from repro.service.jobs import TERMINAL_STATUSES

        while True:
            status = self.job(job_id)
            if status["status"] in TERMINAL_STATUSES:
                return status
            # The stream ends when the job does; draining it is the
            # cheap way to sleep exactly as long as needed.
            for _ in self.events(job_id, since=status["events_seen"]):
                pass
            time.sleep(poll_seconds)


# ---------------------------------------------------------------------------
# CLI ``--remote`` passthrough
# ---------------------------------------------------------------------------
def run_remote_campaign(args, target: str, title: str | None) -> int:
    """Run a ``table1``/``minipipe`` invocation against a remote service.

    Mirrors the local flow: live progress on stderr (rendered from the
    streamed events), the Table-1 summary on stdout, ``--json`` writing
    the server's run report verbatim.
    """
    from repro.campaign.events import ProgressRenderer, event_from_dict
    from repro.campaign.serialize import report_from_dict, save_json

    if args.checkpoint or args.resume:
        # Service checkpoints are server-side, keyed by job id — a local
        # --checkpoint path / --resume flag cannot be honoured remotely.
        print("error: --checkpoint/--resume do not combine with --remote "
              "(the service checkpoints server-side: submit with "
              '{"checkpoint": true}, resume with {"resume": "<job id>"} '
              "via the API)", file=sys.stderr)
        return 2
    client = ServiceClient(args.remote)
    request: dict[str, Any] = {
        "target": target,
        "sample": args.sample,
        "deadline": args.deadline,
        "jobs": args.jobs,
        "dropping": args.dropping,
        "profile": args.profile,
    }
    try:
        submitted = client.submit_campaign(**request)
    except (ServiceError, OSError) as exc:
        print(f"error: cannot submit to {args.remote}: {exc}",
              file=sys.stderr)
        return 2
    job_id = submitted["id"]
    print(f"submitted campaign {job_id} to {args.remote}")
    renderer = ProgressRenderer(sys.stderr)
    try:
        for event in client.events(job_id):
            renderer(event_from_dict(event))
        status = client.wait(job_id)
    except (ServiceError, OSError) as exc:
        print(f"error: lost remote job {job_id}: {exc}", file=sys.stderr)
        return 2
    if status["status"] == "failed" or status.get("result") is None:
        print(f"error: remote job {job_id} "
              f"{status['status']}: {status.get('error')}", file=sys.stderr)
        return 1
    run = status["result"]
    report = report_from_dict(run["report"])
    print(report.table1(title) if title else report.table1())
    if args.dropping:
        dropped = sum(1 for o in report.outcomes if o.dropped_by)
        print(f"(fault dropping skipped TG for {dropped} errors)")
    if args.json:
        try:
            save_json(run, args.json)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote JSON run report to {args.json}")
    return 130 if status["status"] == "interrupted" else 0
