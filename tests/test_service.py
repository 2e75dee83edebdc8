"""Tests for the persistent campaign service (``repro.service``).

The end-to-end tests boot the real asyncio server on a loopback port in a
background thread and talk to it with the real stdlib client — the same
code path CI's service-smoke job and the CLI ``--remote`` flag use.
"""

from __future__ import annotations

import contextlib
import json
import threading

import asyncio

import pytest

from repro.campaign.events import EVENT_SCHEMA_VERSION
from repro.campaign.serialize import canonical_campaign_run, load_json
from repro.service import (
    CampaignServer,
    RateLimited,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TenantGovernor,
    TokenBucket,
)

# One quick mini campaign shape shared by the identity tests: every 40th
# error keeps the HTTP round trip seconds-long while exercising the full
# TG -> realize -> ISA-check pipeline.
REQUEST = {"target": "mini", "sample": 40, "deadline": 10.0}


@contextlib.contextmanager
def running_server(state_dir, **config_kwargs):
    """The real server on a loopback port, in a background event loop."""
    config = ServiceConfig(state_dir=str(state_dir), **config_kwargs)
    box: dict = {}
    ready = threading.Event()

    def serve() -> None:
        async def main() -> None:
            server = CampaignServer(config)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            ready.set()
            task = asyncio.get_running_loop().create_task(
                server.serve_forever()
            )
            await box["stop"].wait()
            task.cancel()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield box["server"]
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=10)


def _run_once(client: ServiceClient, request=REQUEST):
    """Submit, stream every event, and return (status, events)."""
    job_id = client.submit_campaign(**request)["id"]
    events = list(client.events(job_id))
    status = client.wait(job_id)
    return status, events


def _canonical(run: dict, include_cache_traffic: bool = True) -> str:
    return json.dumps(
        canonical_campaign_run(
            run, include_cache_traffic=include_cache_traffic
        ),
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# End to end: HTTP vs CLI identity, warm caches, streaming
# ---------------------------------------------------------------------------
def test_http_campaign_matches_cli_and_warms_caches(tmp_path, capsys):
    """The ISSUE's acceptance criterion, as one server lifetime:

    request 1 (cold) must be byte-identical to the CLI run in canonical
    form, and request 2 (warm) must report cross-request cache hits
    while changing nothing but the hit/miss split.
    """
    from repro.__main__ import main

    cli_json = tmp_path / "cli.json"
    assert main(["minipipe", "--sample", str(REQUEST["sample"]),
                 "--deadline", str(REQUEST["deadline"]),
                 "--json", str(cli_json)]) == 0
    capsys.readouterr()
    cli_run = load_json(str(cli_json))

    with running_server(tmp_path / "state") as server:
        client = ServiceClient(server.url)
        status1, events1 = _run_once(client)
        assert status1["status"] == "done"

        # The live stream is the report's event list, versioned and
        # monotonically sequenced.
        assert [e["kind"] for e in events1] == [
            e["kind"] for e in status1["result"]["events"]
        ]
        assert all(
            e["schema_version"] == EVENT_SCHEMA_VERSION for e in events1
        )
        seqs = [e["seq"] for e in events1]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

        # Byte-identity with the CLI run (timing stripped).
        assert _canonical(status1["result"]) == _canonical(cli_run)

        # Second identical request: warm start, nonzero cross-request
        # hits, identical outcomes.
        status2, _ = _run_once(client)
        cache = status2["cache"]
        assert cache["warm_start"]["golden_traces"] > 0
        assert cache["warm_start"]["path_entries"] > 0
        assert cache["delta"]["golden"]["hits"] > 0
        assert cache["delta"]["golden"]["misses"] == 0
        assert cache["delta"]["path"]["hits"] > 0
        assert _canonical(status1["result"], include_cache_traffic=False) \
            == _canonical(status2["result"], include_cache_traffic=False)

        metrics = client.metrics()
        mini = metrics["caches"]["mini"]
        assert mini["requests"] == 2
        assert mini["warm_requests"] == 1
        assert mini["counters"]["golden"]["hits"] > 0
        assert metrics["workers"]["capacity"] == 2
        assert metrics["phase_cpu_seconds"]  # per-phase CPU accumulated


def test_healthz_metrics_and_errors(tmp_path):
    with running_server(tmp_path / "state") as server:
        client = ServiceClient(server.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs_running"] == 0

        metrics = client.metrics()
        assert metrics["kind"] == "service-metrics"
        assert metrics["requests"]["total"] >= 1
        assert metrics["queue"]["depth"] == 0

        with pytest.raises(ServiceError) as excinfo:
            client.job("campaign-doesnotexist")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(target="z80")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(target="mini", jobs=0)
        assert excinfo.value.status == 400
        for deadline in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ServiceError) as excinfo:
                client.submit_campaign(target="mini", deadline=deadline)
            assert excinfo.value.status == 400
            assert "deadline" in excinfo.value.body["error"]
        # Fields nothing reads are refused rather than silently ignored:
        # a retired knob and a misspelt one.
        for field in ({"restarts": True}, {"droping": True}):
            with pytest.raises(ServiceError) as excinfo:
                client.submit_campaign(target="mini", **field)
            assert excinfo.value.status == 400
            assert next(iter(field)) in excinfo.value.body["error"]
        # Fuzz requests are checked at submit time as well: an unknown
        # matrix machine (by name or by type) and a misspelt field.
        for request, named in (({"matrix": True, "machine": "foo"}, "foo"),
                               ({"matrix": True, "machine": 5}, "5"),
                               ({"iter": 5}, "iter")):
            with pytest.raises(ServiceError) as excinfo:
                client.submit_fuzz(**request)
            assert excinfo.value.status == 400
            assert named in excinfo.value.body["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(target="mini",
                                   resume="campaign-doesnotexist")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nowhere")
        assert excinfo.value.status == 404


def test_malformed_requests_get_clean_error_responses(tmp_path):
    """Garbage on the wire answers 400/413, not a dropped connection."""
    import socket

    def raw_exchange(server, payload: bytes) -> str:
        with socket.create_connection(
            (server.config.host, server.port), timeout=10
        ) as sock:
            sock.sendall(payload)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("latin-1")

    with running_server(tmp_path / "state") as server:
        assert "400 Bad Request" in raw_exchange(server, b"GARBAGE\r\n\r\n")
        assert "400 Bad Request" in raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n"
        )
        assert "413 Payload Too Large" in raw_exchange(
            server,
            b"POST /v1/campaigns HTTP/1.1\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
        )
        # The server survives all of the above.
        assert ServiceClient(server.url).healthz()["status"] == "ok"


def test_finished_jobs_are_compacted_then_forgotten(tmp_path):
    """A long-lived server bounds the memory terminal jobs hold: beyond
    max_finished_jobs full results are released (status metadata stays),
    beyond 4x the cap the job is forgotten entirely."""
    with running_server(tmp_path / "state", max_finished_jobs=1,
                        burst=50.0) as server:
        client = ServiceClient(server.url)
        job_ids = []
        for seed in range(6):
            job_id = client.submit_fuzz(machine="mini", iters=2,
                                        seed=seed + 1)["id"]
            status = client.wait(job_id)
            assert status["status"] == "done"
            job_ids.append(job_id)

        # 6 terminal jobs, cap 1, metadata cap 4: the 2 oldest are gone.
        for job_id in job_ids[:2]:
            with pytest.raises(ServiceError) as excinfo:
                client.job(job_id)
            assert excinfo.value.status == 404
        # The middle ones keep status metadata but no result/events.
        for job_id in job_ids[2:5]:
            status = client.job(job_id)
            assert status["evicted"]
            assert status["result"] is None
            assert status["status"] == "done"
            assert status["events_seen"] > 0
            assert status["events_dropped"] == 0  # no ring evictions
        # The newest keeps its full result.
        newest = client.job(job_ids[-1])
        assert not newest["evicted"]
        assert newest["result"]["report"]["iterations"] == 2

        metrics = client.metrics()
        assert metrics["jobs"]["total"] == 6
        assert metrics["jobs"]["retained"] == 4
        assert metrics["jobs"]["forgotten"] == 2
        assert metrics["jobs"]["compacted"] >= 3
        assert metrics["events"]["emitted"] > 0  # forgotten jobs counted


def test_remote_flag_rejects_local_checkpoint_flags(tmp_path, capsys):
    """--checkpoint/--resume are local-run flags; combining them with
    --remote is an error, not a silently non-resumable run."""
    from repro.__main__ import main

    assert main(["minipipe", "--remote", "http://127.0.0.1:1",
                 "--checkpoint", str(tmp_path / "ckpt.jsonl")]) == 2
    assert "--checkpoint/--resume" in capsys.readouterr().err


def test_single_error_tg_request(tmp_path):
    """A campaign body with explicit error specs is the TG-request shape."""
    with running_server(tmp_path / "state") as server:
        client = ServiceClient(server.url)
        job_id = client.submit_campaign(
            target="mini", deadline=10.0,
            errors=["bus-ssl:alu_add.y:0:1"],
        )["id"]
        status = client.wait(job_id)
        assert status["status"] == "done"
        outcomes = status["result"]["report"]["outcomes"]
        assert len(outcomes) == 1
        assert outcomes[0]["error"] == "bus-ssl alu_add.y[0] stuck-at-1"
        assert outcomes[0]["detected"]

        # Spec parsing needs the netlist, so bad specs fail the job
        # (cleanly) rather than the submit.
        bad = client.wait(
            client.submit_campaign(target="mini", errors=["nope:x"])["id"]
        )
        assert bad["status"] == "failed"
        assert "unknown error class" in bad["error"]


def test_fuzz_endpoint(tmp_path):
    with running_server(tmp_path / "state") as server:
        client = ServiceClient(server.url)
        job_id = client.submit_fuzz(machine="mini", iters=20, seed=1)["id"]
        events = list(client.events(job_id))
        status = client.wait(job_id)
        assert status["status"] == "done"
        report = status["result"]["report"]
        assert report["iterations"] == 20
        assert report["divergences"] == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "fuzz-started"
        assert kinds[-1] == "fuzz-finished"


def test_drain_interrupts_checkpoints_and_resumes(tmp_path):
    """SIGTERM's drain path: a running checkpointed campaign stops
    cooperatively, reports resumable, and a later server on the same
    state dir finishes it via ``resume``."""
    state = tmp_path / "state"
    request = {"target": "mini", "sample": 6, "deadline": 10.0,
               "checkpoint": True}
    with running_server(state) as server:
        client = ServiceClient(server.url)
        job_id = client.submit_campaign(**request)["id"]
        # Wait for the campaign to make some progress, then drain.
        finished = 0
        for event in client.events(job_id):
            if event["kind"] == "error-finished":
                finished += 1
                if finished >= 2:
                    drain = client.drain()
                    break
        status = client.wait(job_id)
        assert status["status"] == "interrupted"
        assert status["resumable"]
        assert job_id in drain["interrupted"]
        kinds = [e["kind"] for e in status["result"]["events"]]
        assert "campaign-interrupted" in kinds
        n_before = len(status["result"]["report"]["outcomes"])
        assert n_before >= 2

        # Draining servers refuse new work.
        assert client.healthz()["status"] == "draining"
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(**request)
        assert excinfo.value.status == 503

    # "Restart": a fresh server over the same state dir resumes the
    # checkpointed job and completes the tail.
    from repro.campaign.runner import MiniCampaign
    from repro.service.jobs import select_campaign_errors

    expected = len(select_campaign_errors(
        MiniCampaign(), "mini", {"sample": request["sample"]}
    ))
    with running_server(state) as server:
        client = ServiceClient(server.url)
        job_id2 = client.submit_campaign(
            **{**request, "resume": job_id}
        )["id"]
        status2 = client.wait(job_id2)
        assert status2["status"] == "done"
        report = status2["result"]["report"]
        assert len(report["outcomes"]) == expected
        started = [e for e in status2["result"]["events"]
                   if e["kind"] == "campaign-started"]
        assert started[0]["data"]["resumed"] == n_before


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
def test_rate_limit_rejects_with_retry_after(tmp_path):
    with running_server(tmp_path / "state", rate_per_second=0.001,
                        burst=2.0) as server:
        client = ServiceClient(server.url, tenant="greedy")
        client.submit_campaign(**REQUEST)
        client.submit_campaign(**REQUEST)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(**REQUEST)
        assert excinfo.value.status == 429
        assert excinfo.value.body.get("retry_after", 0) > 0
        # Another tenant owns its own bucket.
        other = ServiceClient(server.url, tenant="patient")
        other.submit_campaign(**REQUEST)
        metrics = client.metrics()
        assert metrics["requests"]["rate_limited"] == 1


def test_token_bucket_refills():
    bucket = TokenBucket(capacity=2.0, rate=1.0, tokens=2.0, updated=0.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    assert bucket.seconds_until_token() == pytest.approx(1.0)
    assert bucket.try_take(1.5)  # refilled
    assert not bucket.try_take(1.6)


def test_tenant_governor_caps_and_rates():
    clock = {"now": 0.0}
    governor = TenantGovernor(
        per_tenant_concurrency=1, rate_per_second=1.0, burst=2.0,
        clock=lambda: clock["now"],
    )
    governor.admit("a")
    governor.admit("a")
    with pytest.raises(RateLimited) as excinfo:
        governor.admit("a")
    assert excinfo.value.retry_after > 0
    governor.admit("b")  # independent bucket
    clock["now"] = 5.0
    governor.admit("a")  # refilled

    assert governor.can_start("a")
    governor.started("a")
    assert not governor.can_start("a")
    assert governor.can_start("b")
    governor.finished("a")
    assert governor.can_start("a")
    assert governor.running_by_tenant() == {}


def test_service_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(max_workers=0)
    with pytest.raises(ValueError):
        ServiceConfig(per_tenant_concurrency=0)
