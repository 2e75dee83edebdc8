"""Service smoke probe: HTTP-vs-CLI identity + health/metrics checks.

CI boots ``python -m repro serve`` and points this module at it::

    python -m repro.service.smoke --url http://127.0.0.1:8321 \\
        --target mini --sample 30 --events-out events.ndjson

The probe:

1. checks ``/healthz`` and ``/metrics``,
2. submits a campaign over HTTP, streaming its events to
   ``--events-out`` (the CI artifact),
3. runs the *same* campaign through the CLI (in-process) with
   ``--json``, and asserts the two run reports are byte-identical in
   canonical form (timing stripped — see
   ``repro.campaign.serialize.canonical_campaign_run``),
4. submits the identical request a second time and asserts the warm
   caches produced cross-request hits without changing outcomes.

Exit 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile


def _canonical_bytes(run: dict, include_cache_traffic: bool = True) -> bytes:
    from repro.campaign.serialize import canonical_campaign_run

    return json.dumps(
        canonical_campaign_run(
            run, include_cache_traffic=include_cache_traffic
        ),
        sort_keys=True,
    ).encode()


def main(argv: list[str] | None = None) -> int:
    from repro.__main__ import main as repro_main
    from repro.campaign.orchestrator import CAMPAIGN_TARGETS
    from repro.machines import machine_adapter
    from repro.service.client import ServiceClient, ServiceError

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", required=True)
    parser.add_argument("--target", default="mini",
                        choices=CAMPAIGN_TARGETS)
    parser.add_argument("--sample", type=int, default=30)
    parser.add_argument("--deadline", type=float, default=10.0)
    parser.add_argument("--events-out", default=None,
                        help="write the streamed events (NDJSON) here")
    args = parser.parse_args(argv)

    client = ServiceClient(args.url, tenant="smoke")
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'ok' if ok else 'FAIL'}] {name}"
        if detail and not ok:
            line += f": {detail}"
        print(line, flush=True)
        if not ok:
            failures.append(name)

    health = client.healthz()
    check("healthz", health.get("status") == "ok", json.dumps(health))
    metrics = client.metrics()
    check("metrics", metrics.get("kind") == "service-metrics")

    request = dict(target=args.target, sample=args.sample,
                   deadline=args.deadline)

    def run_remote(events_path: str | None):
        job_id = client.submit_campaign(**request)["id"]
        n_events = 0
        sink = open(events_path, "w") if events_path else None
        try:
            for event in client.events(job_id):
                n_events += 1
                if sink:
                    sink.write(json.dumps(event, sort_keys=True) + "\n")
        finally:
            if sink:
                sink.close()
        status = client.wait(job_id)
        return status, n_events

    try:
        status1, n_events = run_remote(args.events_out)
    except ServiceError as exc:
        check("campaign over HTTP", False, str(exc))
        return 1
    check("campaign over HTTP",
          status1["status"] == "done" and status1["result"] is not None,
          json.dumps({k: status1[k] for k in ("status", "error")}))
    check("event stream nonempty", n_events > 0, f"{n_events} events")

    # CLI reference run (same knobs) in this process.
    with tempfile.TemporaryDirectory() as tmp:
        cli_json = os.path.join(tmp, "cli.json")
        code = repro_main([
            machine_adapter(args.target).command, "--sample", str(args.sample),
            "--deadline", str(args.deadline), "--json", cli_json,
        ])
        check("CLI reference run", code == 0, f"exit {code}")
        with open(cli_json, encoding="utf-8") as handle:
            cli_run = json.load(handle)

    if status1["result"] is not None:
        check(
            "HTTP report byte-identical to CLI (canonical)",
            _canonical_bytes(status1["result"])
            == _canonical_bytes(cli_run),
        )

    # Warm second request: cross-request cache hits, same outcomes.
    status2, _ = run_remote(None)
    cache2 = status2.get("cache") or {}
    warm = cache2.get("warm_start", {})
    delta = cache2.get("delta", {})
    check("request 2 started warm",
          any(warm.values()), json.dumps(warm))
    warm_hits = sum(d.get("hits", 0) for d in delta.values())
    check("request 2 cache hits > 0", warm_hits > 0, json.dumps(delta))
    if status1["result"] is not None and status2.get("result") is not None:
        check(
            "warm outcomes identical (canonical, cache traffic aside)",
            _canonical_bytes(status1["result"], include_cache_traffic=False)
            == _canonical_bytes(status2["result"],
                                include_cache_traffic=False),
        )
    metrics = client.metrics()
    caches = metrics.get("caches", {}).get(args.target, {})
    check("metrics report warm request",
          caches.get("warm_requests", 0) >= 1, json.dumps(caches))

    if failures:
        print(f"SMOKE FAILED: {', '.join(failures)}", flush=True)
        return 1
    print("SMOKE OK", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
