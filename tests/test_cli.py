"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_stats_command(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "pipeline_stages" in out
    assert "pipeframe_justify_bits" in out


def test_generate_command_detects(capsys):
    assert main(["generate", "mem_sdata.y", "2", "0"]) == 0
    out = capsys.readouterr().out
    assert "detected" in out
    assert "ISA-level detection: yes" in out


def test_generate_command_aborts_on_unobservable(capsys):
    # The branch-condition status bit is unobservable in the model.
    assert main(["generate", "zero", "0", "0", "--deadline", "5"]) == 1
    out = capsys.readouterr().out
    assert "aborted" in out


def test_minipipe_command_with_orchestration_flags(tmp_path, capsys):
    """minipipe with sharding, checkpointing and the JSON report."""
    from repro.campaign.checkpoint import CampaignCheckpoint
    from repro.campaign.serialize import load_json

    checkpoint = tmp_path / "cp.jsonl"
    out = tmp_path / "run.json"
    assert main(["minipipe", "--sample", "30", "--jobs", "2",
                 "--checkpoint", str(checkpoint), "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "MiniPipe bus SSL campaign" in stdout
    assert "2 job(s)" in stdout

    data = load_json(str(out))
    assert data["kind"] == "campaign-run"
    assert data["config"]["target"] == "mini"
    assert data["config"]["jobs"] == 2
    n_errors = len(data["report"]["outcomes"])
    assert n_errors >= 1
    assert len(CampaignCheckpoint.load(str(checkpoint))) == n_errors
    kinds = {event["kind"] for event in data["events"]}
    assert {"campaign-started", "error-finished", "checkpoint-written",
            "campaign-finished"} <= kinds

    # Resuming from the finished checkpoint regenerates nothing and
    # reports the same counts.
    out2 = tmp_path / "run2.json"
    assert main(["minipipe", "--sample", "30", "--jobs", "2",
                 "--checkpoint", str(checkpoint), "--resume",
                 "--json", str(out2)]) == 0
    capsys.readouterr()
    data2 = load_json(str(out2))
    assert {o["error"]: o["detected"]
            for o in data2["report"]["outcomes"]} == {
        o["error"]: o["detected"] for o in data["report"]["outcomes"]
    }
    started = [e for e in data2["events"] if e["kind"] == "campaign-started"]
    assert started[0]["data"]["resumed"] == n_errors
    assert not any(e["kind"] == "error-started" for e in data2["events"])


def test_minipipe_profile_flag():
    """``--profile`` is retired: every run reports what it added."""
    with pytest.raises(SystemExit) as excinfo:
        main(["minipipe", "--profile"])
    assert excinfo.value.code == 2


def test_minipipe_report_carries_every_search_counter(tmp_path, capsys):
    """Each outcome holds every TG search counter, each ``error-finished``
    event carries its whole outcome, ``campaign-finished`` carries the
    run's totals, and the cache-traffic-free canonical form keeps none
    of the counters."""
    from repro.campaign.serialize import canonical_campaign_run, load_json
    from repro.core.tg import SEARCH_COUNTERS

    out = tmp_path / "run.json"
    assert main(["minipipe", "--sample", "40", "--json", str(out)]) == 0
    feed = capsys.readouterr().err
    run = load_json(str(out))
    outcomes = run["report"]["outcomes"]
    finished = [e["data"] for e in run["events"]
                if e["kind"] == "error-finished"]
    [totals] = [e["data"] for e in run["events"]
                if e["kind"] == "campaign-finished"]
    assert len(finished) == len(outcomes) >= 1
    assert [{k: v for k, v in event.items() if k != "index"}
            for event in finished] == outcomes
    for name in SEARCH_COUNTERS:
        assert all(name in outcome["counters"] for outcome in outcomes)
        assert all(name in event["counters"] for event in finished)
        assert totals["counters"][name] == sum(
            outcome["counters"][name] for outcome in outcomes
        )
    assert totals["counters"]["golden_misses"] >= len(outcomes)
    for phase, total in totals["phase_seconds"].items():
        assert total == pytest.approx(sum(
            outcome["phase_seconds"].get(phase, 0.0) for outcome in outcomes
        ))
    [line] = [line for line in feed.splitlines()
              if line.startswith("counters: ")]
    for name, total in totals["counters"].items():
        assert f"{name} {total}" in line
    stripped = json.dumps(canonical_campaign_run(
        run, include_cache_traffic=False
    ))
    assert not [name for name in SEARCH_COUNTERS if f'"{name}"' in stripped]


def test_minipipe_dropping_flag(capsys):
    assert main(["minipipe", "--sample", "40", "--dropping"]) == 0
    out = capsys.readouterr().out
    assert "fault dropping skipped TG for" in out


def test_resume_requires_checkpoint(capsys):
    assert main(["minipipe", "--resume"]) == 2
    assert "error: resume requires a checkpoint path" in (
        capsys.readouterr().err
    )


def test_jobs_must_be_positive(capsys):
    assert main(["minipipe", "--jobs", "0"]) == 2
    assert "error: jobs must be >= 1, got 0" in capsys.readouterr().err


def test_deadline_must_be_finite_and_positive(capsys):
    for command in (["minipipe"], ["table1"], ["generate", "zero", "0", "0"]):
        for deadline in ("0", "-1", "nan", "inf"):
            assert main(command + ["--deadline", deadline]) == 2
            assert "error: deadline must be" in capsys.readouterr().err


def test_fuzz_budget_must_be_finite_and_positive(tmp_path, capsys):
    for budget in ("0", "-1", "nan", "inf"):
        assert main(["fuzz", "--budget", budget,
                     "--report-dir", str(tmp_path)]) == 2
        assert "error: budget_seconds must be" in capsys.readouterr().err


def test_fuzz_length_must_be_positive(tmp_path, capsys):
    # Programs of no instructions ran and reported 0 divergences, and a
    # matrix of them classified every error undetected_by_budget.
    for args in (["--machine", "dlx", "--iters", "5", "--length", "0"],
                 ["--matrix", "--matrix-machines", "mini",
                  "--matrix-programs", "2", "--length", "0"],
                 ["--matrix", "--matrix-machines", "mini",
                  "--matrix-programs", "2", "--length", "-3"]):
        assert main(["fuzz", *args, "--report-dir", str(tmp_path)]) == 2
        assert "error: length must be >= 1" in capsys.readouterr().err


def test_matrix_rejects_unknown_machine(tmp_path, capsys):
    assert main(["fuzz", "--matrix", "--matrix-machines", "mini,foo",
                 "--report-dir", str(tmp_path)]) == 2
    assert "error: unknown machine 'foo'" in capsys.readouterr().err


def test_resume_rejects_corrupt_checkpoint(tmp_path, capsys, monkeypatch):
    from repro.campaign import orchestrator

    def no_campaign(*args):
        raise AssertionError("a campaign was built")

    # The checkpoint is read before any campaign is built.
    monkeypatch.setattr(orchestrator, "build_campaign", no_campaign)
    path = tmp_path / "cp.jsonl"
    path.write_text("GARBAGE\n{}\n")
    assert main(["minipipe", "--checkpoint", str(path), "--resume"]) == 2
    assert "corrupt checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["dlx", "mini"])
def test_cli_and_service_share_campaign_defaults(target, monkeypatch):
    """A ``POST /v1/campaigns`` body holding only ``target`` runs what the
    CLI subcommand runs without flags: the same deadline, the same
    errors."""
    import repro.__main__ as cli
    from repro.campaign.orchestrator import build_campaign
    from repro.machines import machine_adapter
    from repro.service.jobs import (
        campaign_config_from_request,
        select_campaign_errors,
    )

    parsed = []
    monkeypatch.setattr(cli, "_run_campaign_command",
                        lambda args, machine: parsed.append(args) or 0)
    assert main([machine_adapter(target).command]) == 0
    [args] = parsed
    request = {"target": target}
    config = campaign_config_from_request(request, None, resume=False)
    assert config.deadline_seconds == args.deadline
    campaign = build_campaign(target, config.deadline_seconds)
    service_errors = select_campaign_errors(campaign, request)
    cli_errors = select_campaign_errors(campaign, {"sample": args.sample})
    assert service_errors
    assert ([e.describe() for e in service_errors]
            == [e.describe() for e in cli_errors])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_sigint_interrupts_campaign_exit_130(tmp_path):
    """A real SIGINT against the real CLI: the in-flight error finishes
    and checkpoints, stderr explains, and the exit code is 130."""
    import os
    import signal
    import subprocess
    import sys
    import time

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    checkpoint = tmp_path / "cp.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "minipipe", "--sample", "2",
         "--deadline", "10", "--checkpoint", str(checkpoint)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # Wait until at least one outcome has been checkpointed, so the
        # interrupt lands mid-campaign.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if checkpoint.exists() and checkpoint.stat().st_size > 0:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        assert proc.poll() is None, proc.communicate()[1]
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    assert "campaign interrupted" in err
    assert "campaign INTERRUPTED" in err  # the renderer's progress line
    from repro.campaign.checkpoint import CampaignCheckpoint

    records = CampaignCheckpoint.load(str(checkpoint))
    assert len(records) >= 1  # resumable from what completed
