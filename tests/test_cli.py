"""Tests for the ``python -m repro`` command-line interface."""

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


def test_minipipe_profile_flag(tmp_path, capsys):
    from repro.campaign.serialize import load_json

    out = tmp_path / "run.json"
    assert main(["minipipe", "--sample", "40", "--profile",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    data = load_json(str(out))
    events = data["events"]
    n_errors = len(data["report"]["outcomes"])
    profiles = [e for e in events if e["kind"] == "error-profile"]
    assert len(profiles) == n_errors
    for event in profiles:
        assert set(event["data"]["phase_seconds"]) <= {
            "dptrace", "ctrljust", "dprelax", "cosim"}
        assert event["data"]["golden_misses"] >= 0
    summaries = [e for e in events if e["kind"] == "profile-summary"]
    assert len(summaries) == 1
    summary = summaries[0]["data"]
    assert summary["golden_hits"] + summary["golden_misses"] >= n_errors
    # The summary is the per-error sum.
    for phase, total in summary["phase_seconds"].items():
        per_error = sum(e["data"]["phase_seconds"].get(phase, 0.0)
                        for e in profiles)
        assert total == pytest.approx(per_error)


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


def test_matrix_rejects_unknown_machine(tmp_path, capsys):
    assert main(["fuzz", "--matrix", "--matrix-machines", "mini,foo",
                 "--report-dir", str(tmp_path)]) == 2
    assert "error: unknown machine 'foo'" in capsys.readouterr().err


def test_resume_rejects_corrupt_checkpoint(tmp_path, capsys):
    path = tmp_path / "cp.jsonl"
    path.write_text("GARBAGE\n{}\n")
    assert main(["minipipe", "--checkpoint", str(path), "--resume"]) == 2
    assert "corrupt checkpoint" in capsys.readouterr().err


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
