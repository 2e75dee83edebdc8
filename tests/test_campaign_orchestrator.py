"""Tests for the parallel campaign orchestrator.

MiniPipe is the vehicle (fast TG per error); the assertions are about the
orchestration itself: serial equivalence, shard merging, coordinator-side
fault dropping, checkpoint/resume, and the emitted event stream.
"""

import json

import pytest

from repro.campaign import MiniCampaign
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.events import EventLog, EventStream
from repro.campaign.orchestrator import (
    CampaignOrchestrator,
    OrchestratorConfig,
    _worker_init,
    _worker_run,
    build_campaign,
    campaign_run_to_dict,
)
from repro.errors import BusSSLError

# A set every MiniPipe campaign detects, including one deterministic
# dropping pair: the test for alu_mux.y[0] stuck-at-0 also detects
# wb_res.y[3] stuck-at-1.
ERRORS = [
    BusSSLError("alu_mux.y", 0, 0),
    BusSSLError("wb_res.y", 3, 1),
    BusSSLError("alu_add.y", 2, 0),
    BusSSLError("opa_mux.y", 1, 1),
]


def _mini_config(**kwargs) -> OrchestratorConfig:
    kwargs.setdefault("target", "mini")
    kwargs.setdefault("deadline_seconds", 10.0)
    return OrchestratorConfig(**kwargs)


def _signature(report):
    return sorted(
        (o.error, o.detected, o.test_length, o.failure_stage, o.dropped_by)
        for o in report.outcomes
    )


def test_config_validation():
    with pytest.raises(ValueError):
        OrchestratorConfig(target="no-such-processor")
    with pytest.raises(ValueError):
        OrchestratorConfig(jobs=0)
    with pytest.raises(ValueError):
        OrchestratorConfig(resume=True, checkpoint_path=None)
    # Zero or less aborts every error; NaN never compares true, so it
    # would mean no deadline at all.
    for deadline in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="deadline"):
            OrchestratorConfig(deadline_seconds=deadline)
    assert OrchestratorConfig(jobs=4).to_dict()["jobs"] == 4


def test_build_campaign_targets():
    assert isinstance(build_campaign("mini", 10.0), MiniCampaign)
    with pytest.raises(ValueError):
        build_campaign("z80", 10.0)


def test_serial_orchestration_matches_classic_driver():
    classic = MiniCampaign(deadline_seconds=10.0).run(ERRORS)
    orchestrated = CampaignOrchestrator(_mini_config(jobs=1)).run(ERRORS)
    assert [o.error for o in orchestrated.outcomes] == [
        o.error for o in classic.outcomes
    ]
    assert _signature(orchestrated) == _signature(classic)


def test_parallel_matches_serial_counts():
    serial = CampaignOrchestrator(_mini_config(jobs=1)).run(ERRORS)
    parallel = CampaignOrchestrator(_mini_config(jobs=2)).run(ERRORS)
    assert _signature(parallel) == _signature(serial)
    assert parallel.n_detected == serial.n_detected
    assert parallel.n_aborted == serial.n_aborted


def test_parallel_dropping_composes_with_sharding():
    report = CampaignOrchestrator(
        _mini_config(jobs=2, error_simulation=True)
    ).run(ERRORS)
    # Every error accounted for exactly once, dropped or generated.
    assert sorted(o.error for o in report.outcomes) == sorted(
        e.describe() for e in ERRORS
    )
    assert report.n_detected == len(ERRORS)


def test_serial_dropping_emits_drop_events():
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    report = CampaignOrchestrator(
        _mini_config(jobs=1, error_simulation=True), events=events
    ).run(ERRORS)
    drops = log.of_kind("test-dropped-others")
    assert len(drops) >= 1
    assert drops[0].data["error"] == "bus-ssl alu_mux.y[0] stuck-at-0"
    assert "bus-ssl wb_res.y[3] stuck-at-1" in drops[0].data["dropped"]
    dropped_outcomes = [o for o in report.outcomes if o.dropped_by]
    assert dropped_outcomes and all(o.detected for o in dropped_outcomes)


def test_event_stream_covers_lifecycle():
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    CampaignOrchestrator(_mini_config(jobs=2), events=events).run(ERRORS)
    assert len(log.of_kind("campaign-started")) == 1
    assert len(log.of_kind("error-started")) == len(ERRORS)
    assert len(log.of_kind("error-finished")) == len(ERRORS)
    finished = log.of_kind("campaign-finished")[0]
    assert finished.data["n_detected"] == len(ERRORS)
    assert finished.data["wall_seconds"] > 0
    for event in log.of_kind("error-finished"):
        assert event.data["seconds"] > 0
        assert event.data["backtracks"] >= 0


def test_checkpoint_written_per_outcome(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    report = CampaignOrchestrator(
        _mini_config(jobs=2, checkpoint_path=path), events=events
    ).run(ERRORS)
    records = CampaignCheckpoint.load(path)
    assert len(records) == report.n_errors == len(ERRORS)
    # Detected errors carry their serialized realized test in the record.
    assert all(
        r.test is not None and r.test["kind"] == "mini-test"
        for r in records
        if r.outcome.detected and not r.outcome.dropped_by
    )
    assert len(log.of_kind("checkpoint-written")) == len(records)


def test_resume_skips_completed_and_reproduces_report(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    full = CampaignOrchestrator(
        _mini_config(jobs=1, checkpoint_path=path)
    ).run(ERRORS)

    # Simulate a killed run: keep only the first two checkpoint records.
    lines = open(path).read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(lines[:2]) + "\n")

    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    resumed = CampaignOrchestrator(
        _mini_config(jobs=1, checkpoint_path=path, resume=True),
        events=events,
    ).run(ERRORS)
    assert log.of_kind("campaign-started")[0].data["resumed"] == 2
    # Only the remaining errors were regenerated...
    assert len(log.of_kind("error-started")) == len(ERRORS) - 2
    # ... and the final report is identical to the uninterrupted run.
    assert [o.error for o in resumed.outcomes] == [
        o.error for o in full.outcomes
    ]
    assert _signature(resumed) == _signature(full)
    # The checkpoint now covers the whole campaign again.
    assert CampaignCheckpoint.completed_errors(path) == {
        e.describe() for e in ERRORS
    }


def test_dropping_resume_replays_recorded_tests(tmp_path):
    """A dropping run killed after its dropper's record, before the
    records of the errors that test drops, resumes to the uninterrupted
    report: the recorded test is replayed against the pending errors."""
    path = str(tmp_path / "cp.jsonl")
    full = CampaignOrchestrator(
        _mini_config(jobs=1, error_simulation=True, checkpoint_path=path)
    ).run(ERRORS)
    lines = open(path).read().splitlines()
    with open(path, "w") as handle:
        handle.write(lines[0] + "\n")

    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    resumed = CampaignOrchestrator(
        _mini_config(jobs=1, error_simulation=True, checkpoint_path=path,
                     resume=True),
        events=events,
    ).run(ERRORS)
    assert _signature(resumed) == _signature(full)
    [replayed, *_] = log.of_kind("test-dropped-others")
    assert replayed.data["error"] == ERRORS[0].describe()
    assert ERRORS[1].describe() in replayed.data["dropped"]
    started = {event.data["error"] for event in log.of_kind("error-started")}
    assert ERRORS[1].describe() not in started
    assert CampaignCheckpoint.completed_errors(path) == {
        e.describe() for e in ERRORS
    }


#: A checkpoint line exactly as written before the restart search and the
#: deadline bank were removed: its outcome still carries ``restarts`` and
#: ``deadline_grant``.
LEGACY_RECORD = (
    '{"kind":"campaign-checkpoint","outcome":{"error":"bus-ssl alu_mux.y[0]'
    ' stuck-at-0","detected":true,"test_length":4,"nontrivial_instructions":1,'
    '"backtracks":4,"final_backtracks":2,"attempts":2,"seconds":0.044,'
    '"failure_stage":"","dropped_by":"","phase_seconds":{"dptrace":0.019,'
    '"ctrljust":0.003,"dprelax":0.001,"cosim":0.015},"golden_hits":0,'
    '"golden_misses":1,"exposure_forks":1,"exposure_fork_decided":1,'
    '"nogood_hits":0,"nogood_misses":2,"justify_cache_hits":1,'
    '"path_cache_hits":0,"path_cache_misses":3,"dptrace_sweeps_avoided":6,'
    '"conflicts":2,"learned_clauses":2,"backjumps":0,"clause_hits":0,'
    '"refuted_unjustifiable":0,"restarts":0,"cpu_seconds":0.044,'
    '"deadline_grant":10.0,"deadline_hit":false},"test":{"kind":"mini-test",'
    '"program":[{"op":"NOP","rs1":0,"rs2":0,"rd":0,"imm":0},{"op":"ADD",'
    '"rs1":0,"rs2":1,"rd":3,"imm":0},{"op":"NOP","rs1":0,"rs2":0,"rd":0,'
    '"imm":0},{"op":"NOP","rs1":0,"rs2":0,"rd":0,"imm":0}],'
    '"init_regs":[1,0,0,0]}}'
)


def test_resume_from_legacy_checkpoint(tmp_path):
    """An older checkpoint resumes without re-running its error.  Its
    last record per error wins, as when a deadline-aborted error was
    re-run with a larger budget and recorded twice."""
    first = json.loads(LEGACY_RECORD)
    first["outcome"].update(
        detected=False, failure_stage="tg", test_length=0,
        nontrivial_instructions=0, deadline_hit=True,
    )
    first["test"] = None
    path = tmp_path / "cp.jsonl"
    path.write_text(json.dumps(first) + "\n" + LEGACY_RECORD + "\n")
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    report = CampaignOrchestrator(
        _mini_config(jobs=1, checkpoint_path=str(path), resume=True),
        events=events,
    ).run(ERRORS[:1])
    assert log.of_kind("error-started") == []
    assert log.of_kind("campaign-started")[0].data["resumed"] == 1
    [outcome] = report.outcomes
    assert outcome.error == ERRORS[0].describe()
    assert outcome.detected
    assert (outcome.test_length, outcome.backtracks) == (4, 4)


def test_resume_with_complete_checkpoint_does_no_work(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    config = _mini_config(jobs=1, checkpoint_path=path)
    first = CampaignOrchestrator(config).run(ERRORS)
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    again = CampaignOrchestrator(
        _mini_config(jobs=4, checkpoint_path=path, resume=True),
        events=events,
    ).run(ERRORS)
    assert log.of_kind("error-started") == []
    assert _signature(again) == _signature(first)


def test_interrupt_mid_campaign_checkpoints_and_resumes(tmp_path):
    """Cooperative interruption (SIGINT / service drain): in-flight work
    finishes and checkpoints, the tail is left resumable, and the event
    stream says so."""
    path = str(tmp_path / "cp.jsonl")
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    orchestrator = CampaignOrchestrator(
        _mini_config(jobs=1, checkpoint_path=path), events=events
    )
    events.subscribe(
        lambda e: orchestrator.interrupt()
        if e.kind == "error-finished" else None
    )
    report = orchestrator.run(ERRORS)
    assert report.interrupted
    # The stop flag is polled between errors: exactly one completed.
    assert len(report.outcomes) == 1
    event = log.of_kind("campaign-interrupted")[0]
    assert event.data == {
        "completed": 1, "remaining": len(ERRORS) - 1, "resumable": True,
    }
    assert len(CampaignCheckpoint.load(path)) == 1

    # Resume finishes the tail and reproduces the uninterrupted report.
    resumed = CampaignOrchestrator(
        _mini_config(jobs=1, checkpoint_path=path, resume=True)
    ).run(ERRORS)
    assert not resumed.interrupted
    full = CampaignOrchestrator(_mini_config(jobs=1)).run(ERRORS)
    assert _signature(resumed) == _signature(full)


def test_interrupt_before_run_attempts_nothing():
    orchestrator = CampaignOrchestrator(_mini_config(jobs=1))
    assert not orchestrator.interrupt_requested
    orchestrator.interrupt()
    assert orchestrator.interrupt_requested
    report = orchestrator.run(ERRORS)
    assert report.interrupted
    assert report.outcomes == []


def test_interrupt_parallel_run_leaves_tail_unattempted(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    orchestrator = CampaignOrchestrator(
        _mini_config(jobs=2, checkpoint_path=path), events=events
    )
    events.subscribe(
        lambda e: orchestrator.interrupt()
        if e.kind == "error-finished" else None
    )
    report = orchestrator.run(ERRORS)
    assert report.interrupted
    # In-flight shards finish; nothing new is dispatched after the stop.
    assert 1 <= len(report.outcomes) <= len(ERRORS)
    event = log.of_kind("campaign-interrupted")[0]
    assert event.data["completed"] == len(report.outcomes)
    assert event.data["completed"] + event.data["remaining"] <= len(ERRORS)
    assert len(CampaignCheckpoint.load(path)) == len(report.outcomes)


def test_worker_entry_points_in_process():
    """The pool worker functions themselves, run in-process."""
    _worker_init("mini", 10.0)
    index, outcome, realized = _worker_run(None, 7, ERRORS[0])
    assert index == 7
    assert outcome.detected
    assert outcome.error == ERRORS[0].describe()
    assert len(realized.program) == outcome.test_length


def test_in_process_error_that_raises_is_a_worker_failure(capsys):
    """At jobs=1 an error whose pipeline raises is recorded as a
    ``worker`` failure, as a lost pool worker is, its traceback goes to
    stderr, and the campaign goes on to the next error."""
    campaign = MiniCampaign(deadline_seconds=10.0)
    run_error = campaign._run_error_with_test

    def planted(error):
        if error.describe() == ERRORS[0].describe():
            raise RuntimeError("planted")
        return run_error(error)

    campaign._run_error_with_test = planted
    report = CampaignOrchestrator(
        _mini_config(jobs=1), campaign=campaign
    ).run(ERRORS[:2])
    lost, found = report.outcomes
    assert (lost.error, lost.detected, lost.failure_stage) == (
        ERRORS[0].describe(), False, "worker"
    )
    assert found.error == ERRORS[1].describe()
    assert found.detected
    assert "RuntimeError: planted" in capsys.readouterr().err


def test_campaign_run_to_dict_shape():
    config = _mini_config(jobs=2)
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    report = CampaignOrchestrator(config, events=events).run(ERRORS[:2])
    data = campaign_run_to_dict(config, report, log.events)
    assert data["kind"] == "campaign-run"
    assert data["config"]["target"] == "mini"
    assert data["config"]["jobs"] == 2
    assert len(data["report"]["outcomes"]) == 2
    assert {e["kind"] for e in data["events"]} >= {
        "campaign-started", "error-finished", "campaign-finished",
    }
