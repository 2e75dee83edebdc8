"""Tests for the JSONL campaign checkpoint (append, load, torn writes)."""

import json

import pytest

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointRecord
from repro.campaign.runner import ErrorOutcome


def _outcome(name: str, detected: bool = True) -> ErrorOutcome:
    return ErrorOutcome(name, detected, test_length=4, backtracks=1,
                        final_backtracks=1, seconds=0.5)


def test_append_and_load_roundtrip(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    with CampaignCheckpoint(path) as checkpoint:
        checkpoint.append(_outcome("e1"), test={"kind": "mini-test"})
        checkpoint.append(_outcome("e2", detected=False))
        assert checkpoint.n_written == 2
    records = CampaignCheckpoint.load(path)
    assert [r.outcome.error for r in records] == ["e1", "e2"]
    assert records[0].test == {"kind": "mini-test"}
    assert records[1].test is None
    assert records[0].outcome.test_length == 4
    assert not records[1].outcome.detected


def test_load_missing_file_is_empty():
    assert CampaignCheckpoint.load("/nonexistent/cp.jsonl") == []


def test_append_resumes_existing_file(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    with CampaignCheckpoint(path) as checkpoint:
        checkpoint.append(_outcome("e1"))
    with CampaignCheckpoint(path) as checkpoint:
        checkpoint.append(_outcome("e2"))
    assert CampaignCheckpoint.completed_errors(path) == {"e1", "e2"}


def test_torn_final_line_tolerated(tmp_path):
    """A killed run may truncate the last record; load skips it."""
    path = str(tmp_path / "cp.jsonl")
    with CampaignCheckpoint(path) as checkpoint:
        checkpoint.append(_outcome("e1"))
        checkpoint.append(_outcome("e2"))
    with open(path, "a") as handle:
        handle.write('{"kind": "campaign-checkpoint", "outco')
    records = CampaignCheckpoint.load(path)
    assert [r.outcome.error for r in records] == ["e1", "e2"]


def test_mid_file_corruption_raises(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    good = json.dumps(CheckpointRecord(_outcome("e1")).to_dict())
    with open(path, "w") as handle:
        handle.write("not json at all\n" + good + "\n")
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        CampaignCheckpoint.load(path)


def test_wrong_record_kind_rejected():
    with pytest.raises(ValueError):
        CheckpointRecord.from_dict({"kind": "other", "outcome": {}})


def test_record_dict_roundtrip():
    record = CheckpointRecord(_outcome("e9"), test={"kind": "dlx-test"})
    rebuilt = CheckpointRecord.from_dict(record.to_dict())
    assert rebuilt.outcome == record.outcome
    assert rebuilt.test == record.test


def test_retired_outcome_fields_are_dropped_and_others_rejected():
    for retired in (dict(restarts=0, deadline_grant=10.0),
                    dict(exposure_forks=3, exposure_fork_decided=2)):
        data = CheckpointRecord(_outcome("e1")).to_dict()
        data["outcome"].update(retired)
        assert CheckpointRecord.from_dict(data).outcome == _outcome("e1")
        data["outcome"]["mystery"] = 1
        with pytest.raises(ValueError, match="mystery"):
            CheckpointRecord.from_dict(data)
