"""Campaign checkpointing: append-only JSONL with crash-safe resume.

A long campaign appends one JSON record per completed error to a checkpoint
file.  Each record holds the full :class:`ErrorOutcome` plus, when the
error was detected, the serialized realized test — so the checkpoint
doubles as the generated verification suite.  Records are written as single
``write()`` calls and flushed + fsynced, so a killed run loses at most the
record being written; :meth:`CampaignCheckpoint.load` tolerates a torn
final line and the orchestrator's ``resume`` path skips every error the
file already covers.

Record schema (one per line)::

    {"kind": "campaign-checkpoint",
     "outcome": {... ErrorOutcome fields ...},
     "test": {...serialized realized test...} | null}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

from repro.campaign.runner import ErrorOutcome, outcome_from_dict

RECORD_KIND = "campaign-checkpoint"


@dataclass
class CheckpointRecord:
    """One completed error: its outcome and (optionally) its test."""

    outcome: ErrorOutcome
    test: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": RECORD_KIND,
            "outcome": vars(self.outcome).copy(),
            "test": self.test,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "CheckpointRecord":
        if data.get("kind") != RECORD_KIND:
            raise ValueError("not a campaign checkpoint record")
        return CheckpointRecord(
            outcome=outcome_from_dict(data["outcome"]),
            test=data.get("test"),
        )


class CampaignCheckpoint:
    """Append-only JSONL writer for campaign checkpoint records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.n_written = 0
        self._handle = None

    def append(self, outcome: ErrorOutcome,
               test: dict[str, Any] | None = None) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        record = CheckpointRecord(outcome=outcome, test=test)
        self._handle.write(
            json.dumps(record.to_dict(), separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.n_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def load(path: str) -> list[CheckpointRecord]:
        """Records from ``path``; [] when the file does not exist.

        A torn final line (the run was killed mid-write) is skipped;
        corruption anywhere else raises ``ValueError``.
        """
        if not os.path.exists(path):
            return []
        with open(path) as handle:
            lines = handle.read().splitlines()
        records: list[CheckpointRecord] = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    break
                raise ValueError(
                    f"corrupt checkpoint record at {path}:{number}"
                ) from None
            records.append(CheckpointRecord.from_dict(data))
        return records

    @staticmethod
    def completed_errors(path: str) -> set[str]:
        """Descriptions of every error the checkpoint already covers."""
        return {
            record.outcome.error for record in CampaignCheckpoint.load(path)
        }
