"""Serialize generated verification tests and campaign reports to JSON.

A verification team keeps its generated suites; these helpers give the
artifacts a stable on-disk form:

* a realized DLX test serializes as its instructions' fields (plus the
  assembly text, for readers) and the initial register/memory state it
  needs,
* a raw TG :class:`TestCase` serializes field-by-field (cycle-indexed
  stimulus), and
* a campaign report serializes as its outcome table.

Everything round-trips: ``load_*`` reconstructs an object that behaves
identically (checked by the test suite via co-simulation).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from repro.campaign.runner import CampaignReport, outcome_from_dict
from repro.core.tg import TestCase


def testcase_to_dict(test: TestCase) -> dict[str, Any]:
    return {
        "kind": "testcase",
        "n_frames": test.n_frames,
        "cpi_frames": test.cpi_frames,
        "dpi_frames": test.dpi_frames,
        "stimulus_state": test.stimulus_state,
        "error": test.error,
        "activation_frame": test.activation_frame,
        "observation": list(test.observation) if test.observation else None,
        "decided_cpi": sorted(
            [frame, field] for frame, field in test.decided_cpi
        ),
    }


def testcase_from_dict(data: dict[str, Any]) -> TestCase:
    if data.get("kind") != "testcase":
        raise ValueError("not a serialized TestCase")
    observation = data.get("observation")
    return TestCase(
        n_frames=data["n_frames"],
        cpi_frames=[dict(f) for f in data["cpi_frames"]],
        dpi_frames=[dict(f) for f in data["dpi_frames"]],
        stimulus_state=dict(data["stimulus_state"]),
        error=data["error"],
        activation_frame=data["activation_frame"],
        observation=tuple(observation) if observation else None,
        decided_cpi=frozenset(
            (frame, field) for frame, field in data["decided_cpi"]
        ),
    )


def realized_dlx_to_dict(realized) -> dict[str, Any]:
    """The test exactly: the assembly syntax omits every field an
    instruction has no operand for (an R-type's ``imm``, an I-type's
    ``rd``, a branch's ``rt``), which realization may still set, so the
    fields are stored as well."""
    from repro.dlx.asm import disassemble

    return {
        "kind": "dlx-test",
        "assembly": disassemble(realized.program),
        "program": [
            {"op": i.op, "rs": i.rs, "rt": i.rt, "rd": i.rd, "imm": i.imm}
            for i in realized.program
        ],
        "init_regs": list(realized.init_regs),
        "init_memory": {
            str(addr): value for addr, value in realized.init_memory.items()
        },
    }


def realized_dlx_from_dict(data: dict[str, Any]):
    """Inverse of :func:`realized_dlx_to_dict`; tests written before the
    fields were stored load from their assembly."""
    from repro.dlx.asm import assemble
    from repro.dlx.isa import Instruction
    from repro.dlx.realize import RealizedDlxTest

    if data.get("kind") != "dlx-test":
        raise ValueError("not a serialized DLX test")
    if "program" in data:
        program = [Instruction(**fields) for fields in data["program"]]
    else:
        program = assemble(data["assembly"])
    return RealizedDlxTest(
        program=program,
        init_regs=list(data["init_regs"]),
        init_memory={
            int(addr): value for addr, value in data["init_memory"].items()
        },
    )


def realized_mini_to_dict(realized) -> dict[str, Any]:
    return {
        "kind": "mini-test",
        "program": [
            {"op": i.op, "rs1": i.rs1, "rs2": i.rs2, "rd": i.rd, "imm": i.imm}
            for i in realized.program
        ],
        "init_regs": list(realized.init_regs),
    }


def realized_mini_from_dict(data: dict[str, Any]):
    from repro.mini.isa import Instruction
    from repro.mini.realize import RealizedTest

    if data.get("kind") != "mini-test":
        raise ValueError("not a serialized MiniPipe test")
    return RealizedTest(
        program=[Instruction(**fields) for fields in data["program"]],
        init_regs=list(data["init_regs"]),
    )


def report_to_dict(report: CampaignReport) -> dict[str, Any]:
    return {
        "kind": "campaign-report",
        "total_seconds": report.total_seconds,
        "interrupted": report.interrupted,
        "outcomes": [vars(o).copy() for o in report.outcomes],
    }


def report_from_dict(data: dict[str, Any]) -> CampaignReport:
    if data.get("kind") != "campaign-report":
        raise ValueError("not a serialized campaign report")
    return CampaignReport(
        outcomes=[outcome_from_dict(o) for o in data["outcomes"]],
        total_seconds=data["total_seconds"],
        # Absent in reports written before interruption existed.
        interrupted=data.get("interrupted", False),
    )


#: Wall-clock / CPU-time fields of a campaign-run dict.  They vary run to
#: run even when the runs are semantically identical, so the canonical
#: form drops them wherever they appear in the tree.
TIMING_KEYS = frozenset({
    "wall_time", "seconds", "total_seconds", "wall_seconds",
    "phase_seconds", "phase_cpu_seconds", "cpu_seconds",
})

#: Cache-traffic counters.  Outcomes are cache-transparent (hits replay
#: recorded effort), but TG's search counters (every outcome's and the
#: run's ``counters``) depend on what was already warm: a second request
#: against a warm campaign service turns first-touch misses into hits.  A
#: warm clause DB can also refute a window a cold run would merely give
#: up on, which shifts ``backtracks`` while leaving outcomes and
#: ``final_backtracks`` (the successful attempt's effort) untouched.
#: ``canonical_campaign_run(..., include_cache_traffic=False)`` drops
#: these too, leaving exactly the fields that warm caches must never
#: change.
CACHE_TRAFFIC_KEYS = frozenset({"counters", "backtracks"})


def _strip_keys(value, keys: frozenset):
    if isinstance(value, dict):
        return {
            k: _strip_keys(v, keys)
            for k, v in value.items()
            if k not in keys
        }
    if isinstance(value, list):
        return [_strip_keys(v, keys) for v in value]
    return value


def canonical_campaign_run(
    run: dict[str, Any], include_cache_traffic: bool = True
) -> dict[str, Any]:
    """The run-to-run-stable form of a ``campaign-run`` dict.

    Strips timing everywhere (and, when ``include_cache_traffic`` is
    False, the cache hit/miss counters as well); everything left —
    config, outcomes, serialized tests, the event sequence — must be
    byte-identical between a campaign run via the CLI and the same
    campaign run through the service, warm or cold
    (``json.dumps(..., sort_keys=True)`` the result to compare bytes).
    """
    keys = TIMING_KEYS
    if not include_cache_traffic:
        keys = keys | CACHE_TRAFFIC_KEYS
    return _strip_keys(run, keys)


def save_json(obj: dict[str, Any], path: str) -> None:
    """Write atomically (temp file in the same directory + ``os.replace``)
    so a killed campaign never leaves a truncated artifact on disk."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(obj, handle, indent=1)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_json(path: str) -> dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
