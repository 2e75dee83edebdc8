"""Serialize generated verification tests and campaign reports to JSON.

A verification team keeps its generated suites; these helpers give the
artifacts a stable on-disk form:

* a realized DLX test serializes as assembly text plus the initial
  register/memory state it needs,
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
    from repro.dlx.asm import disassemble

    return {
        "kind": "dlx-test",
        "assembly": disassemble(realized.program),
        "init_regs": list(realized.init_regs),
        "init_memory": {
            str(addr): value for addr, value in realized.init_memory.items()
        },
    }


def realized_dlx_from_dict(data: dict[str, Any]):
    from repro.dlx.asm import assemble
    from repro.dlx.realize import RealizedDlxTest

    if data.get("kind") != "dlx-test":
        raise ValueError("not a serialized DLX test")
    return RealizedDlxTest(
        program=assemble(data["assembly"]),
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


def _nogood_encode(value):
    """Lower a no-good key/entry element to a JSON-able tagged form.

    Keys mix nested tuples and frozensets of scalars; frozensets are
    sorted so the wire form is canonical (equal keys encode equally).
    """
    if isinstance(value, tuple):
        return ["t", *[_nogood_encode(v) for v in value]]
    if isinstance(value, frozenset):
        return ["f", *sorted(_nogood_encode(v) for v in value)]
    return value


def _nogood_decode(value):
    if isinstance(value, list):
        tag, items = value[0], value[1:]
        if tag == "f":
            return frozenset(_nogood_decode(v) for v in items)
        return tuple(_nogood_decode(v) for v in items)
    return value


def nogood_records_to_wire(records) -> list:
    """Learned no-good records as JSON-able lists (the orchestrator's
    worker <-> coordinator transport; see ``repro.core.nogoods``).

    Each row is ``[key, blamed, backtracks, [conflicts, learned,
    backjumps, clause_hits, refuted]]`` — the CDCL column replays the
    refuter's effort counters on a foreign hit.
    """
    return [
        [_nogood_encode(key), _nogood_encode(blamed), backtracks,
         list(cdcl)]
        for key, (blamed, backtracks, cdcl) in records
    ]


def nogood_records_from_wire(data) -> list:
    """Inverse of :func:`nogood_records_to_wire`.

    Rows written before the CDCL column existed decode with zeroed
    counters.
    """
    records = []
    for row in data:
        key, blamed, backtracks = row[0], row[1], row[2]
        cdcl = tuple(row[3]) if len(row) > 3 else (0, 0, 0, 0, 0)
        records.append(
            (_nogood_decode(key), (_nogood_decode(blamed), backtracks, cdcl))
        )
    return records


def clause_records_to_wire(records) -> list:
    """Refutation certificates as JSON-able lists (same transport as the
    no-goods; see :class:`repro.core.clauses.ClauseDB`).

    A record is ``(n_frames, cert_items, lbd)`` with absolute
    ``((frame, name), value)`` literals; the wire form normalizes frames
    to the certificate's minimum frame and carries the offset, mirroring
    the no-good keys: ``[n_frames, offset, [[frame - offset, name,
    value], ...], lbd]``.
    """
    wire = []
    for n_frames, items, lbd in records:
        offset = min((frame for (frame, _), _ in items), default=0)
        wire.append([
            n_frames, offset,
            [[frame - offset, name, value]
             for (frame, name), value in items],
            lbd,
        ])
    return wire


def clause_records_from_wire(data) -> list:
    """Inverse of :func:`clause_records_to_wire`."""
    return [
        (
            n_frames,
            tuple(
                ((frame + offset, name), value)
                for frame, name, value in items
            ),
            lbd,
        )
        for n_frames, offset, items, lbd in data
    ]


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
#: recorded effort), but the hit/miss split itself depends on what was
#: already warm — a second request against a warm campaign service turns
#: first-touch misses into hits.  ``canonical_campaign_run(...,
#: include_cache_traffic=False)`` drops these too, leaving exactly the
#: fields that warm caches must never change.
CACHE_TRAFFIC_KEYS = frozenset({
    "golden_hits", "golden_misses",
    "nogood_hits", "nogood_misses", "justify_cache_hits",
    "path_cache_hits", "path_cache_misses", "dptrace_sweeps_avoided",
    # CDCL refuter traffic: a warm clause DB turns a fresh refutation
    # (conflicts > 0) into a certificate hit (clause_hits = 1), and a
    # certificate can refute a window a cold run would merely give up
    # on — shifting `backtracks` while leaving outcomes and
    # `final_backtracks` (the successful attempt's effort) untouched.
    "conflicts", "learned_clauses", "backjumps", "clause_hits",
    "refuted_unjustifiable", "backtracks",
})


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
