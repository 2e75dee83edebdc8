"""Record ``reference.json``: the outputs every benchmark run is checked
against.  Run from the repository root after a change that is meant to
alter outputs (and say so in its description)::

    python3 perfbench/record_reference.py

* ``dlx-table1``: per offset 0-5, one row per error from a campaign
  without fault dropping, so that every error runs TG:
  ``[detected, failure_stage, test_length, backtracks, final_backtracks,
  attempts, deadline_hit]``.  A campaign with dropping must agree on
  ``detected`` and ``failure_stage`` for every error.
* ``dlx-matrix`` and ``dlx-fuzz``: per size and seed, the digest of the
  matrix fragment (with its row code) and of the fuzz report.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from metrics import FUZZ, MATRIX, TABLE1  # noqa: E402

TABLE1_OFFSETS = range(6)
SEEDS = range(32)


def table1_rows(offset: int) -> dict:
    from repro.campaign.orchestrator import (
        CampaignOrchestrator,
        OrchestratorConfig,
    )

    rows = {}
    for dropping in (False, True):
        orchestrator = CampaignOrchestrator(OrchestratorConfig(
            target="dlx", deadline_seconds=workloads.TABLE1_DEADLINE,
            error_simulation=dropping,
        ))
        errors = orchestrator.default_errors(max_bits_per_net=4)
        report = orchestrator.run(errors[offset::workloads.TABLE1_STRIDE])
        for o in report.outcomes:
            if not dropping:
                rows[o.error] = [o.detected, o.failure_stage, o.test_length,
                                 o.backtracks, o.final_backtracks,
                                 o.attempts, o.deadline_hit]
            elif [o.detected, o.failure_stage] != rows[o.error][:2]:
                raise SystemExit(f"offset {offset}: {o.error} depends on "
                                 "fault dropping")
    return rows


def main() -> int:
    from repro.fuzz import machine_adapter, run_fuzz, run_matrix

    references = {TABLE1: {}, MATRIX: {}, FUZZ: {}}
    for offset in TABLE1_OFFSETS:
        references[TABLE1][str(offset)] = table1_rows(offset)
        print(f"dlx-table1 offset {offset}", flush=True)
    processor = machine_adapter("dlx").build()
    for size in workloads.SIZES:
        references[MATRIX][size] = {}
        references[FUZZ][size] = {}
        for seed in SEEDS:
            matrix = workloads.Matrix(seed, size, references)
            fragment = run_matrix(matrix.config())
            references[MATRIX][size][str(seed)] = {
                "digest": workloads.digest(fragment),
                "rows": matrix.row_code(fragment["errors"]),
            }
            report = run_fuzz(workloads.Fuzz(seed, size, references).config())
            if report.divergences:
                raise SystemExit(f"fuzz seed {seed}: divergences")
            references[FUZZ][size][str(seed)] = workloads.digest(
                report.to_dict(processor))
        print(f"{size}: {len(SEEDS)} seeds", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
