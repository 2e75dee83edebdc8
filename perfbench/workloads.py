"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed, runs one *unit*
of work at a time (a fresh program object per unit, so every unit does
the same work), and checks every unit's output against
``reference.json``.  Units run in one process with ``jobs=1`` and no
service.

* ``dlx-table1`` -- the paper's Table-1 campaign: DLX bus-SSL errors
  (``max_bits_per_net=4``, 292 errors), every 12th from ``offset``, with
  fault dropping, a 10 s CPU deadline and the default ``TestGenerator``,
  run through ``CampaignOrchestrator``.  Offset 0 is the ROADMAP's
  25-error sample.  The seed orders the errors: unit ``k`` of seed ``s``
  runs the campaign twice, dispatching the errors in a shuffle keyed
  ``(s, k)`` and then in the reverse of that shuffle; seed 0 starts from
  the enumeration order.  Dispatch order decides which errors fault
  dropping retires, and so moves a campaign's time by up to 10%; a pair
  of reversed orders cancels most of that.  Each error's TG outcome and
  effort do not depend on the order, so one per-error reference table
  serves every seed.
* ``dlx-matrix`` -- the DLX conformance matrix: 342 errors (bus SSL at 4
  bits per net, MSE, BOE) against 16 seeded random programs.  Seed ``s``
  runs program seed ``1 + 16 s``, so neighbouring seeds share no program
  and seed 0 is the CLI default (``fuzz --matrix --seed 1``).
* ``dlx-fuzz`` -- fault-free DLX differential fuzzing, 200 programs of
  length 12 per unit.  Seed ``s`` runs fuzz seed ``1 + 200 s``; seed 0 is
  ``fuzz --machine dlx --seed 1``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from metrics import FUZZ, MATRIX, TABLE1

TABLE1_STRIDE = 12
TABLE1_DEADLINE = 10.0
PROGRAM_LENGTH = 12

#: Per-size inputs.  ``tiny`` is the self-test's size.
SIZES = {
    "full": {
        "table1_errors": None,
        "matrix": {"programs": 16, "sample": 1},
        "fuzz_programs": 200,
    },
    "tiny": {
        "table1_errors": slice(2, 5),
        "matrix": {"programs": 4, "sample": 20},
        "fuzz_programs": 16,
    },
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Unit:
    """One unit of work: operations attempted and failed, wall time, the
    unit's exact outputs, the problems its checks found, and a key that
    every unit of a run must share (matrix row code, fuzz report digest)."""

    ops: int
    seconds: float
    cpu_seconds: float = 0.0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    key: str = ""


class Workload:
    name = ""
    #: Units every run makes, however short ``--seconds`` is.
    min_units = 1
    #: Operations in one unit, once known; a crashed unit fails them all.
    ops_per_unit = 1

    def __init__(self, seed: int, size: str, references: dict) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.size_name = size
        self.references = references

    def setup(self) -> None:
        """Import the program and build the inputs of the first unit."""
        raise NotImplementedError

    def unit(self, k: int) -> Unit:
        # Free the previous unit's cyclic garbage first, so that it neither
        # adds to this unit's peak memory nor to its time.
        gc.collect()
        started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            unit = self._run(k)
        except Exception as exc:  # the run goes on and reports the failure
            unit = Unit(ops=self.ops_per_unit, seconds=0.0,
                        failed=self.ops_per_unit,
                        problems=[f"unit {k}: {type(exc).__name__}: {exc}"])
        unit.seconds = time.perf_counter() - started
        unit.cpu_seconds = time.process_time() - cpu_started
        self.ops_per_unit = unit.ops
        return unit

    def _run(self, k: int) -> Unit:
        raise NotImplementedError

    def finish(self, units: list[Unit]) -> list[str]:
        """Checks across units; returns problems found."""
        return []


class Table1(Workload):
    name = TABLE1

    def __init__(self, seed, size, references, offset: int = 0) -> None:
        super().__init__(seed, size, references)
        if not 0 <= offset < TABLE1_STRIDE:
            raise ValueError(f"offset must be in 0..{TABLE1_STRIDE - 1}")
        self.offset = offset
        self.reference = references[TABLE1].get(str(offset))
        if self.reference is None:
            raise ValueError(f"no reference for dlx-table1 offset {offset}")

    def _orchestrator(self):
        from repro.campaign.orchestrator import (
            CampaignOrchestrator,
            OrchestratorConfig,
        )

        return CampaignOrchestrator(OrchestratorConfig(
            target="dlx", jobs=1, deadline_seconds=TABLE1_DEADLINE,
            error_simulation=True,
        ))

    def errors(self, orchestrator) -> list:
        errors = orchestrator.default_errors(max_bits_per_net=4)
        errors = errors[self.offset::TABLE1_STRIDE]
        if self.size["table1_errors"] is not None:
            errors = errors[self.size["table1_errors"]]
        return errors

    def setup(self) -> None:
        self.ops_per_unit = 2 * len(self.errors(self._orchestrator()))

    def orders(self, errors: list, k: int) -> tuple[list, list]:
        """Unit ``k``'s two dispatch orders: a shuffle and its reverse."""
        errors = list(errors)
        if (self.seed, k) != (0, 0):
            random.Random(f"{self.seed}:{k}").shuffle(errors)
        return errors, errors[::-1]

    def _run(self, k: int) -> Unit:
        unit = Unit(ops=0, seconds=0.0)
        for order in self.orders(self.errors(self._orchestrator()), k):
            gc.collect()  # free the first campaign, as between units
            report = self._orchestrator().run(order)
            unit.ops += len(order)
            seen = set()
            for outcome in report.outcomes:
                seen.add(outcome.error)
                problem = self._check(outcome)
                if problem:
                    unit.failed += 1
                    unit.problems.append(
                        f"unit {k}: {outcome.error}: {problem}")
            missing = {e.describe() for e in order} - seen
            if missing or len(report.outcomes) != len(order):
                unit.failed += len(missing)
                unit.problems.append(
                    f"unit {k}: {len(report.outcomes)} outcomes for "
                    f"{len(order)} errors, missing {sorted(missing)}")
            # The exact outputs are the first campaign's (seed order).
            unit.outputs = unit.outputs or {
                "campaign_detected": report.n_detected,
                "avg_test_len": report.avg_test_length,
                "deadline_hits": sum(o.deadline_hit for o in report.outcomes),
                "dropped": sum(1 for o in report.outcomes if o.dropped_by),
            }
        return unit

    def _check(self, outcome) -> str:
        """Compare one outcome with the per-error reference row."""
        if outcome.failure_stage in ("realize", "isa-check", "worker"):
            return f"failure stage {outcome.failure_stage}"
        row = self.reference.get(outcome.error)
        if row is None:
            return "not in the reference"
        if [outcome.detected, outcome.failure_stage] != row[:2]:
            return (f"outcome {outcome.detected}/{outcome.failure_stage!r}, "
                    f"reference {row[0]}/{row[1]!r}")
        if outcome.dropped_by or row[6] or outcome.deadline_hit:
            # Dropped errors ran no TG; the clock decides the effort of a
            # deadline-cut search.
            return ""
        work = [outcome.test_length, outcome.backtracks,
                outcome.final_backtracks, outcome.attempts]
        if work != row[2:6]:
            return f"test length/backtracks/final/attempts {work}, " \
                   f"reference {row[2:6]}"
        return ""


class Matrix(Workload):
    name = MATRIX
    min_units = 3

    def config(self):
        from repro.fuzz import MatrixConfig

        return MatrixConfig(
            machine="dlx", length=PROGRAM_LENGTH,
            seed=1 + 16 * self.seed, max_bits_per_net=4,
            **self.size["matrix"],
        )

    def setup(self) -> None:
        from repro.baselines.random_gen import (
            RandomDlxGenerator,
            RandomProgramConfig,
        )

        config = self.config()
        generator = RandomDlxGenerator(
            RandomProgramConfig(length=config.length, seed=config.seed))
        self._programs = [
            (generator.program(i), generator.initial_registers(i))
            for i in range(config.programs)
        ]
        self.reference = (self.references[MATRIX][self.size_name]
                          .get(str(self.seed)))
        if self.reference is not None:
            self.ops_per_unit = len(self.reference["rows"]) // 2

    @staticmethod
    def row_code(rows) -> str:
        """Two characters per row: classification and detecting program."""
        return "".join(
            row["classification"][0]
            + ("-" if row["detected_by_program"] is None
               else "0123456789abcdefghijklmnopqrstuv"[
                   row["detected_by_program"]])
            for row in rows
        )

    def _run(self, k: int) -> Unit:
        from repro.fuzz import run_matrix

        fragment = run_matrix(self.config())
        rows = fragment["errors"]
        totals = {key: sum(c[key] for c in fragment["summary"].values())
                  for key in ("detected", "proven_benign")}
        unit = Unit(ops=len(rows), seconds=0.0, outputs={
            "matrix_detected": totals["detected"],
            "proven_benign": totals["proven_benign"],
        })
        unit.key = self.row_code(rows)
        if k == 0:
            self._rows = rows
        if self.reference is not None:
            self._compare(unit, self.reference["rows"], k)
            if digest(fragment) != self.reference["digest"]:
                unit.problems.append(f"unit {k}: matrix digest differs "
                                     "from the reference")
                unit.failed = max(unit.failed, 1)
        return unit

    def _compare(self, unit: Unit, expected: str, k: int) -> None:
        got = unit.key
        bad = [i for i in range(0, max(len(got), len(expected)), 2)
               if got[i:i + 2] != expected[i:i + 2]]
        if bad:
            unit.failed += len(bad)
            unit.problems.append(f"unit {k}: {len(bad)} matrix rows differ "
                                 "from the reference")

    def finish(self, units: list[Unit]) -> list[str]:
        problems = []
        for k, unit in enumerate(units[1:], start=1):
            if unit.key and units[0].key and unit.key != units[0].key:
                self._compare(unit, units[0].key, k)
                problems.append(f"unit {k}: matrix differs from unit 0")
        if self.reference is None and units[0].key:
            problems += self._spot_check(self._rows)
        return problems

    def _spot_check(self, rows) -> list[str]:
        """Without a recorded reference, re-decide a sample of rows by full
        co-simulation (``detects``), independent of the cone forks and the
        lane goldens the matrix uses."""
        from repro.dlx import build_dlx, detects
        from repro.fuzz.minimize import parse_error_spec

        processor = build_dlx()
        problems = []
        detected = [r for r in rows if r["classification"] == "detected"]
        undetected = [r for r in rows
                      if r["classification"] == "undetected_by_budget"]
        for row in detected[::40]:
            program, regs = self._programs[row["detected_by_program"]]
            error = parse_error_spec(row["spec"], processor.datapath)
            if not detects(processor, program, error, regs):
                problems.append(f"{row['error']}: not detected by program "
                                f"{row['detected_by_program']}")
        for row in undetected[:3]:
            error = parse_error_spec(row["spec"], processor.datapath)
            for index, (program, regs) in enumerate(self._programs):
                if detects(processor, program, error, regs):
                    problems.append(f"{row['error']}: detected by program "
                                    f"{index}")
        return problems


class Fuzz(Workload):
    name = FUZZ
    min_units = 5

    def config(self):
        from repro.fuzz import FuzzConfig

        programs = self.size["fuzz_programs"]
        return FuzzConfig(machine="dlx", iters=programs,
                          seed=1 + programs * self.seed,
                          length=PROGRAM_LENGTH)

    def setup(self) -> None:
        from repro.fuzz import machine_adapter

        self._processor = machine_adapter("dlx").build()
        self.ops_per_unit = self.config().iters
        self.reference = (self.references[FUZZ][self.size_name]
                          .get(str(self.seed)))

    def _run(self, k: int) -> Unit:
        from repro.fuzz import run_fuzz

        report = run_fuzz(self.config())
        unit = Unit(ops=report.iterations, seconds=0.0,
                    outputs={"divergences": len(report.divergences)})
        unit.key = digest(report.to_dict(self._processor))
        if report.divergences:
            unit.failed += len(report.divergences)
            unit.problems.append(f"unit {k}: {len(report.divergences)} "
                                 "spec/implementation divergences")
        if report.iterations != self.config().iters:
            unit.problems.append(f"unit {k}: {report.iterations} iterations")
        if self.reference is not None and unit.key != self.reference:
            unit.failed = unit.ops
            unit.problems.append(f"unit {k}: fuzz report digest differs "
                                 "from the reference")
        return unit

    def finish(self, units: list[Unit]) -> list[str]:
        problems = []
        for k, unit in enumerate(units[1:], start=1):
            if unit.key != units[0].key:
                unit.failed = unit.ops
                problems.append(f"unit {k}: fuzz report differs from unit 0")
        return problems


def make(name: str, seed: int, size: str, references: dict,
         offset: int = 0) -> Workload:
    if name == TABLE1:
        return Table1(seed, size, references, offset)
    return {MATRIX: Matrix, FUZZ: Fuzz}[name](seed, size, references)
