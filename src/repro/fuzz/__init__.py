"""Differential fuzzing & conformance harness for the cosim oracle.

Three adversaries for the specification-vs-implementation oracle the whole
reproduction rests on:

* :mod:`repro.fuzz.harness` — seeded differential fuzzing of spec vs
  pipelined implementation on MiniPipe and DLX, with coverage counters;
* :mod:`repro.fuzz.conformance` — a per-error detectability matrix
  (detected / undetected-by-budget / proven-benign), diffable across PRs;
* :mod:`repro.fuzz.minimize` — ddmin-based shrinking of any failing
  sequence to a locally-minimal pytest reproducer.

See ``docs/FUZZING.md`` and ``python -m repro fuzz --help``.
"""

from repro.fuzz.conformance import (
    ERROR_CLASSES,
    MatrixConfig,
    compare_matrices,
    matrix_artifact,
    reaches_observable,
    run_matrix,
)
from repro.fuzz.harness import FuzzConfig, FuzzReport, first_mismatch, run_fuzz
from repro.fuzz.minimize import (
    MinimizedCase,
    ddmin,
    emit_pytest_case,
    error_to_spec,
    minimize_case,
    parse_error_spec,
    reduce_init_regs,
    reduce_operand_fields,
)
from repro.machines import MACHINES, machine_adapter

__all__ = [
    "ERROR_CLASSES",
    "FuzzConfig",
    "FuzzReport",
    "MACHINES",
    "MatrixConfig",
    "MinimizedCase",
    "compare_matrices",
    "ddmin",
    "emit_pytest_case",
    "error_to_spec",
    "first_mismatch",
    "machine_adapter",
    "matrix_artifact",
    "minimize_case",
    "parse_error_spec",
    "reaches_observable",
    "reduce_init_regs",
    "reduce_operand_fields",
    "run_fuzz",
    "run_matrix",
]
