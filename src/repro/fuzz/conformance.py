"""Error-model conformance matrix: per-error detectability classification.

Mixed-level fault-redundancy studies separate a demo from a trustworthy
verification system by classifying *every* modelled fault, not just the
ones a campaign happened to exercise.  This runner injects every enumerated
error model (bus SSL, module substitution, bus order — ``repro.errors``)
into a machine and classifies each instance:

``proven_benign``
    The error site cannot structurally influence any observable net: no
    path from the site, through module data/control inputs and register
    D→Q crossings, reaches a data primary output (DPO) or a status (STS)
    net feeding the controller.  No test can ever detect it — proved, not
    sampled.
``detected``
    Some biased-random program within the budget distinguishes the
    erroneous implementation from the ISA specification (the Table-1
    criterion, via the machine's ``detects``).
``undetected_by_budget``
    Neither of the above: the budget (a fixed, seeded program list — so
    the classification is deterministic and diffable) ran out first.

The resulting matrix is a JSON artifact with a stable schema, meant to be
committed/uploaded and diffed across PRs: :func:`compare_matrices` flags
every error that regressed from ``detected``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.random_gen import (
    RandomDlxGenerator,
    RandomMiniGenerator,
    RandomProgramConfig,
)
from repro.datapath.batched import (
    counters_delta,
    counters_snapshot,
    effective_lanes,
)
from repro.errors import enumerate_boe, enumerate_bus_ssl, enumerate_mse
from repro.fuzz.harness import MACHINES
from repro.fuzz.minimize import error_to_spec

#: Error classes in enumeration order.
ERROR_CLASSES = ("bus-ssl", "mse", "boe")


@dataclass(frozen=True)
class MatrixConfig:
    """Knobs for one machine's conformance-matrix run."""

    machine: str = "mini"
    #: Detection budget: number of seeded random programs per error.
    programs: int = 16
    length: int = 12
    seed: int = 1
    #: Keep every Nth enumerated error (1 = all).
    sample: int = 1
    classes: tuple = ERROR_CLASSES
    #: Cap on bits enumerated per bus for SSL (None = every bit); the DLX
    #: campaign default is 4 to keep wide-bus counts manageable.
    max_bits_per_net: int | None = None
    #: Lane width for producing the golden runs on the batched numpy
    #: kernels (``None`` = auto, 0 = scalar).  Execution strategy, not a
    #: result knob: the artifact is byte-identical at any width and its
    #: config excludes it.
    lanes: int | None = None

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise ValueError(f"unknown machine {self.machine!r} "
                             f"(choose from {', '.join(MACHINES)})")
        if self.programs < 1:
            raise ValueError("programs must be >= 1")
        if self.sample < 1:
            raise ValueError("sample must be >= 1")
        unknown = sorted(set(self.classes) - set(ERROR_CLASSES))
        if unknown:
            raise ValueError(f"unknown error class(es) {', '.join(unknown)} "
                             f"(choose from {', '.join(ERROR_CLASSES)})")
        if self.lanes is not None and self.lanes < 0:
            raise ValueError("lanes must be >= 0")


def reaches_observable(netlist, site_net: str) -> bool:
    """True unless ``site_net`` provably cannot influence any DPO/STS net.

    Structural forward reachability: a net influences every module it
    feeds (through data *or* control inputs) and registers forward values
    across cycles.  STS nets count as observable because they feed the
    controller, whose decisions reach the datapath — only a site with no
    path to either kind of net is provably benign.
    """
    from repro.datapath.net import NetRole

    seen: set[str] = set()
    stack = [site_net]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        net = netlist.nets[name]
        if net.role in (NetRole.DPO, NetRole.STS):
            return True
        for port in net.sinks:
            for out in port.module.outputs:
                if out.net is not None and out.net.name not in seen:
                    stack.append(out.net.name)
    return False


def _enumerate(processor, config: MatrixConfig) -> list[tuple[str, object]]:
    netlist = processor.datapath
    errors: list[tuple[str, object]] = []
    if "bus-ssl" in config.classes:
        errors += [
            ("bus-ssl", e)
            for e in enumerate_bus_ssl(
                netlist, max_bits_per_net=config.max_bits_per_net
            )
        ]
    if "mse" in config.classes:
        errors += [("mse", e) for e in enumerate_mse(netlist)]
    if "boe" in config.classes:
        errors += [("boe", e) for e in enumerate_boe(netlist)]
    if config.sample > 1:
        errors = errors[:: config.sample]
    return errors


def _machine_harness(config: MatrixConfig):
    """(processor, batch_detects_fn, lane env class, generator) for the
    machine."""
    generator_config = RandomProgramConfig(
        length=config.length, seed=config.seed
    )
    if config.machine == "mini":
        from repro.mini import build_minipipe
        from repro.mini.lanes import BatchMiniEnv
        from repro.mini.spec import batch_detects

        return (build_minipipe(), batch_detects, BatchMiniEnv,
                RandomMiniGenerator(generator_config))
    from repro.dlx import build_dlx
    from repro.dlx.env import batch_detects
    from repro.dlx.lanes import BatchDlxEnv

    return (build_dlx(branch_prediction=config.machine == "dlx_bp"),
            batch_detects, BatchDlxEnv, RandomDlxGenerator(generator_config))


def _site_net(error, netlist) -> str:
    try:
        return error.site_net
    except AttributeError:
        return error.site_net_in(netlist)


def run_matrix(config: MatrixConfig, events=None) -> dict:
    """Classify every enumerated error on one machine.

    Returns the per-machine matrix fragment (see module docstring); the
    CLI merges fragments from several machines into one artifact.
    """
    started = time.monotonic()
    counters_before = counters_snapshot()
    processor, batch_detects, batch_env_cls, generator = _machine_harness(config)
    errors = _enumerate(processor, config)
    if events:
        events.emit(
            "matrix-started", machine=config.machine,
            n_errors=len(errors), programs=config.programs,
        )
    # The program list is shared across errors (and is the budget).
    programs = [
        (generator.program(i), generator.initial_registers(i))
        for i in range(config.programs)
    ]
    rows = []
    pending: list[tuple[int, object]] = []  # (row index, error) to simulate
    for class_name, error in errors:
        row = {
            "error": error.describe(),
            "spec": error_to_spec(error),
            "class": class_name,
        }
        if not reaches_observable(
            processor.datapath, _site_net(error, processor.datapath)
        ):
            row["classification"] = "proven_benign"
            row["programs_run"] = 0
            row["detected_by_program"] = None
        else:
            # Provisional: overwritten when some program detects it.
            row["classification"] = "undetected_by_budget"
            row["programs_run"] = len(programs)
            row["detected_by_program"] = None
            pending.append((len(rows), error))
        rows.append(row)
    # Programs outer, surviving errors batched per program: one golden
    # environment run per program, every pending error cone-forked
    # against it.  Same classifications, ``programs_run`` and
    # ``detected_by_program`` as trying each error's programs in order
    # with the machine's ``detects`` (an error's budget consumption never
    # depends on the other errors).
    #
    # With lanes, the golden runs themselves are produced on the
    # batched numpy kernels, a lane-sized chunk of programs at a time —
    # lazily, so early detection of every pending error still skips
    # the untouched tail of the budget entirely.
    n_lanes = effective_lanes(config.lanes)
    goldens: dict[int, tuple] = {}

    def golden_for(i: int) -> tuple:
        if i not in goldens:
            chunk = range(i, min(i + n_lanes, len(programs)))
            runs = batch_env_cls(processor, len(chunk)).run(
                [programs[j][0] for j in chunk],
                [programs[j][1] for j in chunk],
                record="dense",
            )
            for j, run in zip(chunk, runs):
                run.raise_failure()
                goldens[j] = (run.result, run.trace, run.dense_cycles)
        return goldens.pop(i)

    for i, (program, init_regs) in enumerate(programs):
        if not pending:
            break
        verdicts = batch_detects(
            processor, program, [e for _, e in pending], init_regs,
            golden=golden_for(i) if n_lanes else None,
        )
        survivors = []
        for (index, error), hit in zip(pending, verdicts):
            if hit:
                rows[index]["classification"] = "detected"
                rows[index]["programs_run"] = i + 1
                rows[index]["detected_by_program"] = i
            else:
                survivors.append((index, error))
        pending = survivors
    counts: dict[str, dict[str, int]] = {}
    for row in rows:
        summary = counts.setdefault(
            row["class"],
            {"total": 0, "detected": 0, "undetected_by_budget": 0,
             "proven_benign": 0},
        )
        summary["total"] += 1
        summary[row["classification"]] += 1
        if events:
            events.emit(
                "matrix-classified", machine=config.machine,
                error=row["error"],
                classification=row["classification"],
                programs_run=row["programs_run"],
            )
    totals = {
        key: sum(c[key] for c in counts.values())
        for key in ("detected", "undetected_by_budget", "proven_benign")
    }
    if events:
        delta = counters_delta(counters_before)
        lane_cycles = delta["lane_cycles"]
        events.emit(
            "matrix-finished", machine=config.machine,
            wall_seconds=time.monotonic() - started,
            lanes=effective_lanes(config.lanes),
            batch_calls=delta["batch_calls"],
            fill_rate=(
                round(delta["active_lane_cycles"] / lane_cycles, 4)
                if lane_cycles else 1.0
            ),
            **totals,
        )
    return {
        "config": {
            "programs": config.programs,
            "length": config.length,
            "seed": config.seed,
            "sample": config.sample,
            "classes": list(config.classes),
            "max_bits_per_net": config.max_bits_per_net,
        },
        "summary": {name: counts[name] for name in sorted(counts)},
        "errors": rows,
    }


def matrix_artifact(fragments: dict[str, dict]) -> dict:
    """Wrap per-machine fragments into the versioned artifact."""
    return {
        "kind": "conformance-matrix",
        "schema": 1,
        "machines": {name: fragments[name] for name in sorted(fragments)},
    }


def compare_matrices(baseline: dict, current: dict) -> list[str]:
    """Regressions from a baseline artifact: every error that was
    ``detected`` before and is not any more (or disappeared).

    Improvements (newly detected errors, new error instances) are not
    flagged — the gate is one-directional by design, so enumerating more
    errors can never fail the check.
    """
    regressions: list[str] = []
    for machine, fragment in baseline.get("machines", {}).items():
        current_fragment = current.get("machines", {}).get(machine)
        if current_fragment is None:
            regressions.append(f"{machine}: machine missing from current "
                               "matrix")
            continue
        current_rows = {
            row["spec"]: row for row in current_fragment["errors"]
        }
        for row in fragment["errors"]:
            if row["classification"] != "detected":
                continue
            now = current_rows.get(row["spec"])
            if now is None:
                regressions.append(
                    f"{machine}: {row['error']} no longer enumerated"
                )
            elif now["classification"] != "detected":
                regressions.append(
                    f"{machine}: {row['error']} regressed detected -> "
                    f"{now['classification']}"
                )
    return regressions
