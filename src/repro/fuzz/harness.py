"""Differential fuzzing of the specification-vs-implementation oracle.

The paper's detection criterion (Section II) compares an ISA-level
specification simulator against the co-simulated pipelined implementation.
Every Table-1 number rests on that oracle, so this harness stresses it
systematically: thousands of seeded biased-random programs (the Section-I
baseline generator) are executed on both sides and the architectural state
at retirement — the register write/event stream, the final register file
and (for DLX) the memory image — is asserted equal.

* On the **fault-free** build any divergence is an oracle bug: the case is
  delta-debugged to a locally-minimal reproducer and emitted as a
  ready-to-paste pytest file.
* With a **planted** error model (``FuzzConfig.plant``) a divergence is
  the expected detection; the same minimizer then produces the smallest
  instruction sequence that still detects the planted error.

Iterations are independent (iteration *i* is seeded ``seed + i``), so the
run shards across worker processes; the merged report is byte-identical
for any ``jobs`` value.  Alongside the verdicts the harness reports
hazard/bypass/squash coverage: controller states and transitions visited,
tertiary/CTRL value coverage (``repro.analysis.coverage``), and per-signal
activity counts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.analysis.coverage import ControllerCoverage, CoverageCollector
from repro.baselines.random_gen import (
    RandomDlxGenerator,
    RandomMiniGenerator,
    RandomProgramConfig,
)
from repro.datapath.batched import (
    counters_delta,
    counters_snapshot,
    effective_lanes,
    merge_counters,
)
from repro.fuzz.minimize import (
    emit_pytest_case,
    minimize_case,
    parse_error_spec,
)

MACHINES = ("mini", "dlx", "dlx_bp")


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for one differential-fuzz run."""

    machine: str = "mini"
    iters: int = 200
    seed: int = 1
    length: int = 12
    register_pool: int = 4
    jobs: int = 1
    #: Optional wall-clock budget; iteration loops stop once exceeded
    #: (budget-limited runs are *not* byte-deterministic across jobs).
    budget_seconds: float | None = None
    #: Optional planted error model (``repro.fuzz.minimize`` spec string);
    #: divergences are then expected detections rather than oracle bugs.
    plant: str | None = None
    #: Minimize at most this many diverging cases (lowest indices first).
    max_minimize: int = 5
    #: Optional mnemonic -> weight opcode mix for the generator.
    opcode_weights: dict | None = None
    #: Lane width for the batched numpy kernels: ``None`` = auto (batched
    #: when numpy is importable, scalar otherwise), 0 = scalar, N >= 1 =
    #: batch N seeded programs per kernel call.  Execution strategy, not
    #: a result knob — reports are byte-identical at any width and the
    #: artifact excludes it (see tests/test_fuzz_determinism.py).
    lanes: int | None = None

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise ValueError(f"unknown machine {self.machine!r} "
                             f"(choose from {', '.join(MACHINES)})")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.lanes is not None and self.lanes < 0:
            raise ValueError("lanes must be >= 0")


# ---------------------------------------------------------------------------
# Machine adapters: one uniform differential interface per machine
# ---------------------------------------------------------------------------
class _MiniAdapter:
    name = "mini"
    family = "mini"

    def build(self):
        from repro.mini import build_minipipe

        return build_minipipe()

    def generator(self, config: FuzzConfig):
        return RandomMiniGenerator(RandomProgramConfig(
            length=config.length, register_pool=config.register_pool,
            seed=config.seed, opcode_weights=config.opcode_weights,
        ))

    def spec_outcome(self, program, init_regs) -> dict:
        from repro.mini.spec import MiniSpec

        return self._canonical(MiniSpec().run(program, init_regs))

    def impl_outcome(self, processor, program, init_regs, error=None):
        from repro.mini.spec import MiniEnv

        env = _env(MiniEnv, processor, error)
        result = env.run(program, init_regs)
        return self._canonical(result), env.trace

    def impl_outcome_batch(self, processor, programs, init_regs_list,
                           error=None):
        """Lane-batched ``impl_outcome`` over a chunk of iterations."""
        from repro.mini.lanes import BatchMiniEnv

        env = _env(BatchMiniEnv, processor, error, len(programs))
        results = []
        for run in env.run(programs, init_regs_list):
            run.raise_failure()
            results.append((self._canonical(run.result), run.trace))
        return results

    @staticmethod
    def _canonical(result) -> dict:
        return {
            "writes": [list(w) for w in result.writes],
            "registers": list(result.registers),
        }


def _env(env_cls, processor, error, *args):
    """``env_cls(processor, *args)`` with ``error``'s hooks attached."""
    if error is None:
        return env_cls(processor, *args)
    injector, module_overrides = error.hooks(processor.datapath)
    return env_cls(processor, *args, injector=injector,
                   module_overrides=module_overrides)


class _DlxAdapter:
    name = "dlx"
    family = "dlx"
    branch_prediction = False

    def build(self):
        from repro.dlx import build_dlx

        return build_dlx(branch_prediction=self.branch_prediction)

    def generator(self, config: FuzzConfig):
        return RandomDlxGenerator(RandomProgramConfig(
            length=config.length, register_pool=config.register_pool,
            seed=config.seed, opcode_weights=config.opcode_weights,
        ))

    def spec_outcome(self, program, init_regs) -> dict:
        from repro.dlx.spec import DlxSpec

        result = DlxSpec().run(program, init_regs)
        return self._canonical(result)

    def impl_outcome(self, processor, program, init_regs, error=None):
        from repro.dlx.env import DlxEnv

        env = _env(DlxEnv, processor, error)
        result = env.run(program, init_regs)
        return self._canonical(result), env.trace

    def impl_outcome_batch(self, processor, programs, init_regs_list,
                           error=None):
        """Lane-batched ``impl_outcome`` over a chunk of iterations."""
        from repro.dlx.lanes import BatchDlxEnv

        env = _env(BatchDlxEnv, processor, error, len(programs))
        results = []
        for run in env.run(programs, init_regs_list):
            run.raise_failure()
            results.append((self._canonical(run.result), run.trace))
        return results

    @staticmethod
    def _canonical(result) -> dict:
        return {
            "events": [list(event) for event in result.events],
            "registers": list(result.registers),
            "memory": sorted(
                (addr, word) for addr, word in result.memory.words.items()
            ),
        }


class _DlxBpAdapter(_DlxAdapter):
    name = "dlx_bp"
    branch_prediction = True


_ADAPTERS = {
    "mini": _MiniAdapter,
    "dlx": _DlxAdapter,
    "dlx_bp": _DlxBpAdapter,
}


def machine_adapter(name: str):
    """The differential adapter for a machine name."""
    try:
        return _ADAPTERS[name]()
    except KeyError:
        raise ValueError(f"unknown machine {name!r}") from None


def first_mismatch(spec_outcome: dict, impl_outcome: dict) -> str | None:
    """Human-readable description of the first architectural mismatch."""
    for key in spec_outcome:
        spec_value = spec_outcome[key]
        impl_value = impl_outcome.get(key)
        if spec_value == impl_value:
            continue
        if isinstance(spec_value, list) and isinstance(impl_value, list):
            for i, (s, b) in enumerate(zip(spec_value, impl_value)):
                if s != b:
                    return f"{key}[{i}]: spec {s!r} impl {b!r}"
            return (f"{key}: length {len(spec_value)} (spec) vs "
                    f"{len(impl_value)} (impl)")
        return f"{key}: spec {spec_value!r} impl {impl_value!r}"
    return None


# ---------------------------------------------------------------------------
# Worker: one shard of iteration indices
# ---------------------------------------------------------------------------
def _signal_activity(processor, trace) -> dict[str, int]:
    """Cycles in which each tertiary (hazard/bypass/squash) signal fired."""
    counts = {name: 0 for name in processor.controller.cti_signals}
    for cycle in trace.cycles:
        for name in counts:
            if cycle.controller.get(name):
                counts[name] += 1
    return counts


def _run_shard(payload: tuple) -> dict:
    """Run one contiguous shard of iterations (multiprocessing target)."""
    config_kwargs, indices, deadline_seconds = payload
    config = FuzzConfig(**config_kwargs)
    adapter = machine_adapter(config.machine)
    processor = adapter.build()
    error = (parse_error_spec(config.plant, processor.datapath)
             if config.plant else None)
    generator = adapter.generator(config)
    collector = CoverageCollector(processor)
    activity: dict[str, int] = {}
    divergences = []
    completed = 0
    budget_exhausted = False
    started = time.monotonic()
    n_lanes = effective_lanes(config.lanes)
    counters_before = counters_snapshot()

    def observe(index, program, init_regs, spec_outcome, impl_outcome,
                trace) -> None:
        nonlocal completed
        collector.observe_trace(trace)
        for name, count in _signal_activity(processor, trace).items():
            activity[name] = activity.get(name, 0) + count
        mismatch = first_mismatch(spec_outcome, impl_outcome)
        if mismatch is not None:
            divergences.append({
                "index": index,
                "mismatch": mismatch,
                "program": [str(i) for i in program],
                "init_regs": list(init_regs),
            })
        completed += 1

    if n_lanes:
        # Lane-batched path: a chunk of seeded iterations per kernel call.
        # Per-index observation stays in index order, so the report is
        # byte-identical to the scalar path at any lane width.
        for start in range(0, len(indices), n_lanes):
            if (deadline_seconds is not None
                    and time.monotonic() - started > deadline_seconds):
                budget_exhausted = True
                break
            chunk = indices[start:start + n_lanes]
            programs = [generator.program(i) for i in chunk]
            init_regs_list = [generator.initial_registers(i) for i in chunk]
            outcomes = adapter.impl_outcome_batch(
                processor, programs, init_regs_list, error
            )
            for i, index in enumerate(chunk):
                spec_outcome = adapter.spec_outcome(
                    programs[i], init_regs_list[i]
                )
                impl_outcome, trace = outcomes[i]
                observe(index, programs[i], init_regs_list[i],
                        spec_outcome, impl_outcome, trace)
    else:
        for index in indices:
            if (deadline_seconds is not None
                    and time.monotonic() - started > deadline_seconds):
                budget_exhausted = True
                break
            program = generator.program(index)
            init_regs = generator.initial_registers(index)
            spec_outcome = adapter.spec_outcome(program, init_regs)
            impl_outcome, trace = adapter.impl_outcome(
                processor, program, init_regs, error
            )
            observe(index, program, init_regs, spec_outcome, impl_outcome,
                    trace)
    return {
        "divergences": divergences,
        "coverage": collector.coverage,
        "activity": activity,
        "completed": completed,
        "budget_exhausted": budget_exhausted,
        "batch_counters": counters_delta(counters_before),
    }


def _shards(iters: int, jobs: int) -> list[list[int]]:
    """Contiguous index shards; deterministic for any job count."""
    jobs = max(1, min(jobs, iters)) if iters else 1
    bounds = [round(i * iters / jobs) for i in range(jobs + 1)]
    return [list(range(bounds[i], bounds[i + 1])) for i in range(jobs)]


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Outcome of one fuzz run (see ``to_dict`` for the artifact form)."""

    config: FuzzConfig
    iterations: int = 0
    divergences: list[dict] = field(default_factory=list)
    minimized: list[dict] = field(default_factory=list)
    coverage: ControllerCoverage = field(
        default_factory=ControllerCoverage
    )
    activity: dict[str, int] = field(default_factory=dict)
    budget_exhausted: bool = False
    wall_seconds: float = 0.0

    def to_dict(self, processor) -> dict:
        """The deterministic report artifact.

        Byte-identical for identical ``(machine, iters, seed, length,
        plant, weights)`` whatever the job count — wall-clock and worker
        layout are deliberately excluded.
        """
        config = self.config
        return {
            "kind": "fuzz-report",
            "schema": 1,
            "config": {
                "machine": config.machine,
                "iters": config.iters,
                "seed": config.seed,
                "length": config.length,
                "register_pool": config.register_pool,
                "plant": config.plant,
                "opcode_weights": config.opcode_weights,
            },
            "iterations": self.iterations,
            "n_divergences": len(self.divergences),
            "divergences": self.divergences,
            "minimized": self.minimized,
            "coverage": {
                "states": self.coverage.n_states(),
                "transitions": self.coverage.n_transitions(),
                "tertiary_value_coverage":
                    self.coverage.tertiary_value_coverage(processor),
                "ctrl_value_coverage":
                    self.coverage.ctrl_value_coverage(processor),
                "tertiary_activity": {
                    name: self.activity.get(name, 0)
                    for name in sorted(processor.controller.cti_signals)
                },
            },
        }


def run_fuzz(
    config: FuzzConfig,
    events=None,
    report_dir: str | None = None,
) -> FuzzReport:
    """Run the differential fuzzer; optionally persist reproducers.

    ``events`` is a :class:`repro.campaign.events.EventStream` (or None);
    ``report_dir`` receives one ``reproducer_NNNN.py`` pytest file per
    minimized divergence.
    """
    started = time.monotonic()
    counters_before = counters_snapshot()
    adapter = machine_adapter(config.machine)
    processor = adapter.build()
    error = (parse_error_spec(config.plant, processor.datapath)
             if config.plant else None)
    if events:
        events.emit(
            "fuzz-started", machine=config.machine, iters=config.iters,
            seed=config.seed, jobs=config.jobs,
            planted=error.describe() if error else None,
        )

    config_kwargs = {
        "machine": config.machine, "iters": config.iters,
        "seed": config.seed, "length": config.length,
        "register_pool": config.register_pool, "jobs": 1,
        "budget_seconds": config.budget_seconds, "plant": config.plant,
        "max_minimize": config.max_minimize,
        "opcode_weights": config.opcode_weights,
        "lanes": config.lanes,
    }
    shards = _shards(config.iters, config.jobs)
    payloads = [
        (config_kwargs, shard, config.budget_seconds) for shard in shards
    ]
    if len(payloads) <= 1:
        shard_results = [_run_shard(payload) for payload in payloads]
    else:
        import multiprocessing

        with multiprocessing.Pool(len(payloads)) as pool:
            shard_results = pool.map(_run_shard, payloads)
        # Worker-process batched-kernel counters only exist in the worker;
        # fold their deltas into this process's profile counters.
        for result in shard_results:
            merge_counters(result.get("batch_counters", {}))

    report = FuzzReport(config=config)
    for result in shard_results:
        report.iterations += result["completed"]
        report.coverage.merge(result["coverage"])
        for name, count in result["activity"].items():
            report.activity[name] = report.activity.get(name, 0) + count
        report.divergences.extend(result["divergences"])
        report.budget_exhausted |= result["budget_exhausted"]
    report.divergences.sort(key=lambda d: d["index"])
    if events:
        for divergence in report.divergences:
            events.emit(
                "fuzz-divergence", index=divergence["index"],
                mismatch=divergence["mismatch"],
                planted=error.describe() if error else None,
            )

    _minimize_divergences(
        config, adapter, error, report, events, report_dir
    )
    report.wall_seconds = time.monotonic() - started
    if events:
        delta = counters_delta(counters_before)
        lane_cycles = delta["lane_cycles"]
        events.emit(
            "fuzz-finished", machine=config.machine,
            iterations=report.iterations,
            divergences=len(report.divergences),
            wall_seconds=report.wall_seconds,
            budget_exhausted=report.budget_exhausted,
            lanes=effective_lanes(config.lanes),
            batch_calls=delta["batch_calls"],
            fill_rate=(
                round(delta["active_lane_cycles"] / lane_cycles, 4)
                if lane_cycles else 1.0
            ),
        )
    return report


def _minimize_divergences(
    config, adapter, error, report, events, report_dir
) -> None:
    """Shrink the first ``max_minimize`` diverging cases and persist them."""
    if not report.divergences or config.max_minimize <= 0:
        return
    generator = adapter.generator(config)
    processor = adapter.build()

    def diverges(program: list, init_regs: list[int]) -> bool:
        if not program:
            return False
        spec_outcome = adapter.spec_outcome(program, init_regs)
        impl_outcome, _ = adapter.impl_outcome(
            processor, program, init_regs, error
        )
        return first_mismatch(spec_outcome, impl_outcome) is not None

    if report_dir:
        os.makedirs(report_dir, exist_ok=True)
    for divergence in report.divergences[: config.max_minimize]:
        index = divergence["index"]
        program = generator.program(index)
        init_regs = generator.initial_registers(index)
        minimized = minimize_case(program, init_regs, diverges)
        provenance = (f"machine {config.machine}, seed {config.seed}, "
                      f"iteration {index}")
        case_text = emit_pytest_case(
            config.machine, minimized.program, minimized.init_regs,
            error=error, provenance=provenance,
        )
        path = None
        if report_dir:
            path = os.path.join(report_dir, f"reproducer_{index:04d}.py")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(case_text)
        report.minimized.append({
            "index": index,
            "n_instructions": len(minimized.program),
            "program": [str(i) for i in minimized.program],
            "init_regs": minimized.init_regs,
            "predicate_calls": minimized.predicate_calls,
            "reproducer_file": (
                os.path.basename(path) if path else None
            ),
            "pytest_case": case_text,
        })
        if events:
            events.emit(
                "fuzz-minimized", index=index,
                original_length=minimized.original_length,
                minimized_length=len(minimized.program),
                path=path,
            )
