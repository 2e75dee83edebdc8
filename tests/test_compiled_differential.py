"""Differential suite: compiled datapath kernels vs the interpretive oracle.

The compiled backend (:mod:`repro.datapath.compiled`) is an optimisation,
not a second semantics.  ``ProcessorSimulator(compiled=False)`` selects
the interpretive ``DatapathSimulator``; this suite builds its reference
arm on it, checks that the arm really runs it, and pins the two
implementations together —

* hypothesis-driven whole-run equivalence on MiniPipe (fault-free and
  with injected errors), cycle-by-cycle over the full co-simulation
  trace;
* seeded whole-run equivalence on DLX and DLX+BP, again fault-free and
  with errors from every model class;
* the cone-forking batch fault simulator against serial co-simulation:
  convergence back to the golden trace, verdict inheritance, and
  artifact-identical conformance classification;
* the TestGenerator exposure check: identical results with both halves
  of every co-simulation on the compiled or the interpretive simulator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tg import TestGenerator, TGStatus
from repro.datapath import DatapathSimulator
from repro.errors.models import (
    enumerate_boe,
    enumerate_bus_ssl,
    enumerate_mse,
)
from repro.mini import Instruction, MiniEnv, MiniSpec, build_minipipe
from repro.mini.spec import batch_detects as mini_batch_detects
from repro.mini.spec import detects as mini_detects
from repro.verify.cosim import ProcessorSimulator, TestbenchJudge


@pytest.fixture(scope="module")
def minipipe():
    return build_minipipe()


def _mini_errors(processor):
    dp = processor.datapath
    return (enumerate_bus_ssl(dp, stages={1, 2})
            + enumerate_mse(dp) + enumerate_boe(dp))


def _env(env_cls, processor, error=None, compiled=True):
    """``env_cls`` on ``processor`` with ``error`` planted; with
    ``compiled=False`` it co-simulates on the interpretive reference."""
    hooks = {}
    if error is not None:
        injector, module_overrides = error.hooks(processor.datapath)
        hooks = dict(injector=injector, module_overrides=module_overrides)
    env = env_cls(processor, **hooks)
    if not compiled:
        env.sim = ProcessorSimulator(processor, compiled=False, **hooks)
        assert type(env.sim.dp_sim) is DatapathSimulator
    return env


def _mini_trace(processor, program, init_regs, error=None, compiled=True):
    env = _env(MiniEnv, processor, error, compiled)
    result = env.run(program, init_regs)
    return result, [(c.controller, c.datapath) for c in env.trace.cycles]


instruction_strategy = st.builds(
    Instruction,
    op=st.sampled_from(["NOP", "ADD", "SUB", "AND", "XOR", "ADDI", "BEQ",
                        "SUBI"]),
    rs1=st.integers(0, 3),
    rs2=st.integers(0, 3),
    rd=st.integers(0, 3),
    imm=st.integers(0, 255),
)
program_strategy = st.lists(instruction_strategy, max_size=8)
regs_strategy = st.lists(st.integers(0, 255), min_size=4, max_size=4)


@settings(max_examples=25, deadline=None)
@given(program=program_strategy, regs=regs_strategy)
def test_mini_fault_free_equivalence(minipipe, program, regs):
    """Same writes, same registers, same cycle-by-cycle trace."""
    compiled, ct = _mini_trace(minipipe, program, regs, compiled=True)
    interp, it = _mini_trace(minipipe, program, regs, compiled=False)
    assert compiled.writes == interp.writes
    assert compiled.registers == interp.registers
    assert ct == it


@settings(max_examples=25, deadline=None)
@given(
    program=program_strategy,
    regs=regs_strategy,
    error_index=st.integers(min_value=0, max_value=10**6),
)
def test_mini_injected_equivalence(minipipe, program, regs, error_index):
    """Backend equivalence holds under every error-model hook: injectors
    (bus SSL) and module overrides (MSE / BOE) alike."""
    errors = _mini_errors(minipipe)
    error = errors[error_index % len(errors)]
    compiled, ct = _mini_trace(minipipe, program, regs, error, True)
    interp, it = _mini_trace(minipipe, program, regs, error, False)
    assert compiled.writes == interp.writes
    assert ct == it


@pytest.mark.parametrize("branch_prediction", [False, True])
def test_dlx_equivalence(branch_prediction):
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx import build_dlx
    from repro.dlx.env import DlxEnv

    dlx = build_dlx(branch_prediction=branch_prediction)
    errors = (enumerate_bus_ssl(dlx.datapath, max_bits_per_net=1)
              + enumerate_mse(dlx.datapath) + enumerate_boe(dlx.datapath))
    for seed in (1, 2):
        generator = RandomDlxGenerator(
            RandomProgramConfig(length=14, seed=seed)
        )
        program = generator.program(0)
        regs = generator.initial_registers(0)
        for error in [None] + errors[seed::17][:4]:
            runs = []
            for compiled in (True, False):
                env = _env(DlxEnv, dlx, error, compiled)
                result = env.run(program, regs)
                runs.append((
                    result.events, result.registers,
                    [(c.controller, c.datapath) for c in env.trace.cycles],
                ))
            assert runs[0] == runs[1], f"seed={seed} error={error}"


# ----------------------------------------------------------------------
# Cone-forking batch fault simulation
# ----------------------------------------------------------------------
def test_cone_fork_converges_and_inherits_verdict(minipipe):
    """Forks that stay inside their cone converge back to the golden
    trace and may inherit its verdict; serial co-simulation confirms
    every inherited verdict."""
    from repro.baselines.random_gen import (
        RandomMiniGenerator,
        RandomProgramConfig,
    )
    from repro.datapath.faultsim import BatchFaultSimulator

    generator = RandomMiniGenerator(RandomProgramConfig(length=10, seed=3))
    program = generator.program(0)
    regs = generator.initial_registers(0)
    spec = MiniSpec().run(program, regs)
    env = MiniEnv(minipipe)
    golden = env.run(program, regs)
    golden_detects = golden.writes != spec.writes
    bench = env.testbench_for(program, regs, spec_events=spec.writes)
    sim = BatchFaultSimulator(
        minipipe, env.trace, TestbenchJudge(minipipe, env.trace, bench),
    )

    transient = 0
    for error in _mini_errors(minipipe):
        fork = sim.fork(error)
        if fork.kind != "clean":
            continue
        # Inherited verdict must match a full serial co-simulation.
        assert mini_detects(minipipe, program, error, regs) \
            == golden_detects, error.describe()
        if fork.forked_cycles:
            transient += 1
    # At least one clean fork actually diverged inside its cone for a few
    # cycles and then re-converged — the concurrent-fault-simulation case
    # this machinery exists for (not merely never-activated errors).
    assert transient > 0


def test_mini_batch_detects_matches_serial(minipipe):
    from repro.baselines.random_gen import (
        RandomMiniGenerator,
        RandomProgramConfig,
    )

    errors = _mini_errors(minipipe)
    generator = RandomMiniGenerator(RandomProgramConfig(length=12, seed=7))
    for index in range(2):
        program = generator.program(index)
        regs = generator.initial_registers(index)
        batch = mini_batch_detects(minipipe, program, errors, regs)
        serial = [
            mini_detects(minipipe, program, error, regs)
            for error in errors
        ]
        assert batch == serial


def test_dlx_batch_detects_matches_serial(monkeypatch):
    """Every third error of every class and both branch-outcome errors
    (``zero`` stuck-at-0/1) on four programs, on the DLX and the DLX+BP:
    fault simulation gives the verdicts of ``detects``, and every path of
    the fork runs on both machines: a status touch followed through the
    controller and continued, a touch of a previewed net the testbench
    does not see, a touch decided detected inside the fork, and a real
    touch, which runs the bad machine from cycle 0.  A golden run that
    departs from the specification gives the same verdicts as
    ``detects`` too."""
    from collections import Counter

    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.datapath.faultsim import BatchFaultSimulator
    from repro.dlx import build_dlx
    from repro.dlx import env as dlx_env
    from repro.dlx.env import DlxEnv
    from repro.dlx.spec import DlxSpec

    # ("fork", kind) per fork and ("run", bad) per run from cycle 0, bad
    # for a run given the specification's events, in call order.
    calls = []
    judged = []  # (verdict, STS moved, previewed net moved) per judgement
    run, fork, judge = DlxEnv.run, BatchFaultSimulator.fork, \
        TestbenchJudge.__call__

    def recording_run(self, *args, spec_events=None, **kwargs):
        calls.append(("run", spec_events is not None))
        return run(self, *args, spec_events=spec_events, **kwargs)

    def recording_fork(self, error):
        outcome = fork(self, error)
        calls.append(("fork", outcome.kind))
        return outcome

    def recording_judge(self, t, values):
        verdict = judge(self, t, values)
        golden = self.golden.cycles[t]
        judged.append((
            verdict,
            any(values[name] != golden.controller[name]
                for name in ("zero", "addrlo")),
            any(values[name] != golden.datapath[name]
                for name in self.preview_nets),
        ))
        return verdict

    monkeypatch.setattr(DlxEnv, "run", recording_run)
    monkeypatch.setattr(BatchFaultSimulator, "fork", recording_fork)
    monkeypatch.setattr(TestbenchJudge, "__call__", recording_judge)
    generator = RandomDlxGenerator(RandomProgramConfig(length=12, seed=5))
    programs = [(generator.program(i), generator.initial_registers(i))
                for i in range(3)]
    # The second program of ``fuzz --matrix --seed 49``: ``zero``
    # stuck-at-1 flips a branch outcome, which only the controller's next
    # state shows.
    matrix = RandomDlxGenerator(RandomProgramConfig(length=12, seed=49))
    programs.append((matrix.program(1), matrix.initial_registers(1)))
    for branch_prediction in (False, True):
        dlx = build_dlx(branch_prediction=branch_prediction)
        dp = dlx.datapath
        every = (enumerate_bus_ssl(dp, max_bits_per_net=4)
                 + enumerate_mse(dp) + enumerate_boe(dp))
        errors = [e for i, e in enumerate(every) if i % 3 == 0
                  or e.describe().startswith("bus-ssl zero[")]
        judged.clear()
        calls.clear()
        for program, regs in programs:
            batch = dlx_env.batch_detects(dlx, program, errors, regs)
            serial = [dlx_env.detects(dlx, program, e, regs) for e in errors]
            assert batch == serial
        paths = Counter()
        for verdict, sts_moved, preview_moved in judged:
            paths["status followed"] += verdict is None and sts_moved
            paths["preview unseen"] += verdict is None and preview_moved
            paths["detected in fork"] += verdict == "detected"
        # Each touch is followed by the bad machine's run from cycle 0.
        touches = [i for i, call in enumerate(calls)
                   if call == ("fork", "touch")]
        assert all(calls[i + 1] == ("run", True) for i in touches)
        paths["touch run from cycle 0"] = len(touches)
        assert len(paths) == 4 and all(paths.values()), paths

    class DepartingSpec(DlxSpec):
        """The specification without its last event."""

        def run(self, *args):
            result = super().run(*args)
            result.events = result.events[:-1]
            return result

    monkeypatch.setattr(dlx_env, "DlxSpec", DepartingSpec)
    program, regs = programs[3]
    calls.clear()
    batch = dlx_env.batch_detects(dlx, program, errors, regs)
    assert calls.count(("run", True)) > 0  # the bad machines' runs
    assert batch == [dlx_env.detects(dlx, program, e, regs) for e in errors]


@pytest.mark.parametrize("branch_prediction", [False, True])
def test_fork_reads_the_golden_next_state_from_the_trace(branch_prediction):
    """The fork's controller step takes the golden's next controller
    state from the next golden cycle's CPR values, and clocks only the
    last cycle: the state the golden's own clock edge reaches."""
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.datapath.faultsim import BatchFaultSimulator
    from repro.dlx import build_dlx
    from repro.dlx.env import DlxEnv

    dlx = build_dlx(branch_prediction=branch_prediction)
    generator = RandomDlxGenerator(RandomProgramConfig(length=12, seed=5))
    for index in range(3):
        program = generator.program(index)
        regs = generator.initial_registers(index)
        env = DlxEnv(dlx)
        env.run(program, regs)
        bench = env.testbench_for(program, regs)
        sim = BatchFaultSimulator(
            dlx, env.trace, TestbenchJudge(dlx, env.trace, bench),
        )
        for t, cycle in enumerate(env.trace.cycles):
            golden = cycle.controller
            assert sim._next_state(t) == \
                dlx.controller.next_state(golden, golden)


def test_conformance_matrix_batch_matches_serial():
    """The batch strategy is invisible in the artifact: identical rows,
    budgets and detecting-program indices to one full co-simulation per
    (error, program) pair, each error trying the programs in order."""
    from repro.baselines.random_gen import (
        RandomMiniGenerator,
        RandomProgramConfig,
    )
    from repro.fuzz.conformance import MatrixConfig, _enumerate, run_matrix
    from repro.mini import build_minipipe, detects

    config = MatrixConfig(machine="mini", programs=4, length=10, seed=3)
    rows = run_matrix(config)["errors"]
    minipipe = build_minipipe()
    errors = _enumerate(minipipe, config)
    generator = RandomMiniGenerator(RandomProgramConfig(length=10, seed=3))
    programs = [
        (generator.program(i), generator.initial_registers(i))
        for i in range(config.programs)
    ]
    assert len(rows) == len(errors)
    assert {"detected", "undetected_by_budget"} <= {
        row["classification"] for row in rows
    }
    for row, (_, error) in zip(rows, errors):
        assert row["error"] == error.describe()
        if row["classification"] == "proven_benign":
            continue
        hit = next(
            (i for i, (program, regs) in enumerate(programs)
             if detects(minipipe, program, error, regs)),
            None,
        )
        serial = (
            ("detected", hit + 1, hit) if hit is not None
            else ("undetected_by_budget", len(programs), None)
        )
        assert (row["classification"], row["programs_run"],
                row["detected_by_program"]) == serial, row["error"]


# ----------------------------------------------------------------------
# TestGenerator exposure check
# ----------------------------------------------------------------------
def test_tg_exposure_matches_interpretive(minipipe, monkeypatch):
    errors = enumerate_bus_ssl(minipipe.datapath, stages={1, 2})[:6]
    fast = TestGenerator(minipipe, deadline_seconds=10.0)
    fast_results = [fast.generate(error) for error in errors]
    # The interpretive oracle: both halves of every exposure check, the
    # golden trace cache's fault-free run and TG's bad machine, on the
    # interpretive simulator.
    built = set()

    def interpretive(half):
        def build(*args, **kwargs):
            sim = ProcessorSimulator(*args, compiled=False, **kwargs)
            built.add((half, type(sim.dp_sim)))
            return sim
        return build

    monkeypatch.setattr("repro.verify.cosim.ProcessorSimulator",
                        interpretive("golden"))
    monkeypatch.setattr("repro.core.tg.ProcessorSimulator",
                        interpretive("bad"))
    slow = TestGenerator(minipipe, deadline_seconds=10.0)
    for error, a in zip(errors, fast_results):
        b = slow.generate(error)
        assert a.status == b.status
        if a.status is TGStatus.DETECTED:
            assert a.test.cpi_frames == b.test.cpi_frames
            assert a.test.stimulus_state == b.test.stimulus_state
    assert built == {("golden", DatapathSimulator), ("bad", DatapathSimulator)}
