"""Differential battery: batched lane simulation vs the scalar backends.

The batched numpy backend (:mod:`repro.datapath.batched` and the lane
co-simulator / environments built on it) is an execution strategy, not a
second semantics.  This suite pins it to the scalar compiled kernels —
which the compiled differential suite in turn pins to the interpretive
oracle — bit-for-bit:

* hypothesis-driven whole-batch equivalence on MiniPipe (fault-free and
  with injected errors), every lane compared cycle-by-cycle against a
  scalar run of that lane's program alone, ragged batches included;
* seeded equivalence on DLX and DLX+BP, fault-free and with errors from
  every model class, including failure-message parity for lanes whose
  scalar run raises ``CosimError``;
* lane widths 1, 2, 7 and 64 all produce the same per-program outcomes,
  and a width-1 batch reproduces the scalar trace exactly;
* the ``lanes`` knob and the numpy-absent fallback: ``effective_lanes``
  resolution, and a clean ``ImportError`` from every batched entry point
  when numpy is missing (simulated by stubbing the module's numpy
  handle, so this also runs on the real no-numpy CI tier).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datapath.batched as batched
from repro.datapath.batched import HAS_NUMPY, effective_lanes
from repro.errors.models import (
    enumerate_boe,
    enumerate_bus_ssl,
    enumerate_mse,
)
from repro.mini import Instruction, MiniEnv, build_minipipe
from repro.verify.cosim import CosimError
from tests.helpers import build_toy_pipeline

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy absent (batched backend unavailable)"
)


@pytest.fixture(scope="module")
def minipipe():
    return build_minipipe()


def _mini_errors(processor):
    dp = processor.datapath
    return (enumerate_bus_ssl(dp, stages={1, 2})
            + enumerate_mse(dp) + enumerate_boe(dp))


def _scalar_mini(processor, program, regs, error=None):
    """One scalar run: (result, trace cycles, failure message)."""
    if error is not None:
        bad = error.attach(processor.datapath)
        env = MiniEnv(processor, injector=bad.injector,
                      module_overrides=bad.module_overrides)
    else:
        env = MiniEnv(processor)
    try:
        result = env.run(program, regs)
    except CosimError as exc:
        return None, _cycles(env.trace), str(exc)
    return result, _cycles(env.trace), None


def _cycles(trace):
    return [(c.controller, c.datapath, c.bench, c.stimulus)
            for c in trace.cycles]


def _lane_cycles(processor, run):
    """A lane's trace in the :func:`_cycles` form, every net of every
    cycle read from the dense values the lane recorded."""
    names = processor.datapath.compiled().names
    return [
        (cycle.controller, dict(zip(names, values)), cycle.bench,
         cycle.stimulus)
        for cycle, values in zip(run.trace.cycles, run.dense_cycles)
    ]


def _batch_mini(processor, programs, regs_list, error=None):
    from repro.mini.lanes import BatchMiniEnv

    if error is not None:
        bad = error.attach(processor.datapath)
        env = BatchMiniEnv(processor, len(programs), injector=bad.injector,
                           module_overrides=bad.module_overrides)
    else:
        env = BatchMiniEnv(processor, len(programs))
    return env.run(programs, regs_list, record="dense")


def _assert_lane_matches_scalar(run, processor, program, regs, error=None):
    result, cycles, fail = _scalar_mini(processor, program, regs, error)
    assert run.failure == fail
    assert len(run.dense_cycles) == len(run.trace.cycles)
    assert _lane_cycles(processor, run) == cycles
    if fail is None:
        assert run.result.writes == result.writes
        assert run.result.registers == result.registers
    else:
        assert run.result is None


instruction_strategy = st.builds(
    Instruction,
    op=st.sampled_from(["NOP", "ADD", "SUB", "AND", "XOR", "ADDI", "BEQ",
                        "SUBI"]),
    rs1=st.integers(0, 3),
    rs2=st.integers(0, 3),
    rd=st.integers(0, 3),
    imm=st.integers(0, 255),
)
#: Lanes are (program, initial registers); programs of different lengths
#: in one batch exercise the ragged-lane NOP padding.
lane_strategy = st.tuples(
    st.lists(instruction_strategy, max_size=8),
    st.lists(st.integers(0, 255), min_size=4, max_size=4),
)
batch_strategy = st.lists(lane_strategy, min_size=1, max_size=5)


@requires_numpy
@settings(max_examples=15, deadline=None)
@given(batch=batch_strategy)
def test_mini_fault_free_batch_equivalence(minipipe, batch):
    """Every lane of a (possibly ragged) batch is byte-identical to a
    scalar run of that lane's program alone."""
    programs = [program for program, _ in batch]
    regs_list = [regs for _, regs in batch]
    runs = _batch_mini(minipipe, programs, regs_list)
    for run, (program, regs) in zip(runs, batch):
        _assert_lane_matches_scalar(run, minipipe, program, regs)


@requires_numpy
@settings(max_examples=15, deadline=None)
@given(
    batch=st.lists(lane_strategy, min_size=2, max_size=4),
    error_index=st.integers(min_value=0, max_value=10**6),
)
def test_mini_injected_batch_equivalence(minipipe, batch, error_index):
    """Equivalence holds under every error-model hook — injectors (bus
    SSL) and module overrides (MSE / BOE) — applied to all lanes."""
    errors = _mini_errors(minipipe)
    error = errors[error_index % len(errors)]
    programs = [program for program, _ in batch]
    regs_list = [regs for _, regs in batch]
    runs = _batch_mini(minipipe, programs, regs_list, error)
    for run, (program, regs) in zip(runs, batch):
        _assert_lane_matches_scalar(run, minipipe, program, regs, error)


@requires_numpy
def test_mini_error_failure_message_parity(minipipe):
    """For every sampled error model: if the scalar run raises
    ``CosimError``, the lane records exactly that message; if it does
    not, the lane result matches."""
    from repro.baselines.random_gen import (
        RandomMiniGenerator,
        RandomProgramConfig,
    )

    generator = RandomMiniGenerator(RandomProgramConfig(length=10, seed=13))
    program = generator.program(0)
    regs = generator.initial_registers(0)
    for error in _mini_errors(minipipe)[::3]:
        runs = _batch_mini(minipipe, [program], [regs], error)
        _assert_lane_matches_scalar(runs[0], minipipe, program, regs, error)


@requires_numpy
@pytest.mark.parametrize("width", [1, 2, 7, 64])
def test_mini_lane_widths_agree(minipipe, width):
    """The lane width is invisible: 1, 2, 7 and 64 lanes all reproduce
    the scalar outcome of each lane's program."""
    from repro.baselines.random_gen import (
        RandomMiniGenerator,
        RandomProgramConfig,
    )
    from repro.mini.lanes import BatchMiniEnv

    generator = RandomMiniGenerator(RandomProgramConfig(length=10, seed=21))
    cases = [
        (generator.program(i), generator.initial_registers(i))
        for i in range(7)
    ]
    scalar = [MiniEnv(minipipe).run(p, r) for p, r in cases]
    programs = [cases[i % 7][0] for i in range(width)]
    regs_list = [cases[i % 7][1] for i in range(width)]
    runs = BatchMiniEnv(minipipe, width).run(programs, regs_list)
    for i, run in enumerate(runs):
        expected = scalar[i % 7]
        assert run.failure is None
        assert run.result.writes == expected.writes
        assert run.result.registers == expected.registers


@requires_numpy
def test_single_lane_reproduces_scalar_trace(minipipe):
    """A width-1 batch is the scalar co-simulation, trace and all."""
    from repro.baselines.random_gen import (
        RandomMiniGenerator,
        RandomProgramConfig,
    )

    generator = RandomMiniGenerator(RandomProgramConfig(length=12, seed=5))
    program = generator.program(0)
    regs = generator.initial_registers(0)
    runs = _batch_mini(minipipe, [program], [regs])
    _assert_lane_matches_scalar(runs[0], minipipe, program, regs)


@requires_numpy
def test_batch_env_validates_arguments(minipipe):
    from repro.mini.lanes import BatchMiniEnv

    env = BatchMiniEnv(minipipe, 2)
    with pytest.raises(ValueError, match="expected 2 programs"):
        env.run([[]])
    with pytest.raises(ValueError, match="record"):
        env.run([[], []], record="everything")


# ----------------------------------------------------------------------
# DLX and DLX+BP
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("branch_prediction", [False, True])
def test_dlx_batch_matches_scalar(branch_prediction):
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx import build_dlx
    from repro.dlx.env import DlxEnv
    from repro.dlx.lanes import BatchDlxEnv

    dlx = build_dlx(branch_prediction=branch_prediction)
    errors = (enumerate_bus_ssl(dlx.datapath, max_bits_per_net=1)
              + enumerate_mse(dlx.datapath) + enumerate_boe(dlx.datapath))
    generator = RandomDlxGenerator(RandomProgramConfig(length=12, seed=9))
    cases = [
        (generator.program(i), generator.initial_registers(i))
        for i in range(3)
    ]
    programs = [program for program, _ in cases]
    regs_list = [regs for _, regs in cases]

    for error in [None] + errors[5::41][:3]:
        scalar = []
        for program, regs in cases:
            if error is not None:
                bad = error.attach(dlx.datapath)
                env = DlxEnv(dlx, injector=bad.injector,
                             module_overrides=bad.module_overrides)
            else:
                env = DlxEnv(dlx)
            try:
                result = env.run(program, regs)
            except CosimError as exc:
                scalar.append((None, _cycles(env.trace), str(exc)))
            else:
                scalar.append((result, _cycles(env.trace)
                               + [env.trace.final_bench], None))

        if error is not None:
            bad = error.attach(dlx.datapath)
            batch_env = BatchDlxEnv(dlx, 3, injector=bad.injector,
                                    module_overrides=bad.module_overrides)
        else:
            batch_env = BatchDlxEnv(dlx, 3)
        runs = batch_env.run(programs, regs_list, record="dense")

        for run, (result, cycles, fail) in zip(runs, scalar):
            tag = f"bp={branch_prediction} error={error}"
            assert run.failure == fail, tag
            assert len(run.dense_cycles) == len(run.trace.cycles), tag
            lane_cycles = _lane_cycles(dlx, run)
            if fail is None:
                lane_cycles.append(run.trace.final_bench)
            assert lane_cycles == cycles, tag
            if fail is None:
                assert run.result.events == result.events, tag
                assert run.result.registers == result.registers, tag
                assert run.result.memory.words == result.memory.words, tag


@requires_numpy
def test_dlx_ragged_batch():
    """Lanes with different program lengths (hence cycle counts) finish
    independently and still match their scalar runs."""
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx import build_dlx
    from repro.dlx.env import DlxEnv
    from repro.dlx.lanes import BatchDlxEnv

    dlx = build_dlx()
    short = RandomDlxGenerator(RandomProgramConfig(length=4, seed=2))
    long = RandomDlxGenerator(RandomProgramConfig(length=16, seed=2))
    cases = [
        (short.program(0), short.initial_registers(0)),
        (long.program(0), long.initial_registers(0)),
        ([], [0] * 32),
    ]
    runs = BatchDlxEnv(dlx, 3).run(
        [p for p, _ in cases], [r for _, r in cases]
    )
    for run, (program, regs) in zip(runs, cases):
        result = DlxEnv(dlx).run(program, regs)
        assert run.failure is None
        assert run.result.events == result.events
        assert run.result.registers == result.registers


@requires_numpy
def test_dlx_lane_step_stages_only_its_own_stimulus():
    """A lane that a later step leaves without a DPI value is unknown
    there, and fails as a scalar step does, not on the earlier step's
    value; a step takes exactly one CPI and one DPI frame per lane."""
    from repro.dlx import build_dlx
    from repro.dlx.isa import Instruction, to_cpi
    from repro.verify import ProcessorSimulator
    from repro.verify.lanes import LaneProcessorSimulator

    dlx = build_dlx()
    cpi = to_cpi(Instruction("ADDI", rs=1, rt=2, imm=4))
    full = {"rf_a": 3, "rf_b": 5, "imm16": 4, "dmem_rdata": 9}
    later = [full, {"rf_b": 6}, {}]
    sim = LaneProcessorSimulator(dlx, len(later))
    sim.step([cpi] * 3, [full] * 3)
    _, failures = sim.step([cpi] * 3, later)
    rf_a = sim.cd.index["rf_a"]
    assert [sim.dense_datapath(b)[rf_a] for b in range(3)] == [3, None, None]
    assert sorted(failures) == [1, 2]
    for b, dpi in enumerate(later):
        scalar = ProcessorSimulator(dlx)
        scalar.step(cpi, full)
        try:
            trace = scalar.step(cpi, dpi)
        except CosimError as exc:
            assert failures[b] == str(exc)
        else:
            assert dict(zip(sim.cd.names, sim.dense_datapath(b))) \
                == trace.datapath

    # A one-frame list would otherwise reach every lane.
    for cpis, dpis, got in (([cpi], [full] * 3, 1),
                            ([cpi] * 3, [full] * 4, 4)):
        with pytest.raises(ValueError,
                           match=f"got {got} external frames for 3 lanes"):
            sim.step(cpis, dpis)


# ----------------------------------------------------------------------
# The lanes knob and the numpy-absent fallback
# ----------------------------------------------------------------------
def test_effective_lanes_without_numpy(monkeypatch):
    monkeypatch.setattr(batched, "_np", None)
    monkeypatch.setattr(batched, "HAS_NUMPY", False)
    assert batched.effective_lanes(None) == 0  # auto falls back to scalar
    assert batched.effective_lanes(0) == 0
    with pytest.raises(ImportError, match="optional"):
        batched.effective_lanes(4)
    with pytest.raises(ImportError, match="lanes=0"):
        batched.require_numpy()


def test_effective_lanes_rejects_negative():
    with pytest.raises(ValueError, match="lanes"):
        effective_lanes(-1)


def test_entry_points_raise_clean_import_error(monkeypatch):
    monkeypatch.setattr(batched, "_np", None)
    netlist = build_toy_pipeline()
    with pytest.raises(ImportError, match="numpy"):
        batched.BatchedDatapathSimulator(netlist, 2)
    with pytest.raises(ImportError, match="numpy"):
        batched.batched_datapath(netlist)
    with pytest.raises(ImportError, match="numpy"):
        batched.BatchedDatapath(netlist)


@requires_numpy
def test_effective_lanes_with_numpy():
    assert effective_lanes(None) == batched.DEFAULT_LANES
    assert effective_lanes(0) == 0
    assert effective_lanes(5) == 5


@requires_numpy
def test_batched_rejects_bad_shapes():
    from repro.datapath import BatchedDatapathSimulator, DatapathBuilder

    with pytest.raises(ValueError, match="n_lanes"):
        BatchedDatapathSimulator(build_toy_pipeline(), 0)

    b = DatapathBuilder("toowide")
    x = b.input("x", 65)
    b.output("out", b.not_("inv", x))
    with pytest.raises(ValueError, match="<= 64"):
        BatchedDatapathSimulator(b.build(), 2)
