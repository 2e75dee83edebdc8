"""Tests for the processor co-simulator and trace comparison."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BusSSLError
from repro.mini import Instruction, build_minipipe, to_cpi
from repro.verify import ProcessorSimulator, traces_diverge
from repro.verify.cosim import (
    CycleTrace,
    Excursion,
    GoldenTraceCache,
    TestbenchJudge,
    Trace,
    stimulus_key,
)


@pytest.fixture(scope="module")
def processor():
    return build_minipipe()


def test_step_resolves_all_ctrl(processor):
    sim = ProcessorSimulator(processor)
    trace = sim.step(to_cpi(Instruction("ADDI", rs1=0, rd=1, imm=5)),
                     {"rf_a": 0, "rf_b": 0, "imm": 5})
    for name in processor.controller.ctrl_signals:
        assert trace.controller[name] is not None


def test_status_feedback_fixpoint(processor):
    """The eq status computed by the datapath must reach the controller
    within the same cycle (squash on taken branch)."""
    sim = ProcessorSimulator(processor)
    # Put a BEQ into EX with equal operands.
    sim.step(to_cpi(Instruction("BEQ", rs1=0, rs2=0)),
             {"rf_a": 7, "rf_b": 7, "imm": 0})
    trace = sim.step(to_cpi(Instruction("ADDI", rs1=0, rd=1, imm=9)),
                     {"rf_a": 7, "rf_b": 7, "imm": 9})
    assert trace.datapath["eq"] == 1
    assert trace.controller["squash"] == 1
    assert trace.controller["squash_ctl"] == 1


def test_resolve_partial_leaves_unknowns(processor):
    sim = ProcessorSimulator(processor)
    externals = {
        net.name: None
        for net in processor.datapath.nets.values()
        if net.is_external_input
    }
    ctl, dp = sim.resolve({}, externals)
    # State-derived signals resolve, input-derived values stay unknown.
    assert ctl["wb_en"] is not None
    assert dp["ex_a.y"] is not None  # register output (state)
    assert dp["opa_mux.y"] is None or isinstance(dp["opa_mux.y"], int)


def test_run_length_mismatch_rejected(processor):
    sim = ProcessorSimulator(processor)
    with pytest.raises(ValueError):
        sim.run([{}], [])


def test_set_stimulus_state_validates(processor):
    sim = ProcessorSimulator(processor)
    with pytest.raises(ValueError):
        sim.set_stimulus_state({"nonexistent": 1})
    sim.set_stimulus_state({"ex_a": 42})
    assert sim.dp_sim.state["ex_a"] == 42


def test_reset(processor):
    sim = ProcessorSimulator(processor)
    sim.step(to_cpi(Instruction("ADDI", rs1=0, rd=1, imm=5)),
             {"rf_a": 1, "rf_b": 2, "imm": 5})
    sim.reset()
    assert sim.dp_sim.state["ex_a"] == 0
    assert sim.ctl_state == processor.controller.reset_state()


def test_traces_diverge_detects_difference(processor):
    program = [Instruction("ADDI", rs1=0, rd=1, imm=4)]
    cpi = [to_cpi(i) for i in program] + [to_cpi(Instruction("NOP"))] * 3
    dpi = [{"rf_a": 0, "rf_b": 0, "imm": i.imm} for i in program]
    dpi += [{"rf_a": 0, "rf_b": 0, "imm": 0}] * 3

    good = ProcessorSimulator(processor)
    error = BusSSLError("alu_add.y", 0, 1)
    bad_dp = error.attach(processor.datapath)
    bad = ProcessorSimulator(processor, injector=bad_dp.injector)
    g = good.run(cpi, dpi)
    b = bad.run(cpi, dpi)
    divergence = traces_diverge(processor, g, b)
    assert divergence is not None
    cycle, net = divergence
    assert net == "out"
    assert cycle == 2  # ADDI reaches write-back two cycles later


def _stimulus(imm):
    program = [Instruction("ADDI", rs1=0, rd=1, imm=imm)]
    cpi = [to_cpi(i) for i in program] + [to_cpi(Instruction("NOP"))] * 3
    dpi = [{"rf_a": 0, "rf_b": 0, "imm": i.imm} for i in program]
    dpi += [{"rf_a": 0, "rf_b": 0, "imm": 0}] * 3
    return cpi, dpi


def test_stimulus_key_is_order_insensitive():
    cpi, dpi = _stimulus(4)
    key = stimulus_key({"ex_a": 1, "ex_b": 2}, cpi, dpi)
    assert key == stimulus_key({"ex_b": 2, "ex_a": 1}, cpi, dpi)
    assert key != stimulus_key({"ex_a": 1, "ex_b": 3}, cpi, dpi)
    assert key != stimulus_key({"ex_a": 1, "ex_b": 2}, cpi, dpi[:-1])


def test_golden_cache_simulates_once_per_stimulus(processor):
    cpi, dpi = _stimulus(4)
    cache = GoldenTraceCache()
    first = cache.trace(processor, {}, cpi, dpi)
    again = cache.trace(processor, {}, cpi, dpi)
    assert again is first
    assert (cache.hits, cache.misses) == (1, 1)
    # The cached trace equals a fresh, uncached simulation.
    fresh = ProcessorSimulator(processor).run(cpi, dpi)
    assert [c.datapath for c in first.cycles] == \
        [c.datapath for c in fresh.cycles]
    # A different stimulus misses.
    cpi2, dpi2 = _stimulus(9)
    cache.trace(processor, {}, cpi2, dpi2)
    assert (cache.hits, cache.misses) == (1, 2)


def test_golden_cache_lru_eviction(processor):
    cache = GoldenTraceCache(max_entries=2)
    stimuli = [_stimulus(imm) for imm in (1, 2, 3)]
    for cpi, dpi in stimuli:
        cache.trace(processor, {}, cpi, dpi)
    assert len(cache._traces) == 2
    # Stimulus 1 was evicted (least recently used); 2 and 3 still hit.
    cache.trace(processor, {}, *stimuli[1])
    cache.trace(processor, {}, *stimuli[2])
    assert cache.hits == 2
    cache.trace(processor, {}, *stimuli[0])
    assert cache.misses == 4


def _single_dpo_trace(values):
    """A Trace whose only DPO net ("out") takes the given per-cycle values."""
    return Trace(cycles=[
        CycleTrace(datapath={"out": v}, controller={}) for v in values
    ])


def test_traces_diverge_ignores_unknown_values(processor):
    good = _single_dpo_trace([1, None, 3])
    bad = _single_dpo_trace([1, 9, None])
    # None (three-valued X) on either side is compatible with anything.
    assert traces_diverge(processor, good, bad) is None


def test_traces_diverge_truncates_to_shorter_trace(processor):
    good = _single_dpo_trace([1, 2, 3])
    bad = _single_dpo_trace([1, 2])
    assert traces_diverge(processor, good, bad) is None
    bad = _single_dpo_trace([1, 9])
    assert traces_diverge(processor, good, bad) == (1, "out")


def test_traces_diverge_on_final_cycle(processor):
    good = _single_dpo_trace([1, 2, 3])
    bad = _single_dpo_trace([1, 2, 4])
    assert traces_diverge(processor, good, bad) == (2, "out")


def _build_variant_minipipe():
    """A MiniPipe whose alu mux swaps add and sub: behaviourally different
    from the stock machine but accepting exactly the same stimulus."""
    from repro.datapath import DatapathBuilder
    from repro.mini.isa import WIDTH
    from repro.mini.machine import build_minipipe_controller
    from repro.model.processor import Processor

    b = DatapathBuilder("minipipe_variant_dp")
    b.set_stage(0)
    rf_a = b.input("rf_a", WIDTH)
    rf_b = b.input("rf_b", WIDTH)
    imm = b.input("imm", WIDTH)
    squash_ctl = b.ctrl("squash_ctl", 1)
    ex_a = b.register("ex_a", rf_a, clear=squash_ctl)
    ex_b = b.register("ex_b", rf_b, clear=squash_ctl)
    ex_imm = b.register("ex_imm", imm, clear=squash_ctl)
    b.set_stage(1)
    fwd_a = b.ctrl("fwd_a_ctl", 1)
    fwd_b = b.ctrl("fwd_b_ctl", 1)
    alusrc = b.ctrl("alusrc", 1)
    alu_op = b.ctrl("alu_op", 2)
    b.set_stage(2)
    wb_result = b.placeholder_register("wb_res", WIDTH)
    b.set_stage(1)
    opa = b.mux("opa_mux", fwd_a, ex_a, wb_result)
    opb_fwd = b.mux("opb_fwd_mux", fwd_b, ex_b, wb_result)
    opb = b.mux("opb_mux", alusrc, opb_fwd, ex_imm)
    add_r = b.add("alu_add", opa, opb)
    sub_r = b.sub("alu_sub", opa, opb)
    and_r = b.and_("alu_and", opa, opb)
    xor_r = b.xor("alu_xor", opa, opb)
    # The variant: add and sub trade mux ports.
    alu_out = b.mux("alu_mux", alu_op, sub_r, add_r, and_r, xor_r)
    b.status("eq", b.eq("cmp", opa, opb))
    b.set_stage(2)
    b.connect_register("wb_res", alu_out)
    wb_en = b.ctrl("wb_en", 1)
    zero = b.const("zero", WIDTH, 0)
    out = b.mux("out_mux", wb_en, zero, wb_result)
    b.output("out", out)
    variant = Processor(
        name="minipipe_variant",
        datapath=b.build(),
        controller=build_minipipe_controller(),
        n_stages=3,
        stimulus_registers=frozenset(),
        cpi_defaults={"op": 0, "rs1": 0, "rs2": 0, "rd": 0},
        cpi_dpi_bindings={},
    )
    variant.validate()
    return variant


def test_golden_cache_keyed_by_processor_identity(processor):
    """Two behaviourally-different machines sharing one cache must never
    receive each other's traces (regression: the key used to be the
    stimulus alone)."""
    variant = _build_variant_minipipe()
    cpi, dpi = _stimulus(4)
    cache = GoldenTraceCache()
    stock_trace = cache.trace(processor, {}, cpi, dpi)
    variant_trace = cache.trace(variant, {}, cpi, dpi)
    # Identical stimulus, but two misses: no cross-machine hit.
    assert (cache.hits, cache.misses) == (0, 2)
    # ADDI r1, r0, #4 retires at cycle 2: 0+4 on the stock machine, 0-4
    # (mod 256) on the swapped-alu variant.
    assert stock_trace.cycles[2].datapath["out"] == 4
    assert variant_trace.cycles[2].datapath["out"] == 252
    # Each machine still hits its own entry.
    cache.trace(processor, {}, cpi, dpi)
    cache.trace(variant, {}, cpi, dpi)
    assert (cache.hits, cache.misses) == (2, 2)


def test_two_tgs_sharing_one_golden_cache(processor):
    """A golden cache shared between two TGs for different machines gives
    the same verdicts as private caches."""
    from repro.core.tg import TestGenerator

    variant = _build_variant_minipipe()
    error = BusSSLError("alu_add.y", 0, 1)

    tg_stock = TestGenerator(processor)
    tg_shared = TestGenerator(variant, _golden=tg_stock._golden)
    tg_fresh = TestGenerator(variant)
    result_stock = tg_stock.generate(error)
    shared = tg_shared.generate(error)
    fresh = tg_fresh.generate(error)
    assert result_stock.status.value == "detected"
    assert shared.status == fresh.status
    assert shared.test == fresh.test


def test_traces_identical_when_error_inactive(processor):
    # Stuck-at-0 on a bit that is already 0 everywhere: no divergence.
    program = [Instruction("ADDI", rs1=0, rd=1, imm=0)]
    cpi = [to_cpi(i) for i in program] + [to_cpi(Instruction("NOP"))] * 3
    dpi = [{"rf_a": 0, "rf_b": 0, "imm": 0}] * 4
    good = ProcessorSimulator(processor)
    error = BusSSLError("alu_add.y", 5, 0)
    bad_dp = error.attach(processor.datapath)
    bad = ProcessorSimulator(processor, injector=bad_dp.injector)
    g = good.run(cpi, dpi)
    b = bad.run(cpi, dpi)
    assert traces_diverge(processor, g, b) is None


# ----------------------------------------------------------------------
# Controller evaluations per DLX cycle
# ----------------------------------------------------------------------
def _record_evaluations(monkeypatch, events):
    from repro.controller.network import ControlNetwork

    original = ControlNetwork.evaluate

    def evaluate(self, *args, **kwargs):
        events.append("evaluate")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ControlNetwork, "evaluate", evaluate)


def _record_sweeps(monkeypatch, owner, attr, events):
    original = getattr(owner, attr)

    def sweep(*args, **kwargs):
        events.append("datapath")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, sweep)


def _dlx_cycles():
    from repro.dlx.isa import NOP, Instruction, to_cpi as dlx_cpi

    program = [
        Instruction("ADDI", rs=1, rt=2, imm=4),
        Instruction("BEQZ", rs=2, imm=4),
        NOP,
    ]
    dpi = {"rf_a": 3, "rf_b": 3, "imm16": 4, "dmem_rdata": 0}
    return [(dlx_cpi(i), dpi) for i in program]


def test_dlx_step_evaluates_controller_once_per_fixpoint_iteration(
    monkeypatch,
):
    # Each fixpoint iteration evaluates the controller once, then sweeps
    # the datapath; the clock edge reuses the settled values.
    from repro.dlx import build_dlx

    sim = ProcessorSimulator(build_dlx())
    *warmup, (cpi, dpi) = _dlx_cycles()
    for frame in warmup:
        sim.step(*frame)
    events: list[str] = []
    _record_evaluations(monkeypatch, events)
    _record_sweeps(monkeypatch, sim.dp_sim, "evaluate_partial", events)
    sim.step(cpi, dpi)
    iterations = events.count("datapath")
    assert iterations >= 2  # the STS feedback needs a second sweep
    assert events == ["evaluate", "datapath"] * iterations


def test_dlx_lane_step_evaluates_controller_once_per_fixpoint_iteration(
    monkeypatch,
):
    # One lane evaluation covers every lane in each fixpoint iteration;
    # the clock edge reuses the settled codes.
    from repro.datapath.batched import HAS_NUMPY

    if not HAS_NUMPY:
        pytest.skip("numpy absent (batched backend unavailable)")
    from repro.dlx import build_dlx
    from repro.verify.lanes import LaneProcessorSimulator

    n_lanes = 3
    sim = LaneProcessorSimulator(build_dlx(), n_lanes)
    *warmup, (cpi, dpi) = _dlx_cycles()
    for frame_cpi, frame_dpi in warmup:
        sim.step([frame_cpi] * n_lanes, [frame_dpi] * n_lanes)
    events: list[str] = []
    _record_evaluations(monkeypatch, events)
    _record_sweeps(monkeypatch, sim.dp, "run_partial", events)
    _, failures = sim.step([cpi] * n_lanes, [dpi] * n_lanes)
    assert failures == {}
    iterations = events.count("datapath")
    assert iterations >= 2
    assert events == ["evaluate", "datapath"] * iterations


def _lane_ctl_state(sim, lane):
    """One lane's controller state, decoded from the simulator's codes."""
    kernel = sim.kernel
    return {
        q: kernel.domains[kernel.index[q]][int(codes[lane])]
        for q, codes in sim.ctl_state.items()
    }


def test_dlx_lane_x_d_input_fails_only_that_lane_like_the_scalar_step():
    # Lane 1 presents an instruction without its 'rd' field: the scalar
    # step raises from next_state.  The lane fails with the same text and
    # keeps its controller state; the other lanes match their scalar runs.
    from repro.datapath.batched import HAS_NUMPY

    if not HAS_NUMPY:
        pytest.skip("numpy absent (batched backend unavailable)")
    from repro.controller.network import ControlNetworkError
    from repro.dlx import build_dlx
    from repro.verify.lanes import LaneProcessorSimulator

    dlx = build_dlx()
    first, second, third = _dlx_cycles()
    no_rd = ({k: v for k, v in second[0].items() if k != "rd"}, second[1])
    streams = [
        [first, second, third],
        [first, no_rd, third],
        [second, third, first],
    ]
    sim = LaneProcessorSimulator(dlx, len(streams))
    scalars = [ProcessorSimulator(dlx) for _ in streams]
    for t in range(3):
        ctl_values, failures = sim.step(
            [stream[t][0] for stream in streams],
            [stream[t][1] for stream in streams],
        )
        for b, (stream, scalar) in enumerate(zip(streams, scalars)):
            if b == 1 and t >= 1:
                continue
            trace = scalar.step(*stream[t])
            assert ctl_values[b] == trace.controller
            assert dict(zip(sim.cd.names, sim.dense_datapath(b))) \
                == trace.datapath
            assert _lane_ctl_state(sim, b) == scalar.ctl_state
        if t == 1:
            before = dict(scalars[1].ctl_state)
            with pytest.raises(ControlNetworkError) as raised:
                scalars[1].step(*no_rd)
            assert str(raised.value).startswith(
                "CPR 'rd_id': D input 'rd' is X"
            )
            assert failures == {1: str(raised.value)}
            assert scalars[1].ctl_state == before
            assert _lane_ctl_state(sim, 1) == before
        else:
            assert failures == {}


@lru_cache(maxsize=None)
def _machine(which: str):
    from repro.dlx import build_dlx

    return {
        "mini": build_minipipe,
        "dlx": build_dlx,
        "dlx_bp": lambda: build_dlx(branch_prediction=True),
    }[which]()


@pytest.mark.parametrize("which", ["mini", "dlx", "dlx_bp"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lane_clock_matches_next_state(which, seed):
    # The lane CPR clock against PipelinedController.next_state, lane by
    # lane, on random states and random settled values: clear and a low
    # enable in one cycle, X D inputs under a hold or a clear, X enables
    # and clears.  A lane that raises fails with the message and keeps
    # its state.
    from repro.controller.network import ControlNetworkError
    from repro.datapath.batched import HAS_NUMPY

    if not HAS_NUMPY:
        pytest.skip("numpy absent (batched backend unavailable)")
    from repro.verify.lanes import LaneProcessorSimulator

    processor = _machine(which)
    controller = processor.controller
    signals = controller.network.signals
    rng = random.Random(seed)
    n_lanes = 16
    states = [
        {cpr.q: rng.choice(signals[cpr.q].domain) for cpr in controller.cprs}
        for _ in range(n_lanes)
    ]
    values = [
        {
            name: None if rng.random() < 0.2
            else rng.choice(signal.domain)
            for name, signal in signals.items()
        }
        for _ in range(n_lanes)
    ]
    sim = LaneProcessorSimulator(processor, n_lanes)
    kernel = sim.kernel
    sim.ctl_state = {
        q: kernel.encode(q, [state[q] for state in states])
        for q in states[0]
    }
    failures: dict[int, str] = {}
    sim._clock_controller(
        {
            name: kernel.encode(name, [v[name] for v in values])
            for name in signals
        },
        failures,
    )
    for b in range(n_lanes):
        try:
            expected = controller.next_state(states[b], values[b])
        except ControlNetworkError as exc:
            assert failures.get(b) == str(exc)
            assert _lane_ctl_state(sim, b) == states[b]
        else:
            assert b not in failures
            assert _lane_ctl_state(sim, b) == expected


def test_dlx_detects_early_stop_matches_full_run():
    # Matrix-style rows (seeded random programs, every error class): the
    # run stopped at the first divergent event gives the full run's
    # verdict, ends on an event the spec lacks at its index, and
    # simulates fewer cycles.
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx import build_dlx, detects
    from repro.dlx.env import DlxEnv
    from repro.dlx.spec import DlxSpec
    from repro.errors.models import (
        enumerate_boe,
        enumerate_bus_ssl,
        enumerate_mse,
    )

    dlx = build_dlx()
    dp = dlx.datapath
    errors = (enumerate_bus_ssl(dp, max_bits_per_net=4)
              + enumerate_mse(dp) + enumerate_boe(dp))[::23]
    generator = RandomDlxGenerator(RandomProgramConfig(length=12, seed=1))
    cycles = {"full": 0, "stopped": 0}
    hits = 0
    for k, error in enumerate(errors):
        program = generator.program(k % 4)
        regs = generator.initial_registers(k % 4)
        spec = DlxSpec().run(program, regs)
        runs = {}
        for mode, spec_events in (("full", None), ("stopped", spec.events)):
            injector, module_overrides = error.hooks(dp)
            env = DlxEnv(dlx, injector=injector,
                         module_overrides=module_overrides)
            events = env.run(program, regs, spec_events=spec_events).events
            runs[mode] = (events, len(env.trace.cycles))
            cycles[mode] += len(env.trace.cycles)
        full_detects = runs["full"][0] != spec.events
        assert detects(dlx, program, error, regs) == full_detects
        stopped, n_stopped = runs["stopped"]
        if full_detects:
            hits += 1
            k_last = len(stopped) - 1
            assert stopped[:k_last] == spec.events[:k_last]
            assert (k_last >= len(spec.events)
                    or stopped[k_last] != spec.events[k_last])
            assert n_stopped <= runs["full"][1]
        else:
            assert runs["stopped"] == runs["full"]
    assert 0 < hits < len(errors)
    assert cycles["stopped"] < cycles["full"]


def _dense(processor, trace):
    """A scalar trace's datapath values, per cycle by net id."""
    names = processor.datapath.compiled().names
    return [[cycle.datapath.get(n) for n in names] for cycle in trace.cycles]


@pytest.mark.parametrize("which", ["mini", "dlx", "dlx_bp"])
def test_resumed_machine_is_the_uninterrupted_one(which):
    # A fault-free machine resumed from the golden's saved state at the
    # start of any cycle, and never handed back, finishes the program
    # exactly as the uninterrupted run does: the same events, registers,
    # memory and trace, each cycle's testbench save and stimulus and the
    # final save included.  The
    # branch-heavy programs move the DLX+BP fetch unit's shadow pipe.
    from repro.baselines.random_gen import RandomProgramConfig
    from repro.machines import machine_adapter

    class Uninterrupted(Excursion):
        def rejoins(self, cycle, sim, save):
            return False

    def cycles(trace):
        return [(c.controller, c.datapath, c.bench, c.stimulus)
                for c in trace.cycles] + [trace.final_bench]

    machine = machine_adapter(which)
    processor = _machine(which)
    generator = machine.generator_cls(RandomProgramConfig(
        length=12, seed=7,
        opcode_weights={"BEQZ": 6, "BNEZ": 6, "J": 4, "JAL": 2, "BEQ": 6},
    ))
    for index in range(20):
        program = generator.program(index)
        regs = generator.initial_registers(index)
        env = machine.scalar_env(processor)
        golden = machine.canonical(env.run(program, regs))
        trace = env.trace
        dense = _dense(processor, trace)
        bench = env.testbench_for(program, regs)
        for t in range(len(trace.cycles)):
            resume = Uninterrupted(trace, dense, t, {}, bench)
            result = env.run(program, regs, resume=resume)
            assert machine.canonical(result) == golden, (index, t)
            assert cycles(env.trace) == cycles(trace)[t:], (index, t)


def test_dlx_rejoin_compares_registers_controller_state_and_testbench():
    # A bad machine rejoins the golden run at the start of cycle c only
    # when its whole state equals the golden's there.  From the golden
    # state at c, one datapath register, one controller-state value or
    # the testbench's save alone keeps it from rejoining.
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx.env import DlxEnv

    dlx = _machine("dlx")
    generator = RandomDlxGenerator(RandomProgramConfig(length=12, seed=3))
    program, regs = generator.program(0), generator.initial_registers(0)
    env = DlxEnv(dlx)
    env.run(program, regs)
    trace = env.trace
    dense = _dense(dlx, trace)
    c = len(trace.cycles) // 2
    sim, bench = env.sim, env.testbench_for(program, regs)
    excursion = Excursion(trace, dense, 0, {}, bench)
    Excursion(trace, dense, c, {}, bench).restore(sim, bench)
    save = bench.save()
    assert excursion.rejoins(c, sim, save)

    state = sim.dp_sim.state
    for register in dlx.datapath.compiled().reg_names:
        value = state[register]
        state[register] = value ^ 1
        assert not excursion.rejoins(c, sim, save), register
        state[register] = value

    signals = dlx.controller.network.signals
    for q, value in sim.ctl_state.items():
        other = next((v for v in signals[q].domain if v != value), None)
        if other is None:
            continue
        sim.ctl_state[q] = other
        assert not excursion.rejoins(c, sim, save), q
        sim.ctl_state[q] = value

    bench.regs[1] ^= 1
    assert bench.save() != save
    assert not excursion.rejoins(c, sim, bench.save())
    assert excursion.rejoins(c, sim, save)


def test_testbench_judge_replays_the_bad_testbench_cycle():
    # The judge replays one cycle of the bad machine's testbench from the
    # golden's save.  On the golden's own values it sees nothing at any
    # cycle; a recorded stimulus, next save or final save that differs
    # from the replay's is a touch; a commit the specification lacks is
    # detected.  On the DLX+BP a flipped branch outcome (the zero STS)
    # redirects the fetch unit, which the judge sees only if its preview
    # reads the bad machine's STS values.
    import dataclasses

    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx.env import DlxEnv
    from repro.dlx.spec import DlxSpec

    def moved(save):
        regs = list(save[0])
        regs[1] ^= 1
        return (tuple(regs),) + save[1:]

    dlx = _machine("dlx_bp")
    generator = RandomDlxGenerator(RandomProgramConfig(
        length=12, seed=7, opcode_weights={"BEQZ": 6, "BNEZ": 6, "J": 2},
    ))
    redirects = 0
    for index in range(4):
        program = generator.program(index)
        regs = generator.initial_registers(index)
        env = DlxEnv(dlx)
        env.run(program, regs)
        trace = env.trace
        bench = env.testbench_for(
            program, regs, spec_events=DlxSpec().run(program, regs).events,
        )
        judge = TestbenchJudge(dlx, trace, bench)

        def values(t, **bad):
            cycle = trace.cycles[t]
            seen = {name: cycle.controller[name]
                    for name in dlx.controller.sts_signals}
            seen.update((name, cycle.datapath[name])
                        for name in judge.preview_nets)
            seen.update(bad)
            return seen

        def judged(t, cycles=trace.cycles, final=trace.final_bench,
                   bench=bench):
            golden = Trace(list(cycles), final)
            return TestbenchJudge(dlx, golden, bench)(t, values(t))

        last = len(trace.cycles) - 1
        for t in range(last + 1):
            assert judge(t, values(t)) is None, (index, t)
            zero = trace.cycles[t].controller["zero"]
            if zero is not None:
                redirects += judge(t, values(t, zero=1 - zero)) == "touch"

        t = last // 2
        cycles = list(trace.cycles)
        cycles[t] = dataclasses.replace(cycles[t], stimulus=None)
        assert judged(t, cycles) == "touch"
        cycles = list(trace.cycles)
        cycles[t + 1] = dataclasses.replace(
            cycles[t + 1], bench=moved(cycles[t + 1].bench),
        )
        assert judged(t, cycles) == "touch"
        assert judged(last, final=moved(trace.final_bench)) == "touch"
        commits = next(
            t for t in range(last)
            if trace.cycles[t].bench[2] != trace.cycles[t + 1].bench[2]
        )
        unspecified = env.testbench_for(program, regs, spec_events=[])
        assert judged(commits, bench=unspecified) == "detected"
    assert redirects
