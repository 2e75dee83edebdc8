"""Width-masking semantics pinned identically across datapath backends.

Every value stored for a net must lie inside the net's width — whatever
the environment, injector or module override handed the simulator.  The
contract (shared by the interpretive, scalar-compiled and batched numpy
backends):

* externals are masked to the net width at *emission*, before injection;
* injector and override results are masked to the output net's width;
* register state set through ``set_stimulus_state`` is masked to the
  register width.

The batched backend cannot tolerate out-of-range values at all (uint64
lane arrays refuse negative or oversized Python ints), which is what
turned the historical "environments always pass in-range values"
assumption into an enforced invariant.  These tests drive out-of-range
stimulus through every backend and assert bit-identical, in-range
results — including full-width 64-bit arithmetic at the wraparound
boundaries.

The compiled and batched backends evaluate three-valued only.  Where the
interpretive ``evaluate`` is the reference, their partial evaluation
runs on frames that set every external: with every input known, partial
and full evaluation agree.
"""

import pytest

from repro.datapath import (
    HAS_NUMPY,
    CompiledDatapathSimulator,
    DatapathBuilder,
    DatapathSimulator,
)
from tests.helpers import batched_lane_values, build_toy_pipeline

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy absent (batched backend unavailable)"
)

#: Every external of the toy pipeline, all out of range: too wide,
#: negative, absurdly wide, and an out-of-range 1-bit control.
OUT_OF_RANGE = {
    "a": 0x1FF,          # 9 bits into an 8-bit net
    "b": -1,             # negative
    "c": (1 << 70) + 5,  # way past any width
    "alusrc": 2,         # 2 into a 1-bit control
    "op": 0,
    "wbsel": 1,
}


def _in_range(netlist, values):
    for name, value in values.items():
        if value is None:
            continue
        assert 0 <= value < (1 << netlist.nets[name].width), name


def test_concrete_out_of_range_externals():
    netlist = build_toy_pipeline()
    interp = DatapathSimulator(netlist).evaluate(OUT_OF_RANGE)
    compiled = CompiledDatapathSimulator(netlist).evaluate_partial(
        OUT_OF_RANGE
    )
    assert compiled == interp
    _in_range(netlist, interp)
    assert interp["a"] == 0xFF  # 0x1FF & 0xFF
    assert interp["b"] == 0xFF  # -1 masked
    assert interp["c"] == 5
    assert interp["alusrc"] == 0  # 2 & 1


def test_partial_out_of_range_externals():
    netlist = build_toy_pipeline()
    frame = {"a": 0x1FF, "b": -2, "alusrc": 3, "op": 0}
    interp = DatapathSimulator(netlist).evaluate_partial(frame)
    compiled = CompiledDatapathSimulator(netlist).evaluate_partial(frame)
    assert compiled == interp
    _in_range(netlist, interp)
    assert interp["b"] == 0xFE
    assert interp["c"] is None  # genuinely unknown, not masked-to-0


def test_injector_result_masked():
    netlist = build_toy_pipeline()

    def overflowing(net, value):
        return value + 0x100 if net == "alu_add.y" else value

    frame = {"a": 9, "b": 4, "c": 0, "alusrc": 0, "op": 0, "wbsel": 0}
    interp = DatapathSimulator(netlist, injector=overflowing).evaluate(frame)
    compiled = CompiledDatapathSimulator(
        netlist, injector=overflowing
    ).evaluate_partial(frame)
    assert compiled == interp
    _in_range(netlist, interp)
    assert interp["alu_add.y"] == 13  # +0x100 masked away


def test_injector_on_external_masked():
    netlist = build_toy_pipeline()

    def negate(net, value):
        return -value if net == "a" else value

    frame = {"a": 1, "b": 0, "c": 0, "alusrc": 0, "op": 0, "wbsel": 0}
    interp = DatapathSimulator(netlist, injector=negate).evaluate(frame)
    compiled = CompiledDatapathSimulator(
        netlist, injector=negate
    ).evaluate_partial(frame)
    assert compiled == interp
    assert interp["a"] == 0xFF  # -1 masked to width


@pytest.mark.parametrize("partial", [False, True])
def test_override_result_masked(partial):
    netlist = build_toy_pipeline()
    overrides = {"alu_add": lambda ins, ctl: ins[0] - ins[1]}  # can go < 0
    frame = {"a": 1, "b": 9, "c": 0, "alusrc": 0, "op": 0, "wbsel": 0}
    interp_sim = DatapathSimulator(netlist, module_overrides=overrides)
    compiled = CompiledDatapathSimulator(netlist, module_overrides=overrides)
    if partial:
        interp = interp_sim.evaluate_partial(frame)
    else:
        interp = interp_sim.evaluate(frame)
    assert compiled.evaluate_partial(frame) == interp
    _in_range(netlist, interp)
    assert interp["alu_add.y"] == (1 - 9) & 0xFF


def test_set_stimulus_state_masks_to_register_width():
    from repro.mini import build_minipipe
    from repro.verify import ProcessorSimulator

    processor = build_minipipe()
    sim = ProcessorSimulator(processor)
    reg_name = next(iter(sim.dp_sim.state))
    width = processor.datapath.module(reg_name).width
    sim.set_stimulus_state({reg_name: (1 << 70) | 5})
    assert sim.dp_sim.state[reg_name] == ((1 << 70) | 5) & ((1 << width) - 1)
    with pytest.raises(ValueError):
        sim.set_stimulus_state({"no_such_register": 0})


# ----------------------------------------------------------------------
# Full-width (64-bit) arithmetic at the wraparound boundaries
# ----------------------------------------------------------------------
def build_wide64():
    b = DatapathBuilder("wide64")
    b.set_stage(0)
    x = b.input("x", 64)
    y = b.input("y", 64)
    s = b.input("s", 7)  # shift amounts 0..127 — includes >= 64
    b.output("sum", b.add("add", x, y))
    b.output("diff", b.sub("sub", x, y))
    b.output("prod", b.mult("mul", x, y))
    b.output("sl", b.shl("shl", x, s))
    b.output("srl", b.shr("shr", x, s))
    b.output("sar", b.sra("sra", x, s))
    b.output("lt_s", b.lt("slt", x, y))
    b.output("inv", b.not_("neg", x))
    return b.build()


TOP = (1 << 64) - 1
WIDE_FRAMES = [
    {"x": TOP, "y": 1, "s": 0},           # add wraps to 0
    {"x": 0, "y": 1, "s": 63},            # sub wraps to TOP
    {"x": 1 << 63, "y": 1 << 63, "s": 1},  # mult wraps; signed lt ties
    {"x": TOP, "y": 1 << 63, "s": 64},     # shift amount == width
    {"x": 1 << 63, "y": TOP, "s": 100},    # shift amount > width
    {"x": 0xDEADBEEFCAFEF00D, "y": 0x0123456789ABCDEF, "s": 33},
]


def test_width64_scalar_backends_agree():
    netlist = build_wide64()
    compiled = CompiledDatapathSimulator(netlist)
    for frame in WIDE_FRAMES:
        interp = DatapathSimulator(netlist).evaluate(frame)
        assert compiled.evaluate_partial(frame) == interp, frame
        _in_range(netlist, interp)
    # Spot-check the boundary semantics themselves.
    wrap = DatapathSimulator(netlist).evaluate({"x": TOP, "y": 1, "s": 64})
    assert wrap["sum"] == 0
    assert wrap["sl"] == 0 and wrap["srl"] == 0  # shift-by-width -> 0
    assert wrap["sar"] == TOP  # arithmetic shift saturates at the sign


@requires_numpy
def test_width64_batched_matches_scalar():
    from repro.datapath import BatchedDatapathSimulator

    netlist = build_wide64()
    batch = BatchedDatapathSimulator(netlist, len(WIDE_FRAMES))
    lanes = batched_lane_values(batch, WIDE_FRAMES)
    for frame, lane in zip(WIDE_FRAMES, lanes):
        assert lane == DatapathSimulator(netlist).evaluate(frame), frame


@requires_numpy
def test_batched_out_of_range_externals_match_scalar():
    from repro.datapath import BatchedDatapathSimulator

    netlist = build_toy_pipeline()
    frames = [
        OUT_OF_RANGE,
        {"a": -7, "b": 300, "c": 1, "alusrc": 1, "op": 1, "wbsel": 0},
        {"a": 0, "b": 0, "c": 0, "alusrc": 0, "op": 0, "wbsel": 0},
    ]
    batch = BatchedDatapathSimulator(netlist, len(frames))
    lanes = batched_lane_values(batch, frames)
    for frame, lane in zip(frames, lanes):
        assert lane == DatapathSimulator(netlist).evaluate(frame), frame


@requires_numpy
def test_batched_partial_out_of_range_match_scalar():
    from repro.datapath import BatchedDatapathSimulator

    netlist = build_toy_pipeline()
    frames = [
        {"a": 0x1FF, "b": -2, "alusrc": 3, "op": 0},
        {"a": 5},
        {"b": -1, "alusrc": 1, "op": 0},
    ]
    batch = BatchedDatapathSimulator(netlist, len(frames))
    lanes = batched_lane_values(batch, frames)
    for frame, lane in zip(frames, lanes):
        assert lane == DatapathSimulator(netlist).evaluate_partial(frame), \
            frame
