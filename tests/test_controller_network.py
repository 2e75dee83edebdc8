"""Tests for the controller network, pipelined controller and unrolling."""

import pytest

from repro.controller import (
    AndNode,
    BufNode,
    ControlNetworkError,
    InSetNode,
    NotNode,
    OrNode,
    PipeRegister,
    PipelinedController,
    Signal,
    SignalKind,
    bit_signal,
    field_signal,
    instance_name,
)


def build_small_network():
    """c = a AND b; d = NOT c."""
    from repro.controller.network import ControlNetwork

    net = ControlNetwork("small")
    net.add_signal(bit_signal("a", SignalKind.CPI))
    net.add_signal(bit_signal("b", SignalKind.CPI))
    net.add_signal(bit_signal("c"))
    net.add_signal(bit_signal("d", SignalKind.CTRL))
    net.drive("c", AndNode(["a", "b"]))
    net.drive("d", NotNode("c"))
    return net


def test_evaluate_full_assignment():
    net = build_small_network()
    values = net.evaluate({"a": 1, "b": 1})
    assert values["c"] == 1 and values["d"] == 0


def test_evaluate_with_unknowns():
    net = build_small_network()
    values = net.evaluate({"a": 0})
    assert values["c"] == 0 and values["d"] == 1
    values = net.evaluate({"a": 1})
    assert values["c"] is None and values["d"] is None


def test_evaluate_with_override():
    net = build_small_network()
    values = net.evaluate({}, overrides={"c": 1})
    assert values["d"] == 0  # downstream consumes the decided value


def test_consistency_classification():
    net = build_small_network()
    # Decide c=1; with a=1,b=1 the cone computes 1 -> justified.
    _, justified, conflicting = net.consistency({"a": 1, "b": 1}, {"c": 1})
    assert justified == ["c"] and conflicting == []
    # With a=0 the cone computes 0 -> conflict.
    _, justified, conflicting = net.consistency({"a": 0}, {"c": 1})
    assert conflicting == ["c"]
    # With everything unknown the decision is still open.
    _, justified, conflicting = net.consistency({}, {"c": 1})
    assert justified == [] and conflicting == []


def test_duplicate_signal_rejected():
    net = build_small_network()
    with pytest.raises(ControlNetworkError):
        net.add_signal(bit_signal("a"))


def test_double_drive_rejected():
    net = build_small_network()
    with pytest.raises(ControlNetworkError):
        net.drive("c", OrNode(["a", "b"]))


def test_unknown_input_signal_rejected():
    net = build_small_network()
    net.add_signal(bit_signal("e"))
    with pytest.raises(ControlNetworkError):
        net.drive("e", BufNode("nonexistent"))


def test_cycle_detection():
    from repro.controller.network import ControlNetwork

    net = ControlNetwork("cyclic")
    net.add_signal(bit_signal("x"))
    net.add_signal(bit_signal("y"))
    net.drive("x", BufNode("y"))
    net.drive("y", BufNode("x"))
    with pytest.raises(ControlNetworkError):
        net.topological_order()


def test_external_signals():
    net = build_small_network()
    assert set(net.external_signals()) == {"a", "b"}


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        Signal("bad", ())


def test_duplicate_domain_rejected():
    with pytest.raises(ValueError):
        Signal("bad", (1, 1))


# ---------------------------------------------------------------------------
# A 2-stage pipelined controller used by several tests:
#
#   stage 0: decodes op (domain 0..3) -> is_load; CPR carries is_load to
#   stage 1; a tertiary 'stall' is computed from stage-1 state and feeds
#   back to gate the stage-0 CPR.
# ---------------------------------------------------------------------------
def build_two_stage():
    ctl = PipelinedController("two_stage", n_stages=2)
    ctl.add_signal(field_signal("op", (0, 1, 2, 3), SignalKind.CPI, stage=0))
    ctl.add_signal(bit_signal("is_load", stage=0))
    ctl.add_signal(bit_signal("is_load_ex", SignalKind.CSI, stage=1))
    ctl.add_signal(bit_signal("stall", SignalKind.CTI, stage=0))
    ctl.add_signal(bit_signal("not_stall", stage=0))
    ctl.add_signal(bit_signal("write_en", SignalKind.CTRL, stage=1))
    ctl.drive("is_load", InSetNode("op", {2, 3}))
    ctl.drive("stall", BufNode("is_load_ex"))
    ctl.drive("not_stall", NotNode("stall"))
    ctl.drive("write_en", BufNode("is_load_ex"))
    ctl.add_cpr(
        PipeRegister(
            q="is_load_ex", d="is_load", stage=1, reset=0, enable="not_stall"
        )
    )
    ctl.validate()
    return ctl


def test_two_stage_classification():
    ctl = build_two_stage()
    assert ctl.cpi_signals == ("op",)
    assert ctl.cti_signals == ("stall",)
    assert ctl.ctrl_signals == ("write_en",)
    assert ctl.csi_signals == ["is_load_ex"]


def test_state_and_tertiary_bits():
    ctl = build_two_stage()
    assert ctl.state_bits() == 1
    assert ctl.tertiary_bits() == 1
    stats = ctl.search_space_stats()
    assert stats["cpi_bits"] == 2  # op has 4 values -> 2 bits
    assert stats["timeframe_decision_bits"] == 3
    assert stats["pipeframe_decision_bits"] == 3


def test_simulate_cycle_pipeline_flow():
    ctl = build_two_stage()
    state = ctl.reset_state()
    values, state = ctl.simulate_cycle(state, {"op": 2})  # a load enters
    assert values["is_load"] == 1 and values["stall"] == 0
    assert state["is_load_ex"] == 1
    # Next cycle the load is in stage 1 and stalls stage 0.
    values, state2 = ctl.simulate_cycle(state, {"op": 0})
    assert values["stall"] == 1
    assert values["write_en"] == 1
    # The CPR was stalled (enable low), so it held its value.
    assert state2["is_load_ex"] == 1


def test_cpr_output_must_be_csi():
    ctl = PipelinedController("bad", 1)
    ctl.add_signal(bit_signal("q"))  # INTERNAL, not CSI
    ctl.add_signal(bit_signal("d", SignalKind.CPI))
    with pytest.raises(ControlNetworkError):
        ctl.add_cpr(PipeRegister(q="q", d="d", stage=0))


def test_validate_rejects_floating_internal():
    ctl = PipelinedController("bad", 1)
    ctl.add_signal(bit_signal("x"))  # undriven INTERNAL
    with pytest.raises(ControlNetworkError):
        ctl.validate()


def test_reset_out_of_domain_rejected():
    ctl = PipelinedController("bad", 1)
    ctl.add_signal(field_signal("q", (0, 1), SignalKind.CSI))
    ctl.add_signal(bit_signal("d", SignalKind.CPI))
    with pytest.raises(ValueError):
        ctl.add_cpr(PipeRegister(q="q", d="d", stage=0, reset=9))


# ---------------------------------------------------------------------------
# Unrolling
# ---------------------------------------------------------------------------
def test_unroll_structure():
    ctl = build_two_stage()
    unrolled = ctl.unroll(3)
    net = unrolled.network
    # Frame 0 CSI is the reset constant.
    values = net.evaluate({})
    assert values[instance_name(0, "is_load_ex")] == 0
    # All instances exist.
    for t in range(3):
        assert instance_name(t, "op") in net.signals


def test_unroll_concrete_agrees_with_simulation():
    ctl = build_two_stage()
    unrolled = ctl.unroll(4)
    ops = [2, 0, 3, 1]
    assignment = {instance_name(t, "op"): op for t, op in enumerate(ops)}
    values = unrolled.network.evaluate(assignment)

    state = ctl.reset_state()
    for t, op in enumerate(ops):
        cycle_values, state = ctl.simulate_cycle(state, {"op": op})
        for sig in ("is_load", "stall", "write_en", "is_load_ex"):
            assert values[instance_name(t, sig)] == cycle_values[sig], (
                f"mismatch at t={t} signal {sig}"
            )


def test_unroll_partial_inputs_leave_x():
    ctl = build_two_stage()
    unrolled = ctl.unroll(2)
    values = unrolled.network.evaluate({})
    # Frame 0 state is known (reset), so frame-0 stall is 0.
    assert values[instance_name(0, "stall")] == 0
    # Frame 1 state depends on the unknown op, so it is X.
    assert values[instance_name(1, "stall")] is None


def test_decision_instances():
    ctl = build_two_stage()
    unrolled = ctl.unroll(2)
    decisions = unrolled.decision_instances()
    assert instance_name(0, "op") in decisions
    assert instance_name(1, "stall") in decisions
    timeframe = unrolled.timeframe_decision_instances()
    assert instance_name(1, "is_load_ex") in timeframe


def test_unroll_rejects_zero_frames():
    ctl = build_two_stage()
    with pytest.raises(ValueError):
        ctl.unroll(0)


def test_instance_bounds_check():
    ctl = build_two_stage()
    unrolled = ctl.unroll(2)
    with pytest.raises(ValueError):
        unrolled.instance(5, "op")
    assert unrolled.frame_and_signal("1:op") == (1, "op")
