"""Differential tests for the incremental implication engine.

The contract of :class:`ImplicationSession` is exact equivalence with the
full-sweep oracle: after any sequence of ``assume``/``retract`` operations
the session's values and justified / conflicting classifications must be
bit-identical to a fresh ``ControlNetwork.consistency`` sweep over the
same assignment and overrides.  The tests below drive random operation
sequences on the two-stage toy, the MiniPipe controller, and the DLX
controller, and additionally demand that CTRLJUST reaches bit-identical
outcomes (status, assignment, CTI values, implied values, backtracks,
decisions, the refutation probe's backjumps) through the incremental and
full-sweep backends, also under the refutation-probe setting campaigns
use.  Every frame of every unrolled window must read its source node's
compiled table object, and an out-of-domain ``assume`` must leave the
session unchanged.

The generated evaluate kernel (``CompiledNetwork.kernel``, what
``ControlNetwork.evaluate`` runs without overrides) is held to the same
sweep on random partial assignments of the four controllers the
co-simulators run, including DLX with branch prediction, and
``PipelinedController.next_state`` to the clock edge of
``simulate_cycle``.  The lane kernel (``CompiledNetwork.lane_kernel``,
what ``ControlNetwork.evaluate(..., lanes=n)`` runs) is held lane by lane
to the scalar kernel on the same four controllers.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.implication import (
    CompiledNetwork,
    ImplicationSession,
)
from repro.controller.network import ControlNetworkError
from repro.controller.nodes import AndNode, BufNode, InSetNode, NotNode
from repro.controller.pipeline import PipelinedController
from repro.controller.signals import SignalKind, bit_signal, field_signal
from repro.core.ctrljust import CtrlJust, JustStatus
from repro.datapath.batched import HAS_NUMPY
from repro.dlx.controller import build_dlx_controller
from repro.mini.machine import build_minipipe_controller
from tests.test_controller_network import build_two_stage


@lru_cache(maxsize=None)
def _unrolled(which: str, n_frames: int):
    builder = {
        "two_stage": build_two_stage,
        "mini": build_minipipe_controller,
        "dlx": build_dlx_controller,
    }[which]
    return builder().unroll(n_frames)


def _mirror(unrolled, stack):
    """Split the mirrored decision stack into (assignment, overrides)."""
    compiled = unrolled.compiled()
    assignment: dict[str, int] = {}
    overrides: dict[str, int] = {}
    for name, value in stack:
        if compiled.is_driven[compiled.index[name]]:
            overrides[name] = value
        else:
            assignment[name] = value
    return assignment, overrides


def _assert_matches_oracle(unrolled, session, stack):
    assignment, overrides = _mirror(unrolled, stack)
    values, justified, conflicting = unrolled.network.consistency(
        assignment, overrides
    )
    assert session.snapshot() == values
    assert session.justified_names == set(justified)
    assert session.conflicting_names == set(conflicting)
    assert session.has_conflict == bool(conflicting)
    assert session.depth == len(stack)


def _random_walk(unrolled, rng, n_ops, check_every=1, session=None):
    """Drive a random assume/retract sequence on ``session`` (a fresh one
    by default), checking against the oracle every ``check_every``
    operations and once at the end."""
    decisions = unrolled.decision_instances()
    signals = unrolled.network.signals
    if session is None:
        session = unrolled.session()
    stack = []
    for op in range(n_ops):
        if stack and rng.random() < 0.4:
            session.retract()
            stack.pop()
        else:
            name = rng.choice(decisions)
            value = rng.choice(signals[name].domain)
            session.assume(name, value)
            stack.append((name, value))
        if (op + 1) % check_every == 0:
            _assert_matches_oracle(unrolled, session, stack)
    _assert_matches_oracle(unrolled, session, stack)
    # Rewinding the whole trail restores the empty-assignment fixpoint.
    while stack:
        session.retract()
        stack.pop()
    _assert_matches_oracle(unrolled, session, stack)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_stage_session_matches_full_sweep(seed):
    _random_walk(_unrolled("two_stage", 4), random.Random(seed), n_ops=30)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_minipipe_session_matches_full_sweep(seed):
    _random_walk(_unrolled("mini", 4), random.Random(seed), n_ops=25)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dlx_session_matches_full_sweep(seed):
    # The DLX full sweep is the expensive side; check every 4th op.
    _random_walk(
        _unrolled("dlx", 4), random.Random(seed), n_ops=16, check_every=4
    )


def test_dlx_walk_reads_self_filling_and_one_input_tables():
    # The walk's session runs on its own compilation of the network, whose
    # key functions record the nodes the session evaluates; the oracle
    # keeps the network's cached compilation.
    unrolled = _unrolled("dlx", 6)
    compiled = CompiledNetwork(unrolled.network)
    session = ImplicationSession(compiled)
    evaluated = set()

    def recording(out, key):
        def read_key(values):
            evaluated.add(out)
            return key(values)
        return read_key

    compiled.key_of = [
        key if key is None else recording(out, key)
        for out, key in enumerate(compiled.key_of)
    ]
    _random_walk(unrolled, random.Random(11), n_ops=30, check_every=10,
                 session=session)
    # Above EVAL_TABLE_LIMIT: no tuple-keyed table, a self-filling one.
    assert any(compiled.eval_table[out] is None for out in evaluated)
    assert any(len(compiled.inputs_of[out]) == 1 for out in evaluated)


@pytest.mark.parametrize("value", [999, None])
def test_assume_outside_the_domain_leaves_the_session_unchanged(value):
    unrolled = _unrolled("dlx", 5)
    session = unrolled.session()
    session.assume("1:op", unrolled.network.signals["1:op"].domain[1])
    before = session.snapshot()
    with pytest.raises(ControlNetworkError, match="outside the domain"):
        session.assume("0:op", value)
    assert session.depth == 1
    assert session.snapshot() == before
    # Propagation still works after the rejected assume.
    stack = [("1:op", before["1:op"]), ("0:op", 0)]
    session.assume("0:op", 0)
    _assert_matches_oracle(unrolled, session, stack)
    session.retract()
    assert session.snapshot() == before


def test_assume_same_signal_twice_then_retract():
    unrolled = _unrolled("two_stage", 4)
    session = unrolled.session()
    session.assume("1:op", 2)
    session.assume("1:op", 0)
    _assert_matches_oracle(unrolled, session, [("1:op", 2), ("1:op", 0)])
    session.retract()
    _assert_matches_oracle(unrolled, session, [("1:op", 2)])
    session.retract()
    _assert_matches_oracle(unrolled, session, [])


def test_cut_cti_classification_transitions():
    # Cutting stall@2 to 1 is open until the cone justifies or refutes it.
    unrolled = _unrolled("two_stage", 4)
    session = unrolled.session()
    session.assume("2:stall", 1)
    assert not session.is_justified("2:stall")
    assert not session.has_conflict
    session.assume("0:op", 0)  # no load at frame 0: no stall at frame 1
    assert not session.is_justified("2:stall")  # frame-1 op still X
    session.assume("1:op", 2)  # load at frame 1 -> is_load_ex@2 = 1
    assert session.is_justified("2:stall")
    assert session.justified_names == {"2:stall"}
    session.retract()
    session.assume("1:op", 0)  # non-load -> cone computes 0, decided 1
    assert session.conflicting_names == {"2:stall"}
    assert session.has_conflict
    session.retract()
    assert not session.has_conflict
    assert not session.is_justified("2:stall")


def test_retract_without_assume_raises():
    session = _unrolled("two_stage", 4).session()
    with pytest.raises(IndexError):
        session.retract()


def test_base_assignment_seeds_externals():
    unrolled = _unrolled("two_stage", 4)
    session = unrolled.session({"1:op": 2})
    oracle = unrolled.network.evaluate({"1:op": 2})
    assert session.snapshot() == oracle
    assert session.value("1:is_load") == 1


def test_compiled_network_levels_and_fanout():
    unrolled = _unrolled("two_stage", 4)
    compiled = unrolled.compiled()
    assert isinstance(compiled, CompiledNetwork)
    # Compilation is cached on the network.
    assert unrolled.compiled() is compiled
    # Levels strictly increase along every driven edge.
    for out in compiled.topo_ids:
        for i in compiled.inputs_of[out]:
            assert compiled.level[i] < compiled.level[out]
            assert out in compiled.fanout[i]
    # Externals sit at level 0 and have no driver.
    for i in compiled.external_ids:
        assert compiled.level[i] == 0
        assert compiled.node_of[i] is None


def test_sweep_matches_evaluate_with_unknown_override():
    # evaluate historically ignored override names absent from the
    # network; the compiled sweep must preserve that.
    unrolled = _unrolled("two_stage", 4)
    values = unrolled.network.evaluate(
        {"1:op": 3}, {"2:stall": 1, "no_such_signal": 1}
    )
    assert values["2:stall"] == 1
    assert "no_such_signal" not in values


# ----------------------------------------------------------------------
# CTRLJUST backend identity: incremental vs full-sweep reference
# ----------------------------------------------------------------------
def _result_tuple(result):
    return (
        result.status,
        result.assignment,
        result.cti_values,
        result.implied,
        result.backtracks,
        result.decisions,
        result.backjumps,
    )


def _assert_backends_identical(unrolled, objectives, **kwargs):
    fast = CtrlJust(unrolled, incremental=True, **kwargs).justify(objectives)
    slow = CtrlJust(unrolled, incremental=False, **kwargs).justify(objectives)
    assert _result_tuple(fast) == _result_tuple(slow), \
        (unrolled.n_frames, kwargs)
    return fast


@pytest.mark.parametrize("objectives", [
    [],
    [("2:write_en", 1)],
    [("2:write_en", 0)],
    [("0:write_en", 1)],
    [("2:write_en", 1), ("2:stall", 0)],
    [("2:stall", 1), ("3:stall", 1)],
    [("3:stall", 1)],
])
def test_two_stage_backends_identical(objectives):
    _assert_backends_identical(_unrolled("two_stage", 4), objectives)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_minipipe_backends_identical_random_objectives(seed):
    rng = random.Random(seed)
    unrolled = _unrolled("mini", 5)
    signals = unrolled.network.signals
    candidates = [
        name for name, sig in signals.items()
        if sig.kind in (SignalKind.CTRL, SignalKind.CTI) and
        name in unrolled.network.drivers
    ]
    objectives = []
    for name in rng.sample(candidates, rng.randint(1, 3)):
        objectives.append((name, rng.choice(signals[name].domain)))
    _assert_backends_identical(unrolled, objectives)


#: CTRLJUST settings the DLX identity runs under: the defaults, and what
#: campaigns run (the refutation probe with
#: ``repro.core.tg.REFUTE_CONFLICT_LIMIT`` conflicts).
_DLX_SEARCHES = ({}, {"refute_conflicts": 24})


@pytest.mark.parametrize("objectives", [
    [("4:regwrite_g_ctl", 1)],
    [("4:memwrite_ctl", 1)],
    [("3:stall", 1)],
    [("4:regwrite_g_ctl", 1), ("3:stall", 1)],
])
def test_dlx_backends_identical(objectives):
    # The smallest and the largest window TG unrolls for DLX.
    for n_frames in (6, 9):
        for search in _DLX_SEARCHES:
            _assert_backends_identical(
                _unrolled("dlx", n_frames), objectives, **search
            )


def test_backtrack_budget_enforced_inside_loop():
    # These objectives are satisfiable after 6 backtracks; a budget of 1
    # must stop the search as soon as the count passes max_backtracks
    # (inside the backtrack loop), not only at the next decision.
    unrolled = _unrolled("mini", 5)
    objectives = [("1:squash", 1), ("1:alusrc", 0)]
    for incremental in (True, False):
        full = CtrlJust(unrolled, incremental=incremental)
        assert full.justify(objectives).status is JustStatus.SUCCESS
        tiny = CtrlJust(unrolled, max_backtracks=1,
                        incremental=incremental)
        result = tiny.justify(objectives)
        assert result.status is JustStatus.FAILURE
        assert result.backtracks == 2  # budget + the overflowing attempt


def _deep_chain_controller(depth: int) -> PipelinedController:
    ctl = PipelinedController("deep_chain", n_stages=2)
    ctl.add_signal(field_signal("op", (0, 1, 2, 3), SignalKind.CPI, stage=0))
    ctl.add_signal(bit_signal("is_load", stage=0))
    ctl.drive("is_load", InSetNode("op", {2, 3}))
    previous = "is_load"
    for k in range(depth):
        name = f"chain{k}"
        ctl.add_signal(bit_signal(name, stage=0))
        ctl.drive(name, BufNode(previous) if k % 2 else NotNode(previous))
        previous = name
    ctl.add_signal(bit_signal("deep_out", SignalKind.CTRL, stage=0))
    ctl.drive("deep_out", BufNode(previous))
    ctl.validate()
    return ctl


def test_deep_network_no_recursion_limit():
    # A combinational chain far deeper than CPython's recursion limit:
    # topological_order and the CTRLJUST backtrace must both be iterative.
    depth = 3000
    unrolled = _deep_chain_controller(depth).unroll(1)
    order = unrolled.network.topological_order()
    assert len(order) == len(unrolled.network.drivers)
    inverted = ((depth + 1) // 2) % 2  # NOT stages sit at even positions
    result = CtrlJust(unrolled).justify([("0:deep_out", 1)])
    assert result.status is JustStatus.SUCCESS
    assert result.assignment["0:op"] in ((0, 1) if inverted else (2, 3))
    session = unrolled.session()
    session.assume("0:op", 2)  # a load: is_load = 1
    assert session.value("0:deep_out") == (0 if inverted else 1)
    session.retract()
    assert session.value("0:deep_out") is None


# ----------------------------------------------------------------------
# Generated evaluate kernel vs the sweep
# ----------------------------------------------------------------------
_CONTROLLERS = {
    "two_stage": build_two_stage,
    "mini": build_minipipe_controller,
    "dlx": build_dlx_controller,
    "dlx_bp": lambda: build_dlx_controller(branch_prediction=True),
}


@lru_cache(maxsize=None)
def _controller(which: str):
    return _CONTROLLERS[which]()


def _random_partial(network, rng):
    """Each external signal missing, X or a random domain value; a few
    driven names thrown in too (``evaluate`` must ignore them)."""
    assignment = {}
    for name in network.external_signals():
        roll = rng.random()
        if roll < 0.3:
            continue
        if roll < 0.45:
            assignment[name] = None
        else:
            assignment[name] = rng.choice(network.signals[name].domain)
    for name in rng.sample(sorted(network.drivers), 2):
        assignment[name] = rng.choice(network.signals[name].domain)
    return assignment


def _assert_kernel_matches_sweep(network, assignment):
    compiled = network.compiled()
    expected = compiled.values_dict(compiled.sweep(assignment))
    got = network.evaluate(assignment)
    assert got == expected
    assert list(got) == list(expected)  # same key order too


@pytest.mark.parametrize("which", sorted(_CONTROLLERS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_sweep_on_random_partial_assignments(which, seed):
    network = _controller(which).network
    _assert_kernel_matches_sweep(
        network, _random_partial(network, random.Random(seed))
    )


@pytest.mark.parametrize("which", sorted(_CONTROLLERS))
def test_kernel_matches_sweep_on_every_domain_value(which):
    # Every external signal at every domain value and at X, over an
    # otherwise random partial background.
    network = _controller(which).network
    rng = random.Random(which)
    for name in network.external_signals():
        for value in network.signals[name].domain + (None,):
            assignment = _random_partial(network, rng)
            assignment[name] = value
            _assert_kernel_matches_sweep(network, assignment)
    _assert_kernel_matches_sweep(network, {})


def test_kernel_matches_sweep_on_unrolled_network():
    unrolled = _unrolled("dlx", 3)
    rng = random.Random(3)
    for _ in range(10):
        _assert_kernel_matches_sweep(
            unrolled.network, _random_partial(unrolled.network, rng)
        )


def test_kernel_is_built_lazily_and_rebuilt_after_edits():
    ctl = build_two_stage()
    network = ctl.network
    compiled = network.compiled()
    assert compiled._kernel is None  # compiling does not generate it
    first = network.evaluate({"op": 2, "is_load_ex": 0})
    kernel = network.compiled().kernel()
    assert network.compiled().kernel() is kernel  # cached

    # add_signal: the new external appears (as X) in the next evaluate.
    ctl.add_signal(bit_signal("spare", SignalKind.CPI, stage=0))
    assert network.compiled() is not compiled
    second = network.evaluate({"op": 2, "is_load_ex": 0, "spare": 1})
    assert network.compiled().kernel() is not kernel
    assert second == {**first, "spare": 1}

    # drive: the new node is computed by the rebuilt kernel.
    kernel = network.compiled().kernel()
    ctl.add_signal(bit_signal("spare_load"))
    ctl.drive("spare_load", AndNode(["spare", "is_load"]))
    third = network.evaluate({"op": 2, "is_load_ex": 0, "spare": 1})
    assert network.compiled().kernel() is not kernel
    assert third["spare_load"] == 1
    _assert_kernel_matches_sweep(network, {"op": 2, "spare": 1})


def test_unrolled_windows_share_node_tables():
    ctl = build_dlx_controller()
    source = ctl.network.compiled()
    windows = {n: ctl.unroll(n).compiled() for n in (6, 9)}
    for name in ctl.network.drivers:
        table = source.table_of[source.index[name]]
        for n, compiled in windows.items():
            for frame in range(n):
                inst = compiled.index[f"{frame}:{name}"]
                assert compiled.table_of[inst] is table, (n, frame, name)
    # Every frame's clock edge of one register reads one table as well.
    for cpr in ctl.cprs:
        tables = {
            id(compiled.table_of[compiled.index[f"{frame}:{cpr.q}"]])
            for n, compiled in windows.items()
            for frame in range(1, n)
        }
        assert len(tables) == 1, cpr.q


def test_edits_rebuild_the_compiled_network_around_shared_tables():
    ctl = build_two_stage()
    network = ctl.network
    compiled = network.compiled()
    tables = {
        name: compiled.table_of[compiled.index[name]]
        for name in network.drivers
    }
    ctl.add_signal(bit_signal("spare", SignalKind.CPI, stage=0))
    after_signal = network.compiled()
    assert after_signal is not compiled
    ctl.add_signal(bit_signal("spare_load"))
    ctl.drive("spare_load", AndNode(["spare", "is_load"]))
    rebuilt = network.compiled()
    assert rebuilt is not after_signal
    # Unchanged nodes keep their tables; the new node is compiled too.
    for name, table in tables.items():
        assert rebuilt.table_of[rebuilt.index[name]] is table
    assert network.evaluate({"op": 2, "spare": 1})["spare_load"] == 1
    _assert_kernel_matches_sweep(network, {"op": 2, "spare": 1})
    # A window unrolled after the edits computes the new node.
    unrolled = ctl.unroll(3)
    session = unrolled.session()
    session.assume("1:op", 2)
    session.assume("1:spare", 1)
    assert session.value("1:spare_load") == 1
    _assert_matches_oracle(unrolled, session, [("1:op", 2), ("1:spare", 1)])


def _random_cycle(controller, rng):
    """(state, inputs): every CPR at a random domain value; CPI and STS
    inputs each missing, X or a random domain value."""
    network = controller.network
    state = {
        cpr.q: rng.choice(network.signals[cpr.q].domain)
        for cpr in controller.cprs
    }
    inputs = {}
    for name in controller.cpi_signals + controller.sts_signals:
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.15:
            inputs[name] = None
        else:
            inputs[name] = rng.choice(network.signals[name].domain)
    return state, inputs


def _clock_outcome(fn):
    try:
        return fn()
    except ControlNetworkError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("which", sorted(_CONTROLLERS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_next_state_matches_simulate_cycle(which, seed):
    controller = _controller(which)
    state, inputs = _random_cycle(controller, random.Random(seed))
    expected = _clock_outcome(
        lambda: controller.simulate_cycle(dict(state), dict(inputs))[1]
    )
    values = controller.network.evaluate({**inputs, **state})
    assert _clock_outcome(
        lambda: controller.next_state(state, values)
    ) == expected


@pytest.mark.parametrize("which", sorted(_CONTROLLERS))
def test_next_state_raises_like_simulate_cycle_on_x_d_input(which):
    # No inputs at all: some loading CPR samples an X D input.
    controller = _controller(which)
    state = controller.reset_state()
    with pytest.raises(ControlNetworkError) as expected:
        controller.simulate_cycle(dict(state), {})
    values = controller.network.evaluate(dict(state))
    with pytest.raises(ControlNetworkError) as got:
        controller.next_state(state, values)
    assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------------
# Lane kernel vs the scalar kernel
# ----------------------------------------------------------------------
requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy absent (lane kernel unavailable)"
)


def _assert_lanes_match_scalar(network, assignments):
    """One lane ``evaluate`` over ``assignments`` (one per lane) equals,
    lane by lane, the scalar ``evaluate`` of that lane's assignment.

    A name no lane assigns stays out of the lane assignment (the kernel
    treats it as X); driven names are encoded too (both kernels ignore
    them)."""
    kernel = network.compiled().lane_kernel()
    names = dict.fromkeys(name for a in assignments for name in a)
    lanes = {
        name: kernel.encode(name, [a.get(name) for a in assignments])
        for name in names
    }
    got = kernel.lane_dicts(network.evaluate(lanes, lanes=len(assignments)))
    assert len(got) == len(assignments)
    for lane, assignment in zip(got, assignments):
        expected = network.evaluate(assignment)
        assert lane == expected
        assert list(lane) == list(expected)  # same key order too


@requires_numpy
@pytest.mark.parametrize("width", [1, 7, 64])
@pytest.mark.parametrize("which", sorted(_CONTROLLERS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lane_kernel_matches_scalar_on_random_partial_assignments(
    which, width, seed
):
    network = _controller(which).network
    rng = random.Random(seed)
    _assert_lanes_match_scalar(
        network, [_random_partial(network, rng) for _ in range(width)]
    )


@requires_numpy
@pytest.mark.parametrize("which", sorted(_CONTROLLERS))
def test_lane_kernel_matches_scalar_on_every_domain_value(which):
    # Per external signal, one lane per domain value and one at X, over
    # otherwise random partial backgrounds.
    network = _controller(which).network
    rng = random.Random(which)
    for name in network.external_signals():
        assignments = []
        for value in network.signals[name].domain + (None,):
            assignment = _random_partial(network, rng)
            assignment[name] = value
            assignments.append(assignment)
        _assert_lanes_match_scalar(network, assignments)
    _assert_lanes_match_scalar(network, [{}, {}])


@requires_numpy
def test_lane_kernel_is_built_lazily_and_rebuilt_after_edits():
    ctl = build_two_stage()
    network = ctl.network
    compiled = network.compiled()
    network.evaluate({"op": 2})
    assert compiled._lane_kernel is None  # the scalar path does not build it
    _assert_lanes_match_scalar(network, [{"op": 2}, {"op": 1}])
    lane_kernel = compiled._lane_kernel
    assert lane_kernel is not None
    assert network.compiled().lane_kernel() is lane_kernel  # cached

    # add_signal: the new external appears in the rebuilt kernel.
    ctl.add_signal(bit_signal("spare", SignalKind.CPI, stage=0))
    assert network.compiled()._lane_kernel is None
    _assert_lanes_match_scalar(network, [{"op": 2, "spare": 1}, {}])
    lane_kernel = network.compiled().lane_kernel()
    assert "spare" in lane_kernel.names

    # drive: the new node is computed by the rebuilt kernel.
    ctl.add_signal(bit_signal("spare_load"))
    ctl.drive("spare_load", AndNode(["spare", "is_load"]))
    assignments = [{"op": 2, "spare": 1}, {"op": 2, "spare": 0}]
    _assert_lanes_match_scalar(network, assignments)
    assert network.compiled().lane_kernel() is not lane_kernel
    kernel = network.compiled().lane_kernel()
    lanes = {
        name: kernel.encode(name, [a[name] for a in assignments])
        for name in ("op", "spare")
    }
    values = kernel.lane_dicts(network.evaluate(lanes, lanes=2))
    assert [v["spare_load"] for v in values] == [1, 0]


@requires_numpy
def test_lane_kernel_rejects_values_outside_the_domain():
    network = build_two_stage().network
    kernel = network.compiled().lane_kernel()
    with pytest.raises(ControlNetworkError, match="outside the domain"):
        kernel.encode("op", [0, 99])
    with pytest.raises(ValueError, match="overrides"):
        network.evaluate({}, overrides={"is_load": 1}, lanes=2)


def test_lane_kernel_needs_numpy(monkeypatch):
    import repro.datapath.batched as batched

    monkeypatch.setattr(batched, "_np", None)
    network = build_two_stage().network
    with pytest.raises(ImportError, match="optional"):
        network.evaluate({}, lanes=2)
    network.evaluate({})  # the scalar kernel needs no numpy
