"""Differential pinning of the TG search accelerators.

Three accelerators (incremental C/O propagation in DPTRACE, learned
no-goods + memoized justifications in CTRLJUST, the per-window path-set
cache) claim to be *outcome-transparent*: turning them on changes wall
clock only, never a search result.  These tests enforce that claim
against the interpretive oracles:

* random assume/retract walks on :class:`AnalyzerSession` must equal a
  full ``analyzer.compute`` of the same assignment at every checkpoint;
* ``DPTrace(incremental=True)`` must produce bit-identical
  :class:`TraceResult`\\ s to the full-recompute path;
* ``TestGenerator`` with learning on must produce identical outcomes
  and backtrack statistics to learning off, on MiniPipe and DLX;
* deadline-tainted results must never enter any cache, and deadlines
  must abort promptly (the PR's deadline-threading bugfix).
"""

from __future__ import annotations

import random
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctrljust import CtrlJust, JustResult, JustStatus
from repro.core.dptrace import DPTrace, TraceResult, TraceStatus
from repro.core.nogoods import (
    LearnedNogoods,
    PathCache,
    blame_key,
    justify_key,
)
from repro.core.tg import TestGenerator, TGStatus
from repro.errors.models import BusSSLError, enumerate_bus_ssl
from repro.mini.machine import build_minipipe
from repro.model.pathsession import AnalyzerSession, _session_meta

N_FRAMES = 4


@pytest.fixture(scope="module")
def mini():
    return build_minipipe()


@pytest.fixture(scope="module")
def analyzer(mini):
    return mini.analyzer(N_FRAMES)


def _decision_candidates(analyzer):
    """All (kind, var, value) decisions a walk may apply."""
    meta = _session_meta(analyzer)
    ctrl_nets = sorted(set(meta.ctrl_muxes) | set(meta.ctrl_regs))
    candidates = []
    for frame in range(analyzer.n_frames):
        for name in ctrl_nets:
            for value in (0, 1):
                candidates.append(("ctrl", (frame, name), value))
    for name, sinks in sorted(meta.comb_consumers.items()):
        if len(sinks) > 1:
            for frame in range(analyzer.n_frames):
                for value in range(len(sinks)):
                    candidates.append(("fo", (frame, name), value))
    return candidates


def _assert_states_equal(session, analyzer):
    full = analyzer.compute(session.ctrl, session.fo)
    assert session.net_c == full.net_c
    assert session.port_c == full.port_c
    assert session.net_o == full.net_o
    assert session.port_o == full.port_o


def _check_walk(analyzer, steps):
    """Apply (pick, pop) steps to a session, checking every state against
    a full ``analyzer.compute``: ``pop`` retracts the latest decision when
    there is one, else ``pick`` chooses the next decision."""
    candidates = _decision_candidates(analyzer)
    session = AnalyzerSession(analyzer, {}, {})
    depth = 0
    for pick, pop in steps:
        if pop and depth:
            session.retract()
            depth -= 1
        else:
            kind, var, value = candidates[pick % len(candidates)]
            session.assume(kind, var, value)
            depth += 1
        _assert_states_equal(session, analyzer)
    while depth:
        session.retract()
        depth -= 1
    _assert_states_equal(session, analyzer)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans()),
        max_size=24,
    )
)
def test_session_walk_matches_full_compute(mini, analyzer, steps):
    """Random assume/retract walks equal a fresh full sweep throughout."""
    _check_walk(analyzer, steps)


def test_dlx_session_walk_matches_full_compute():
    """A seeded 60-step walk on a 6-frame DLX window, where the fanout
    cones are far larger than MiniPipe's."""
    from repro.dlx.machine import build_dlx

    rng = random.Random(11)
    steps = [(rng.randrange(10_000), rng.random() < 0.4) for _ in range(60)]
    _check_walk(build_dlx().analyzer(6), steps)


def _trace_fields(trace: TraceResult) -> tuple:
    return (
        trace.status,
        trace.ctrl_objectives,
        trace.fo_choices,
        trace.propagation_path,
        trace.backtracks,
        trace.decisions,
        trace.control_side,
        trace.deadline_hit,
    )


def test_dptrace_incremental_matches_full(mini, analyzer):
    """Path selection is bit-identical with and without the session."""
    nets = sorted(mini.datapath.nets)[::3]
    for site in nets:
        for act_frame in range(N_FRAMES):
            for variant in (0, 1):
                full = DPTrace(
                    analyzer, {}, variant=variant, incremental=False
                ).select_paths(site, act_frame)
                fast = DPTrace(
                    analyzer, {}, variant=variant, incremental=True
                ).select_paths(site, act_frame)
                assert _trace_fields(fast) == _trace_fields(full), (
                    site, act_frame, variant,
                )


def _tg_results(processor, errors, **knobs):
    """One generator over ``errors`` in order: (generator, TGResults)."""
    generator = TestGenerator(processor, deadline_seconds=10.0, **knobs)
    return generator, [generator.generate(error) for error in errors]


def _row(result) -> tuple:
    """A TGResult's outcome and effort counters, without timings."""
    test = result.test
    return (
        result.error,
        result.status,
        result.backtracks,
        result.dptrace_backtracks,
        result.ctrljust_backtracks,
        result.final_backtracks,
        result.attempts,
        result.frames_used,
        None if test is None else (
            test.n_frames, test.cpi_frames, test.dpi_frames,
            test.stimulus_state, test.activation_frame,
        ),
    )


def _generate_all(processor, errors, **knobs):
    generator, results = _tg_results(processor, errors, **knobs)
    return generator, [_row(result) for result in results]


def _generate_all_unaccelerated(monkeypatch, processor, errors):
    """The oracle arm: learning off, and every DPTRACE selection TG runs
    on the full-recompute path instead of the incremental session."""
    monkeypatch.setattr(
        "repro.core.tg.DPTrace", partial(DPTrace, incremental=False)
    )
    return _generate_all(processor, errors, use_learned_nogoods=False)


def test_tg_learning_on_off_identical_mini(mini, monkeypatch):
    """Learning/caching changes wall clock only, never an outcome."""
    errors = enumerate_bus_ssl(mini.datapath, stages={1, 2})[::8]
    assert len(errors) >= 10
    accel, on = _generate_all(mini, errors)
    _, off = _generate_all_unaccelerated(monkeypatch, mini, errors)
    assert on == off
    # The accelerators actually engaged (else this test proves nothing).
    assert accel._sweeps_avoided > 0
    assert accel.nogoods.justify_misses > 0
    assert accel._path_cache.hits > 0


def test_tg_learning_on_off_identical_dlx_spot(monkeypatch):
    """Two DLX spot checks: one detected, one justification-heavy."""
    from repro.dlx.machine import build_dlx

    processor = build_dlx()
    errors = enumerate_bus_ssl(processor.datapath, stages={2})[:2]
    _, on = _generate_all(processor, errors)
    _, off = _generate_all_unaccelerated(monkeypatch, processor, errors)
    assert on == off


def _outcome_fields(results):
    """Outcome-only projection of ``_generate_all`` rows: error, status,
    dptrace backtracks, attempts, frames and the final test — everything
    except the CTRLJUST effort counters, which clause learning is
    *allowed* (indeed expected) to shrink."""
    return [
        (error, status, dpt, attempts, frames, test)
        for (error, status, _bt, dpt, _cj, _fin, attempts, frames, test)
        in results
    ]


def test_tg_clause_learning_on_off_identical_outcomes_mini(mini):
    """CDCL refutation changes effort only: detected/aborted outcomes and
    the emitted tests are byte-identical with learning on or off."""
    errors = enumerate_bus_ssl(mini.datapath, stages={1, 2})[::8]
    accel, on = _generate_all(mini, errors, use_clause_learning=True)
    _, off = _generate_all(mini, errors, use_clause_learning=False)
    assert _outcome_fields(on) == _outcome_fields(off)
    # The machinery engaged: a certificate was learned and then re-hit.
    assert accel.clauses.added > 0
    assert accel.clauses.hits > 0


def test_tg_clause_learning_on_off_identical_outcomes_dlx():
    """DLX spot check on both polarities of ``ex_a.y[0]``: the refuter
    retires an exhaustion family (fewer CTRLJUST backtracks, a clause
    hit) without moving any outcome."""
    from repro.dlx.machine import build_dlx

    processor = build_dlx()
    errors = [BusSSLError("ex_a.y", 0, 0), BusSSLError("ex_a.y", 0, 1)]
    accel, on = _tg_results(processor, errors, use_clause_learning=True)
    _, off = _tg_results(processor, errors, use_clause_learning=False)
    assert _outcome_fields(map(_row, on)) == _outcome_fields(map(_row, off))
    # Learning actually saved work on this workload: the window family
    # the first error proves unjustifiable is certified, so the second
    # error's pose of it is a certificate hit instead of a second
    # exhaustion (2,037 CTRLJUST backtracks against 3,892).
    assert accel.clauses.added > 0
    assert sum(r.ctrljust_backtracks for r in on) < sum(
        r.ctrljust_backtracks for r in off
    )
    assert on[1].clause_hits >= 1
    assert on[1].ctrljust_backtracks * 1.5 <= off[1].ctrljust_backtracks


def test_tgresult_exposes_last_attempt_justified(mini):
    error = enumerate_bus_ssl(mini.datapath, stages={1})[0]
    generator = TestGenerator(mini, deadline_seconds=10.0)
    result = generator.generate(error)
    assert result.status is TGStatus.DETECTED
    assert result.last_attempt_justified is True
    # The old mutable-attribute protocol is gone.
    assert not hasattr(generator, "_had_justification")
    assert not hasattr(generator, "_last_attempt_justified")


def test_deadline_aborts_promptly(mini):
    """A tiny budget aborts in bounded time even mid-search."""
    errors = enumerate_bus_ssl(mini.datapath, stages={1, 2})[:6]
    generator = TestGenerator(mini, deadline_seconds=0.02)
    start = time.process_time()
    for error in errors:
        generator.generate(error)
    elapsed = time.process_time() - start
    # 6 errors x 0.02s budget; generous slack for slow CI machines.
    assert elapsed < 3.0


def test_engine_deadline_flags(mini, analyzer):
    """Both engines surface deadline cuts as tainted FAILUREs."""
    past = time.process_time() - 1.0
    site = sorted(mini.datapath.nets)[0]
    trace = DPTrace(analyzer, {}, deadline=past).select_paths(site, 1)
    assert trace.status is TraceStatus.FAILURE
    assert trace.deadline_hit is True

    unrolled = mini.controller.unroll(N_FRAMES)
    ctrl = mini.controller.ctrl_signals[0]
    objectives = [(unrolled.instance(1, ctrl), 1)]
    just = CtrlJust(unrolled, deadline=past).justify(objectives)
    assert just.status is JustStatus.FAILURE
    assert just.deadline_hit is True


def test_tainted_results_never_cached():
    store = LearnedNogoods()
    tainted = JustResult(JustStatus.FAILURE, deadline_hit=True)
    key = justify_key(4, (((1, "op"), 1),), 0, 100)
    assert store.cached_justify(key, lambda: tainted) is tainted
    # The taint passed through uncached: the next call recomputes.
    clean = JustResult(JustStatus.FAILURE)
    assert store.cached_justify(key, lambda: clean) is clean
    assert store.cached_justify(key, lambda: tainted) is clean

    cache = PathCache()
    trace = TraceResult(TraceStatus.FAILURE, deadline_hit=True)
    pkey = PathCache.key(4, "net", 1, {}, set(), 0, 100)
    cache.store(pkey, trace, 0)
    assert cache.lookup(pkey) is None


def test_nogood_records_roundtrip_and_pooling():
    from repro.campaign.serialize import (
        nogood_records_from_wire,
        nogood_records_to_wire,
    )

    items = (((2, "alu_op"), 1), ((3, "wb_sel"), 0))
    key = blame_key(6, items, items, {items[0]}, 1, (2000, 500))
    store = LearnedNogoods()
    assert store.lookup_blame(key) is None  # miss counted
    store.record_blame(key, [items[0]], 1234, cdcl=(7, 3, 2, 1, 1))
    assert store.lookup_blame(key) == ((items[0],), 1234, (7, 3, 2, 1, 1))
    assert store.hits == 1 and store.misses == 1

    wire = nogood_records_to_wire(store.export_records())
    # Exported records drain: nothing left to report.
    assert store.export_records() == []
    decoded = nogood_records_from_wire(wire)
    other = LearnedNogoods()
    assert other.merge_records(decoded) == 1
    assert other.lookup_blame(key) == ((items[0],), 1234, (7, 3, 2, 1, 1))
    # Pre-CDCL rows (three columns) decode with zeroed counters.
    legacy_key = blame_key(6, items, items, set(), 2, (2000, 500))
    legacy = nogood_records_from_wire(
        [[row[0] if i == 0 else row[i] for i in range(3)]
         for row in nogood_records_to_wire(
             [(legacy_key, ((items[1],), 9, (0, 0, 0, 0, 0)))]
         )]
    )
    assert legacy == [(legacy_key, ((items[1],), 9, (0, 0, 0, 0, 0)))]
    # Merged (foreign) records do not re-export.
    assert other.export_records() == []
    # Re-merge is idempotent.
    assert other.merge_records(decoded) == 0


# ---------------------------------------------------------------------------
# Unrolling
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_justifiability_is_window_independent(mini, data):
    """Unrolling is causal: frames below the objectives are identical
    in every unrolling, so a question confined to frames < n answers
    the same at window n and n + 1 (complete chronological search,
    ample budget)."""
    ctrls = sorted(mini.controller.ctrl_signals)
    small = mini.controller.unroll(N_FRAMES)
    large = mini.controller.unroll(N_FRAMES + 1)
    n = data.draw(st.integers(1, 3))
    picked = set()
    for _ in range(n):
        frame = data.draw(st.integers(1, N_FRAMES - 1))
        ctrl = data.draw(st.sampled_from(ctrls))
        value = data.draw(st.integers(0, 1))
        picked.add((frame, ctrl, value))
    at_small = CtrlJust(small).justify(
        [(small.instance(f, c), v) for f, c, v in sorted(picked)]
    )
    at_large = CtrlJust(large).justify(
        [(large.instance(f, c), v) for f, c, v in sorted(picked)]
    )
    assert at_small.status is at_large.status
