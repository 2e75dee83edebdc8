"""Incremental implication engine: microbenchmark + end-to-end effect.

Two measurements back the CTRLJUST inner-loop optimisation:

* **Microbenchmark** — the same scripted assume/retract walk over the
  unrolled DLX controller, once through :class:`ImplicationSession`
  (fanout-cone propagation + trail undo) and once through the full-sweep
  oracle (``ControlNetwork.consistency`` after every operation, which is
  what the pre-compiled engine effectively did).  The incremental engine
  must be at least 3x faster.

* **End-to-end** — a sampled Table-1 error list generated twice with
  identical :class:`TestGenerator` settings except the implication
  backend.  Outcomes must be bit-identical; the incremental run should be
  measurably faster, and the golden-trace cache statistics show how many
  fault-free simulations the exposure loop avoided.

Results are written to ``BENCH_implication.json`` (uploaded as a CI
artifact).  ``REPRO_FULL=1`` widens the sample.
"""

import random
import time
from functools import partial
from unittest import mock

import pytest

from benchmarks.conftest import full_run

from repro.campaign.serialize import save_json
from repro.core.ctrljust import CtrlJust
from repro.core.tg import TestGenerator, TGStatus
from repro.dlx.controller import build_dlx_controller

_RESULTS: dict = {}

#: Fraction of walk operations that retract instead of assume.
_RETRACT_P = 0.4


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if _RESULTS:
        save_json({"kind": "bench-implication", **_RESULTS},
                  "BENCH_implication.json")


def _script_walk(unrolled, seed: int, n_ops: int):
    """A deterministic assume/retract script over the decision signals."""
    rng = random.Random(seed)
    decisions = unrolled.decision_instances()
    signals = unrolled.network.signals
    script = []
    depth = 0
    for _ in range(n_ops):
        if depth and rng.random() < _RETRACT_P:
            script.append(None)  # retract
            depth -= 1
        else:
            name = rng.choice(decisions)
            script.append((name, rng.choice(signals[name].domain)))
            depth += 1
    return script


def _run_incremental(unrolled, script):
    session = unrolled.session()
    for op in script:
        if op is None:
            session.retract()
        else:
            session.assume(*op)
    return session.snapshot(), session.justified_names


def _run_full_sweep(unrolled, script):
    compiled = unrolled.compiled()
    network = unrolled.network
    stack: list[tuple[str, int]] = []
    values = justified = None
    for op in script:
        if op is None:
            stack.pop()
        else:
            stack.append(op)
        assignment: dict[str, int] = {}
        overrides: dict[str, int] = {}
        for name, value in stack:
            if compiled.is_driven[compiled.index[name]]:
                overrides[name] = value
            else:
                assignment[name] = value
        values, justified, _ = network.consistency(assignment, overrides)
    return values, set(justified)


def test_implication_microbenchmark(benchmark):
    n_frames = 9
    n_ops = 400 if full_run() else 200
    unrolled = build_dlx_controller().unroll(n_frames)
    script = _script_walk(unrolled, seed=7, n_ops=n_ops)

    start = time.perf_counter()
    sweep_values, sweep_justified = _run_full_sweep(unrolled, script)
    sweep_seconds = time.perf_counter() - start

    incr_values, incr_justified = benchmark.pedantic(
        _run_incremental, args=(unrolled, script), rounds=3, iterations=1
    )
    incr_seconds = benchmark.stats.stats.mean

    # Identical final state: the walk ends mid-assignment, so this checks
    # values and classification after a mixed assume/retract history.
    assert incr_values == sweep_values
    assert incr_justified == sweep_justified

    speedup = sweep_seconds / incr_seconds if incr_seconds else 0.0
    print()
    print(f"implication walk: {n_ops} ops on DLX unrolled({n_frames})")
    print(f"  full sweep   {sweep_seconds * 1e3:9.1f} ms")
    print(f"  incremental  {incr_seconds * 1e3:9.1f} ms")
    print(f"  speedup      {speedup:9.1f}x")
    _RESULTS["microbenchmark"] = {
        "n_frames": n_frames,
        "n_ops": n_ops,
        "full_sweep_seconds": sweep_seconds,
        "incremental_seconds": incr_seconds,
        "speedup": speedup,
    }
    assert speedup >= 3.0


def _generate_all(dlx, errors, incremental: bool):
    from repro.dlx.env import dlx_exposure_comparator

    generator = TestGenerator(
        dlx, exposure_comparator=dlx_exposure_comparator,
        deadline_seconds=20.0,
    )
    # The full-sweep arm runs every CTRLJUST search TG makes on the
    # reference implication backend.
    backend = partial(CtrlJust, incremental=incremental)
    start = time.monotonic()
    with mock.patch("repro.core.tg.CtrlJust", backend):
        results = [generator.generate(error) for error in errors]
    return results, time.monotonic() - start


def test_table1_end_to_end_effect(benchmark, dlx):
    from repro.campaign import DlxCampaign

    sample = 24 if full_run() else 48
    errors = DlxCampaign().default_errors(max_bits_per_net=2)[::sample]

    slow_results, slow_seconds = _generate_all(dlx, errors, incremental=False)
    (fast_results, fast_seconds), = (
        benchmark.pedantic(_generate_all, args=(dlx, errors, True),
                           rounds=1, iterations=1),
    )

    # The backend must not change what TG finds.  Effort counters are only
    # comparable when the run completed (a deadline abort stops each
    # backend at a different point of the identical search).
    assert [r.status for r in fast_results] == \
        [r.status for r in slow_results]
    for fast, slow in zip(fast_results, slow_results):
        if fast.status is TGStatus.DETECTED:
            assert fast.backtracks == slow.backtracks
            assert fast.attempts == slow.attempts
            assert fast.test.cpi_frames == slow.test.cpi_frames
            assert fast.test.stimulus_state == slow.test.stimulus_state

    detected = sum(1 for r in fast_results if r.status is TGStatus.DETECTED)
    hits = sum(r.golden_hits for r in fast_results)
    misses = sum(r.golden_misses for r in fast_results)
    speedup = slow_seconds / fast_seconds if fast_seconds else 0.0
    print()
    print(f"table1 sample: {len(errors)} errors, {detected} detected")
    print(f"  full sweep   {slow_seconds:7.1f} s wall")
    print(f"  incremental  {fast_seconds:7.1f} s wall")
    print(f"  speedup      {speedup:7.2f}x")
    print(f"  golden cache {hits} hit(s), {misses} fault-free sim(s)")
    aborted = len(errors) - detected
    if aborted:
        print(f"  ({aborted} deadline-capped abort(s) cost both backends "
              f"the full 20 s, flattening the ratio)")
    _RESULTS["table1_sample"] = {
        "n_errors": len(errors),
        "n_detected": detected,
        "full_sweep_seconds": slow_seconds,
        "incremental_seconds": fast_seconds,
        "speedup": speedup,
        "golden_hits": hits,
        "golden_misses": misses,
    }
    # Measurable end-to-end improvement (loose bound: CTRLJUST is one of
    # four phases, so the whole-TG ratio is well under the microbenchmark's).
    assert fast_seconds < slow_seconds
