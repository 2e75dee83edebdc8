"""Compiled datapath kernels: microbenchmark + batch fault-sim effect.

Three measurements back the compiled-simulation optimisation:

* **Kernel microbenchmark** — the same recorded DLX stimulus replayed
  through the interpretive :class:`DatapathSimulator`, the dict-API
  :class:`CompiledDatapathSimulator`, and the allocation-free dense
  ``run_dense`` loop.  Final register state must be bit-identical; the
  dense kernel must be at least 5x faster than the interpreter.

* **Table-1 end-to-end sample** — a sampled DLX error list generated
  twice with identical :class:`TestGenerator` settings except the
  datapath backend (compiled kernels + cone-fork exposure screen vs the
  fully interpretive oracle).  Detected/aborted outcomes and the found
  tests must be identical; the co-simulation phase seconds show where
  the kernel time went (TG wall time is CTRLJUST-dominated, so the
  whole-run ratio is intentionally reported, not asserted).

* **Batch fault simulation** — the mini conformance matrix classified
  once per (error, program) pair serially and once through the
  cone-forking batch simulator (one golden environment run per program,
  every surviving error forked against it).  Rows must be identical and
  must match the committed baseline; the batch run must be faster.

Results are written to ``BENCH_simulate.json`` (committed, and uploaded
as a CI artifact).  ``REPRO_FULL=1`` widens the samples.
"""

import time
from functools import partial
from unittest import mock

import pytest

from benchmarks.conftest import full_run

from repro.campaign.serialize import save_json
from repro.core.tg import _FORK_UNDECIDED, TestGenerator, TGStatus
from repro.datapath import CompiledDatapathSimulator, DatapathSimulator
from repro.verify.cosim import GoldenTraceCache, ProcessorSimulator

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if _RESULTS:
        save_json({"kind": "bench-simulate", **_RESULTS},
                  "BENCH_simulate.json")


# ----------------------------------------------------------------------
# Kernel microbenchmark
# ----------------------------------------------------------------------
def _recorded_frames(dlx, n_cycles: int):
    """Replayable external stimulus: a real program's resolved trace.

    Recording a :class:`DlxEnv` run (rather than drawing random values)
    keeps mux selects and control codes inside their domains; unresolved
    nets are driven to 0, identically for every backend.
    """
    from repro.baselines.random_gen import (
        RandomDlxGenerator,
        RandomProgramConfig,
    )
    from repro.dlx.env import DlxEnv

    generator = RandomDlxGenerator(RandomProgramConfig(length=24, seed=11))
    env = DlxEnv(dlx)
    env.run(generator.program(0), generator.initial_registers(0))
    ext_names = [
        net.name
        for net in dlx.datapath.nets.values()
        if net.is_external_input
    ]
    recorded = [
        {
            name: (cycle.datapath.get(name) or 0)
            for name in ext_names
        }
        for cycle in env.trace.cycles
    ]
    frames = []
    while len(frames) < n_cycles:
        frames.extend(recorded)
    return frames[:n_cycles]


def _run_interpretive(netlist, frames):
    sim = DatapathSimulator(netlist)
    for frame in frames:
        sim.step(frame)
    return dict(sim.state)


def _run_compiled_dict(netlist, frames):
    sim = CompiledDatapathSimulator(netlist)
    for frame in frames:
        sim.step(frame)
    return dict(sim.state)


def _run_compiled_dense(netlist, dense_frames):
    sim = CompiledDatapathSimulator(netlist)
    sim.run_dense(dense_frames)
    return dict(sim.state)


def test_kernel_microbenchmark(benchmark, dlx):
    n_cycles = 2000 if full_run() else 500
    frames = _recorded_frames(dlx, n_cycles)

    start = time.perf_counter()
    interp_state = _run_interpretive(dlx.datapath, frames)
    interp_seconds = time.perf_counter() - start

    start = time.perf_counter()
    dict_state = _run_compiled_dict(dlx.datapath, frames)
    dict_seconds = time.perf_counter() - start

    probe = CompiledDatapathSimulator(dlx.datapath)
    dense_frames = [probe.dense_external(frame) for frame in frames]
    dense_state = benchmark.pedantic(
        _run_compiled_dense, args=(dlx.datapath, dense_frames),
        rounds=3, iterations=1,
    )
    dense_seconds = benchmark.stats.stats.mean

    # Bit-identical final register state across all three backends.
    assert dict_state == interp_state
    assert dense_state == interp_state

    dict_speedup = interp_seconds / dict_seconds if dict_seconds else 0.0
    dense_speedup = interp_seconds / dense_seconds if dense_seconds else 0.0
    print()
    print(f"kernel microbenchmark: DLX, {n_cycles} cycles")
    print(f"  interpretive   {interp_seconds * 1e3:9.1f} ms")
    print(f"  compiled dict  {dict_seconds * 1e3:9.1f} ms"
          f"  ({dict_speedup:5.1f}x)")
    print(f"  compiled dense {dense_seconds * 1e3:9.1f} ms"
          f"  ({dense_speedup:5.1f}x)")
    _RESULTS["microbenchmark"] = {
        "machine": "dlx",
        "n_cycles": n_cycles,
        "interpretive_seconds": interp_seconds,
        "compiled_dict_seconds": dict_seconds,
        "compiled_dense_seconds": dense_seconds,
        "dict_speedup": dict_speedup,
        "dense_speedup": dense_speedup,
    }
    assert dense_speedup >= 5.0


# ----------------------------------------------------------------------
# Table-1 end-to-end sample
# ----------------------------------------------------------------------
def _generate_all(dlx, errors, compiled: bool):
    from repro.dlx.env import dlx_exposure_comparator

    generator = TestGenerator(
        dlx, exposure_comparator=dlx_exposure_comparator,
        deadline_seconds=20.0,
    )
    simulator = ProcessorSimulator
    if not compiled:
        # The interpretive arm: both halves of every exposure check on
        # the interpretive simulator, and no fork screen in front.
        generator._golden = GoldenTraceCache(compiled=False)
        generator._fork_exposure = lambda error, good: _FORK_UNDECIDED
        simulator = partial(ProcessorSimulator, compiled=False)
    start = time.monotonic()
    with mock.patch("repro.core.tg.ProcessorSimulator", simulator):
        results = [generator.generate(error) for error in errors]
    return results, time.monotonic() - start


def test_table1_end_to_end_effect(benchmark, dlx):
    from repro.campaign import DlxCampaign

    sample = 24 if full_run() else 48
    errors = DlxCampaign().default_errors(max_bits_per_net=2)[::sample]

    slow_results, slow_seconds = _generate_all(dlx, errors, compiled=False)
    (fast_results, fast_seconds), = (
        benchmark.pedantic(_generate_all, args=(dlx, errors, True),
                           rounds=1, iterations=1),
    )

    # The backend must not change what TG finds.
    assert [r.status for r in fast_results] == \
        [r.status for r in slow_results]
    for fast, slow in zip(fast_results, slow_results):
        if fast.status is TGStatus.DETECTED:
            assert fast.test.cpi_frames == slow.test.cpi_frames
            assert fast.test.stimulus_state == slow.test.stimulus_state

    def cosim_seconds(results):
        return sum(r.phase_seconds.get("cosim", 0.0) for r in results)

    slow_cosim = cosim_seconds(slow_results)
    fast_cosim = cosim_seconds(fast_results)
    detected = sum(1 for r in fast_results if r.status is TGStatus.DETECTED)
    forks = sum(r.exposure_forks for r in fast_results)
    decided = sum(r.exposure_fork_decided for r in fast_results)
    speedup = slow_seconds / fast_seconds if fast_seconds else 0.0
    cosim_speedup = slow_cosim / fast_cosim if fast_cosim else 0.0
    print()
    print(f"table1 sample: {len(errors)} errors, {detected} detected")
    print(f"  interpretive  {slow_seconds:7.1f} s wall"
          f"  (cosim phase {slow_cosim:6.2f} s)")
    print(f"  compiled      {fast_seconds:7.1f} s wall"
          f"  (cosim phase {fast_cosim:6.2f} s, {cosim_speedup:.1f}x)")
    print(f"  exposure forks {forks}, decided without co-sim {decided}")
    aborted = len(errors) - detected
    if aborted:
        print(f"  ({aborted} deadline-capped abort(s) cost both backends "
              f"the full 20 s, flattening the wall ratio)")
    _RESULTS["table1_sample"] = {
        "n_errors": len(errors),
        "n_detected": detected,
        "interpretive_seconds": slow_seconds,
        "compiled_seconds": fast_seconds,
        "speedup": speedup,
        "interpretive_cosim_seconds": slow_cosim,
        "compiled_cosim_seconds": fast_cosim,
        "cosim_speedup": cosim_speedup,
        "exposure_forks": forks,
        "exposure_fork_decided": decided,
    }


# ----------------------------------------------------------------------
# Batch fault simulation
# ----------------------------------------------------------------------
def test_batch_fault_sim_vs_serial(benchmark):
    from repro.fuzz.conformance import MatrixConfig, run_matrix

    programs = 16 if full_run() else 12
    base = dict(machine="mini", programs=programs, length=12, seed=1)

    start = time.perf_counter()
    serial = run_matrix(MatrixConfig(batch=False, **base))
    serial_seconds = time.perf_counter() - start

    batch = benchmark.pedantic(
        run_matrix, args=(MatrixConfig(batch=True, **base),),
        rounds=3, iterations=1,
    )
    batch_seconds = benchmark.stats.stats.mean

    # Identical classifications, budgets and detecting programs — the
    # batch strategy is invisible in the artifact.
    assert batch == serial

    n_errors = len(batch["errors"])
    detected = sum(c["detected"] for c in batch["summary"].values())
    speedup = serial_seconds / batch_seconds if batch_seconds else 0.0
    print()
    print(f"mini conformance matrix: {n_errors} errors x "
          f"{programs} programs, {detected} detected")
    print(f"  serial cosim  {serial_seconds:7.2f} s")
    print(f"  batch forks   {batch_seconds:7.2f} s  ({speedup:.2f}x)")
    _RESULTS["batch_fault_sim"] = {
        "machine": "mini",
        "n_errors": n_errors,
        "programs": programs,
        "n_detected": detected,
        "serial_seconds": serial_seconds,
        "batch_seconds": batch_seconds,
        "speedup": speedup,
    }
    assert batch_seconds < serial_seconds
