"""Tests for the differential fuzzing harness (repro.fuzz.harness)."""

import pytest

from repro.campaign.events import EventLog, EventStream
from repro.fuzz import (
    FuzzConfig,
    MatrixConfig,
    first_mismatch,
    machine_adapter,
    run_fuzz,
)
from repro.fuzz.harness import _shards

PLANT = "bus-ssl:alu_add.y:0:1"


def _event_stream():
    stream = EventStream()
    log = EventLog()
    stream.subscribe(log)
    return stream, log


# ---------------------------------------------------------------------------
# Fault-free runs: the oracle agrees with itself
# ---------------------------------------------------------------------------
def test_fault_free_mini_run_has_no_divergences():
    stream, log = _event_stream()
    config = FuzzConfig(machine="mini", iters=25, seed=3)
    report = run_fuzz(config, events=stream)
    assert report.iterations == 25
    assert report.divergences == []
    assert report.minimized == []
    assert not report.budget_exhausted
    assert [e.kind for e in log.events] == ["fuzz-started", "fuzz-finished"]

    processor = machine_adapter("mini").build()
    artifact = report.to_dict(processor)
    assert artifact["kind"] == "fuzz-report"
    assert artifact["n_divergences"] == 0
    coverage = artifact["coverage"]
    assert coverage["states"] > 0
    assert coverage["transitions"] > 0
    assert 0 < coverage["tertiary_value_coverage"] <= 1
    # Activity counters cover exactly the tertiary (hazard/bypass/squash)
    # signals, and random programs exercise at least one of them.
    assert set(coverage["tertiary_activity"]) == \
        set(processor.controller.cti_signals)
    assert any(count > 0 for count in coverage["tertiary_activity"].values())


def test_fault_free_dlx_run_has_no_divergences():
    report = run_fuzz(FuzzConfig(machine="dlx", iters=8, seed=5, length=8))
    assert report.iterations == 8
    assert report.divergences == []


# ---------------------------------------------------------------------------
# Planted errors: divergences are found, minimized and persisted
# ---------------------------------------------------------------------------
def test_planted_error_detected_and_minimized(tmp_path):
    stream, log = _event_stream()
    config = FuzzConfig(
        machine="mini", iters=20, seed=3, plant=PLANT, max_minimize=2
    )
    report = run_fuzz(config, events=stream, report_dir=str(tmp_path))
    assert report.divergences, "planted stuck-at must diverge"
    assert report.minimized
    assert len(report.minimized) <= 2
    for case in report.minimized:
        # The acceptance bar: every documented error model shrinks to a
        # handful of instructions.
        assert case["n_instructions"] <= 4
        path = tmp_path / case["reproducer_file"]
        assert path.exists()
        namespace: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        namespace["test_fuzz_reproducer"]()  # emitted case passes
    assert log.of_kind("fuzz-divergence")
    assert log.of_kind("fuzz-minimized")


# ---------------------------------------------------------------------------
# Config validation, adapters, mismatch rendering, sharding, budget
# ---------------------------------------------------------------------------
def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(machine="vax")
    with pytest.raises(ValueError):
        FuzzConfig(iters=-1)
    with pytest.raises(ValueError):
        FuzzConfig(jobs=0)
    # A budget of zero or less would run nothing; NaN would run without
    # any budget.
    for budget in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget_seconds"):
            FuzzConfig(budget_seconds=budget)
    # An empty program list would run nothing and report it clean.
    for length in (0, -3):
        with pytest.raises(ValueError, match="length"):
            FuzzConfig(length=length)
        with pytest.raises(ValueError, match="length"):
            MatrixConfig(length=length)
    for bad in (dict(machine="vax"), dict(machine=5), dict(programs=0),
                dict(sample=0), dict(classes=("bus-ssl", "stuck-open")),
                dict(lanes=-1)):
        with pytest.raises(ValueError):
            MatrixConfig(**bad)


def test_machine_adapter_unknown_name():
    with pytest.raises(ValueError):
        machine_adapter("vax")


def test_first_mismatch_reports_element():
    spec = {"writes": [[1, 0], [2, 5]], "registers": [0, 5, 0, 0]}
    impl = {"writes": [[1, 0], [2, 7]], "registers": [0, 5, 0, 0]}
    assert first_mismatch(spec, impl) == "writes[1]: spec [2, 5] impl [2, 7]"
    assert first_mismatch(spec, spec) is None


def test_first_mismatch_reports_length():
    spec = {"writes": [[1, 0], [2, 5]]}
    impl = {"writes": [[1, 0]]}
    assert "length 2 (spec) vs 1 (impl)" in first_mismatch(spec, impl)


def test_shards_partition_indices():
    for iters in (0, 1, 7, 20):
        for jobs in (1, 3, 4, 8):
            shards = _shards(iters, jobs)
            flat = [i for shard in shards for i in shard]
            assert flat == list(range(iters))
            assert all(shard == sorted(shard) for shard in shards)


def test_budget_stops_early():
    report = run_fuzz(
        FuzzConfig(machine="mini", iters=100000, budget_seconds=0.05)
    )
    assert report.budget_exhausted
    assert 0 < report.iterations < 100000


def test_opcode_weights_bias_generator():
    # Weighting everything but ADDI to zero yields ADDI-only programs.
    weights = {"NOP": 0, "ADD": 0, "SUB": 0, "AND": 0, "XOR": 0,
               "BEQ": 0, "SUBI": 0}
    config = FuzzConfig(machine="mini", iters=3, opcode_weights=weights)
    generator = config.generator()
    for index in range(3):
        assert all(i.op == "ADDI" for i in generator.program(index))
