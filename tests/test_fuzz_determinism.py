"""Seeded determinism of the fuzz harness.

The report artifact must be byte-identical for the same ``(machine, iters,
seed, ...)`` whatever the worker count — the property the CI gate and any
cross-PR diffing rely on.  The batched ``lanes`` knob is held to the same
standard: it is an execution strategy, so reports and conformance-matrix
artifacts must be byte-identical with batching off (``lanes=0``), at any
explicit lane width, and on auto (``lanes=None``).
"""

import json

import pytest

from repro.datapath import HAS_NUMPY
from repro.fuzz import FuzzConfig, machine_adapter, run_fuzz
from repro.fuzz.conformance import MatrixConfig, run_matrix

PLANT = "bus-ssl:alu_add.y:0:1"

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy absent (batched backend unavailable)"
)


def _report_bytes(**kwargs) -> bytes:
    config = FuzzConfig(**kwargs)
    report = run_fuzz(config)
    processor = machine_adapter(config.machine).build()
    return json.dumps(report.to_dict(processor), sort_keys=True).encode()


def _matrix_bytes(**kwargs) -> bytes:
    fragment = run_matrix(MatrixConfig(**kwargs))
    return json.dumps(fragment, sort_keys=True).encode()


def test_same_seed_byte_identical_report():
    first = _report_bytes(machine="mini", iters=20, seed=11)
    second = _report_bytes(machine="mini", iters=20, seed=11)
    assert first == second


def test_jobs_do_not_change_report():
    serial = _report_bytes(machine="mini", iters=12, seed=11, jobs=1)
    two = _report_bytes(machine="mini", iters=12, seed=11, jobs=2)
    four = _report_bytes(machine="mini", iters=12, seed=11, jobs=4)
    assert serial == two == four


def test_planted_minimization_is_deterministic():
    runs = []
    for _ in range(2):
        config = FuzzConfig(
            machine="mini", iters=10, seed=11, plant=PLANT, max_minimize=2
        )
        report = run_fuzz(config)
        assert report.minimized
        runs.append(report)
    first, second = runs
    assert [d["index"] for d in first.divergences] == \
        [d["index"] for d in second.divergences]
    assert first.minimized == second.minimized  # incl. pytest_case text


def test_planted_jobs_identical_minimizers():
    reports = [
        run_fuzz(FuzzConfig(machine="mini", iters=10, seed=11,
                            plant=PLANT, max_minimize=2, jobs=jobs))
        for jobs in (1, 2)
    ]
    assert reports[0].minimized == reports[1].minimized


# ----------------------------------------------------------------------
# The lanes knob: byte-identical artifacts at any lane width
# ----------------------------------------------------------------------
@requires_numpy
def test_lanes_do_not_change_report():
    base = dict(machine="mini", iters=12, seed=11)
    scalar = _report_bytes(lanes=0, **base)
    assert scalar == _report_bytes(lanes=1, **base)
    assert scalar == _report_bytes(lanes=7, **base)
    assert scalar == _report_bytes(lanes=None, **base)


@requires_numpy
def test_lanes_with_plant_and_jobs():
    for machine, plant in (("mini", PLANT), ("dlx", "bus-ssl:zero:0:1")):
        base = dict(machine=machine, iters=10, seed=11, plant=plant,
                    max_minimize=2)
        scalar = _report_bytes(lanes=0, **base)
        assert scalar == _report_bytes(lanes=4, **base)
        assert scalar == _report_bytes(lanes=4, jobs=2, **base)


@requires_numpy
def test_dlx_bp_lanes_identity():
    base = dict(machine="dlx_bp", iters=6, seed=3)
    assert _report_bytes(lanes=0, **base) == _report_bytes(lanes=None, **base)


def test_scalar_lanes_always_available():
    """``lanes=0`` never needs numpy — the fallback the no-numpy CI tier
    exercises for real."""
    _report_bytes(machine="mini", iters=5, seed=3, lanes=0)


def test_lanes_left_out_of_artifact_config():
    """The knob is an execution strategy: the report's config block (and
    so the artifact bytes) must not mention it."""
    config = FuzzConfig(machine="mini", iters=5, seed=3, lanes=0)
    report = run_fuzz(config)
    processor = machine_adapter(config.machine).build()
    assert "lanes" not in report.to_dict(processor)["config"]


def test_lanes_validation():
    with pytest.raises(ValueError, match="lanes"):
        FuzzConfig(machine="mini", iters=1, seed=1, lanes=-2)


@requires_numpy
def test_matrix_lanes_do_not_change_artifact():
    base = dict(machine="mini", programs=6, length=10, seed=3)
    scalar = _matrix_bytes(lanes=0, **base)
    assert scalar == _matrix_bytes(lanes=3, **base)
    assert scalar == _matrix_bytes(lanes=None, **base)


def test_different_seeds_differ():
    a = run_fuzz(FuzzConfig(machine="mini", iters=10, seed=1, plant=PLANT))
    b = run_fuzz(FuzzConfig(machine="mini", iters=10, seed=2, plant=PLANT))
    # Same machine and planted error, different seeds: the diverging
    # programs themselves must differ (the generator really is seeded).
    assert [d["program"] for d in a.divergences] != \
        [d["program"] for d in b.divergences]
