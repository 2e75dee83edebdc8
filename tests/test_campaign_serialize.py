"""Round-trip tests for test-suite serialization."""

import pytest

from repro.campaign.runner import CampaignReport, ErrorOutcome
from repro.campaign.serialize import (
    load_json,
    realized_dlx_from_dict,
    realized_dlx_to_dict,
    report_from_dict,
    report_to_dict,
    save_json,
)
from repro.campaign.serialize import testcase_from_dict as tc_from_dict
from repro.campaign.serialize import testcase_to_dict as tc_to_dict
from repro.core.tg import SEARCH_COUNTERS, TestCase, TestGenerator, TGStatus
from repro.errors import BusSSLError
from repro.mini import build_minipipe


def test_testcase_roundtrip():
    test = TestCase(
        n_frames=3,
        cpi_frames=[{"op": 1}, {"op": 0}, {"op": 2}],
        dpi_frames=[{"rf_a": 5}, {}, {"imm": 7}],
        stimulus_state={"r": 9},
        error="bus-ssl x[0] stuck-at-1",
        activation_frame=1,
        observation=(2, "out"),
        decided_cpi=frozenset({(0, "op"), (2, "op")}),
    )
    data = tc_to_dict(test)
    rebuilt = tc_from_dict(data)
    assert rebuilt == test


def test_testcase_kind_checked():
    with pytest.raises(ValueError):
        tc_from_dict({"kind": "other"})


def test_generated_testcase_roundtrips(tmp_path):
    processor = build_minipipe()
    result = TestGenerator(processor).generate(BusSSLError("alu_mux.y", 1, 0))
    assert result.status is TGStatus.DETECTED
    path = tmp_path / "test.json"
    save_json(tc_to_dict(result.test), str(path))
    rebuilt = tc_from_dict(load_json(str(path)))
    assert rebuilt == result.test


def test_realized_dlx_roundtrip_behaviour(tmp_path):
    """A saved DLX test replays with identical specification behaviour."""
    from repro.dlx import DlxSpec, build_dlx, detects
    from repro.dlx.realize import realize

    dlx = build_dlx()
    error = BusSSLError("alu_add.y", 0, 0)
    result = TestGenerator(dlx, deadline_seconds=20).generate(error)
    assert result.status is TGStatus.DETECTED
    realized = realize(dlx, result.test)

    path = tmp_path / "dlx_test.json"
    save_json(realized_dlx_to_dict(realized), str(path))
    rebuilt = realized_dlx_from_dict(load_json(str(path)))

    original = DlxSpec().run(
        realized.program, realized.init_regs, realized.init_memory
    )
    replayed = DlxSpec().run(
        rebuilt.program, rebuilt.init_regs, rebuilt.init_memory
    )
    assert replayed.events == original.events
    assert detects(dlx, rebuilt.program, error,
                   rebuilt.init_regs, rebuilt.init_memory)

    # The stored test is the realized one exactly, including the fields
    # the assembly syntax has no operand for.
    from repro.dlx.isa import Instruction
    from repro.dlx.realize import RealizedDlxTest

    exact = RealizedDlxTest(
        program=[
            Instruction("AND", rs=2, rt=2, rd=1, imm=65535),
            Instruction("ADDI", rs=3, rt=4, rd=7, imm=5),
            Instruction("BEQZ", rs=1, rt=6),
        ],
        init_regs=[0, 1, 2, 3] + [0] * 28,
        init_memory={16: 9},
    )
    save_json(realized_dlx_to_dict(exact), str(path))
    assert realized_dlx_from_dict(load_json(str(path))) == exact
    # Tests stored before the fields were written load from assembly.
    legacy = realized_dlx_to_dict(realized)
    del legacy["program"]
    assert realized_dlx_from_dict(legacy).program == realized.program


def test_report_roundtrip():
    report = CampaignReport(
        outcomes=[
            ErrorOutcome("e1", True, test_length=6, final_backtracks=2),
            ErrorOutcome("e2", False, failure_stage="tg"),
        ],
        total_seconds=30.0,
    )
    rebuilt = report_from_dict(report_to_dict(report))
    assert rebuilt.n_detected == 1
    assert rebuilt.outcomes[0].final_backtracks == 2
    assert rebuilt.table1() == report.table1()


def test_report_with_retired_outcome_fields_loads():
    data = report_to_dict(CampaignReport(
        outcomes=[ErrorOutcome("e1", True, test_length=6)],
        total_seconds=3.0,
    ))
    data["outcomes"][0].update(restarts=0, deadline_grant=20.0,
                               exposure_forks=1, exposure_fork_decided=1)
    # Reports written before the ``counters`` mapping hold each counter
    # as a flat outcome field; an older one lacks some of them.
    del data["outcomes"][0]["counters"]
    data["outcomes"][0].update(golden_misses=1, path_cache_misses=6)
    [outcome] = report_from_dict(data).outcomes
    assert outcome.test_length == 6
    assert outcome.counters == {**dict.fromkeys(SEARCH_COUNTERS, 0),
                                "golden_misses": 1, "path_cache_misses": 6}


def test_report_roundtrip_with_dropped_outcomes():
    """A report containing fault-dropped outcomes survives the round trip
    with the dropping provenance intact."""
    report = CampaignReport(
        outcomes=[
            ErrorOutcome("e1", True, test_length=4, final_backtracks=1),
            ErrorOutcome("e2", True, test_length=4,
                         nontrivial_instructions=2, dropped_by="e1"),
            ErrorOutcome("e3", False, failure_stage="realize"),
        ],
        total_seconds=12.0,
    )
    rebuilt = report_from_dict(report_to_dict(report))
    assert rebuilt.n_errors == 3
    assert rebuilt.n_detected == 2
    assert rebuilt.outcomes[1].dropped_by == "e1"
    assert rebuilt.outcomes[1].detected
    assert rebuilt.outcomes[1].nontrivial_instructions == 2
    assert rebuilt.outcomes[2].failure_stage == "realize"
    assert rebuilt.table1() == report.table1()


def test_realized_mini_roundtrip_behaviour():
    """A saved MiniPipe test replays with identical detection behaviour."""
    from repro.campaign.serialize import (
        realized_mini_from_dict,
        realized_mini_to_dict,
    )
    from repro.mini import detects
    from repro.mini.realize import realize

    processor = build_minipipe()
    error = BusSSLError("alu_mux.y", 1, 0)
    result = TestGenerator(processor).generate(error)
    assert result.status is TGStatus.DETECTED
    realized = realize(result.test)

    rebuilt = realized_mini_from_dict(realized_mini_to_dict(realized))
    assert rebuilt.program == realized.program
    assert rebuilt.init_regs == realized.init_regs
    assert detects(processor, rebuilt.program, error, rebuilt.init_regs)


def test_realized_mini_kind_checked():
    from repro.campaign.serialize import realized_mini_from_dict

    with pytest.raises(ValueError):
        realized_mini_from_dict({"kind": "dlx-test"})


def test_save_json_is_atomic(tmp_path):
    """save_json replaces the target in one step and leaves no temp file."""
    import os

    path = tmp_path / "report.json"
    save_json({"kind": "campaign-report", "v": 1}, str(path))
    save_json({"kind": "campaign-report", "v": 2}, str(path))
    assert load_json(str(path))["v"] == 2
    assert os.listdir(tmp_path) == ["report.json"]


def test_save_json_failure_leaves_old_file_intact(tmp_path):
    """An unserializable object must not clobber the previous artifact."""
    import os

    path = tmp_path / "report.json"
    save_json({"v": "good"}, str(path))
    with pytest.raises(TypeError):
        save_json({"v": object()}, str(path))
    assert load_json(str(path))["v"] == "good"
    assert os.listdir(tmp_path) == ["report.json"]
