"""Tests for the campaign drivers and Table-1 reporting."""

import pytest

from repro.campaign import CampaignReport, DlxCampaign, ErrorOutcome, MiniCampaign
from repro.errors import BusSSLError


def test_report_statistics():
    report = CampaignReport(
        outcomes=[
            ErrorOutcome("e1", True, test_length=6, backtracks=3,
                         final_backtracks=2, cpu_seconds=30.0),
            ErrorOutcome("e2", True, test_length=8, backtracks=1,
                         final_backtracks=1, cpu_seconds=50.0),
            ErrorOutcome("e3", False, failure_stage="tg", backtracks=99,
                         final_backtracks=50, cpu_seconds=40.0),
        ],
        total_seconds=45.0,
    )
    assert report.n_errors == 3
    assert report.n_detected == 2
    assert report.n_aborted == 1
    assert report.detection_rate == pytest.approx(2 / 3)
    assert report.avg_test_length == 7.0
    # The paper counts the successful searches' backtracks, detected only.
    assert report.backtracks_detected == 3
    assert report.backtracks_total == 103
    # CPU time is the outcomes' own CPU seconds, not the run's wall time.
    assert report.cpu_minutes == 2.0


def test_report_table_format():
    report = CampaignReport(
        outcomes=[ErrorOutcome("e", True, test_length=6)],
        total_seconds=60.0,
    )
    table = report.table1("My campaign")
    assert "My campaign" in table
    assert "No. of errors detected" in table
    assert "CPU time [minutes]" in table
    lines = table.splitlines()
    assert len(lines) == 8


def test_empty_report():
    report = CampaignReport()
    assert report.detection_rate == 0.0
    assert report.avg_test_length == 0.0


def test_mini_campaign_end_to_end():
    campaign = MiniCampaign(deadline_seconds=10.0)
    errors = [BusSSLError("alu_mux.y", 0, 0), BusSSLError("wb_res.y", 3, 1)]
    report = campaign.run(errors)
    assert report.n_errors == 2
    assert report.n_detected == 2
    for outcome in report.outcomes:
        assert outcome.test_length > 0
        assert outcome.seconds > 0


def test_mini_campaign_default_errors():
    campaign = MiniCampaign()
    errors = campaign.default_errors()
    assert len(errors) > 50
    nets = {e.net for e in errors}
    assert "alu_mux.y" in nets


def test_dlx_campaign_default_error_count():
    campaign = DlxCampaign()
    errors = campaign.default_errors(max_bits_per_net=4)
    # The paper targeted 298 errors; our enumeration lands nearby.
    assert 250 <= len(errors) <= 350
    # Only EX/MEM/WB stage nets.
    dp = campaign.processor.datapath
    assert all(dp.net(e.net).stage in (2, 3, 4) for e in errors)


def test_mini_campaign_error_simulation_drops():
    """MiniCampaign.run supports the same fault dropping as DlxCampaign:
    the test for alu_mux.y[0] stuck-at-0 also detects wb_res.y[3]
    stuck-at-1, which is dropped from the TG work list."""
    campaign = MiniCampaign(deadline_seconds=10.0)
    errors = [BusSSLError("alu_mux.y", 0, 0), BusSSLError("wb_res.y", 3, 1)]
    report = campaign.run(errors, error_simulation=True)
    assert report.n_errors == 2
    assert report.n_detected == 2
    dropped = [o for o in report.outcomes if o.dropped_by]
    assert len(dropped) == 1
    assert dropped[0].error == "bus-ssl wb_res.y[3] stuck-at-1"
    assert dropped[0].dropped_by == "bus-ssl alu_mux.y[0] stuck-at-0"
    assert dropped[0].detected
    assert dropped[0].test_length > 0
    # Dropping spent zero TG effort on the dropped error.
    assert dropped[0].backtracks == 0
    assert dropped[0].attempts == 0


def test_mini_campaign_dropping_off_by_default():
    campaign = MiniCampaign(deadline_seconds=10.0)
    errors = [BusSSLError("alu_mux.y", 0, 0), BusSSLError("wb_res.y", 3, 1)]
    report = campaign.run(errors)
    assert all(not o.dropped_by for o in report.outcomes)
    assert report.n_detected == 2


def test_dropped_outcome_ordering_follows_dropper():
    """Dropped outcomes are recorded right after the error whose test
    dropped them — the order a resumable checkpoint must reproduce."""
    campaign = MiniCampaign(deadline_seconds=10.0)
    errors = [
        BusSSLError("alu_mux.y", 0, 0),
        BusSSLError("alu_add.y", 2, 0),
        BusSSLError("wb_res.y", 3, 1),
    ]
    report = campaign.run(errors, error_simulation=True)
    names = [o.error for o in report.outcomes]
    assert names[0] == "bus-ssl alu_mux.y[0] stuck-at-0"
    assert names[1] == "bus-ssl wb_res.y[3] stuck-at-1"  # dropped, pulled up
    assert names[2] == "bus-ssl alu_add.y[2] stuck-at-0"


def test_dlx_campaign_single_error():
    campaign = DlxCampaign(deadline_seconds=15.0)
    outcome = campaign.run_error(BusSSLError("mem_sdata.y", 2, 0))
    assert outcome.detected
    assert outcome.test_length >= campaign.processor.n_stages
    assert outcome.nontrivial_instructions >= 1
