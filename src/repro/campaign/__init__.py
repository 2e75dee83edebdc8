"""Campaign drivers, parallel orchestration, Table-1 reporting and suite
serialization."""

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointRecord
from repro.campaign.events import (
    EVENT_KINDS,
    CampaignEvent,
    EventLog,
    EventStream,
    ProgressRenderer,
)
from repro.campaign.orchestrator import (
    CampaignOrchestrator,
    OrchestratorConfig,
    build_campaign,
    campaign_run_to_dict,
)
from repro.campaign.runner import (
    CampaignBase,
    CampaignReport,
    DlxCampaign,
    ErrorOutcome,
    MiniCampaign,
)
from repro.campaign.serialize import (
    load_json,
    realized_dlx_from_dict,
    realized_dlx_to_dict,
    realized_mini_from_dict,
    realized_mini_to_dict,
    report_from_dict,
    report_to_dict,
    save_json,
    testcase_from_dict,
    testcase_to_dict,
)

__all__ = [
    "EVENT_KINDS",
    "CampaignBase",
    "CampaignCheckpoint",
    "CampaignEvent",
    "CampaignOrchestrator",
    "CampaignReport",
    "CheckpointRecord",
    "DlxCampaign",
    "ErrorOutcome",
    "EventLog",
    "EventStream",
    "MiniCampaign",
    "OrchestratorConfig",
    "ProgressRenderer",
    "build_campaign",
    "campaign_run_to_dict",
    "load_json",
    "realized_dlx_from_dict",
    "realized_dlx_to_dict",
    "realized_mini_from_dict",
    "realized_mini_to_dict",
    "report_from_dict",
    "report_to_dict",
    "save_json",
    "testcase_from_dict",
    "testcase_to_dict",
]
