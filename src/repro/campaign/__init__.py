"""Drive-campaign orchestration: ties route, radio, policy, transport and
applications together to generate the reproduction's dataset."""

from repro.campaign.tests import TestType, TEST_DURATIONS_S
from repro.campaign.link import LinkBlock, LinkColumns, UESession, VehiclePath, drive_block
from repro.campaign.dataset import (
    DriveDataset,
    ThroughputSample,
    RttSample,
    TestRecord,
    HandoverRecord,
    PassiveCoverageSegment,
    OffloadRunResult,
    VideoRunResult,
    GamingRunResult,
)
from repro.campaign.runner import CampaignConfig, DriveCampaign, generate_dataset
from repro.campaign.scheduler import CyclePlan, FULL_CYCLE, NETWORK_ONLY_CYCLE
from repro.campaign.persistence import save_dataset, load_dataset
from repro.campaign.validation import validate_dataset, ValidationReport

__all__ = [
    "TestType",
    "TEST_DURATIONS_S",
    "UESession",
    "LinkBlock",
    "LinkColumns",
    "drive_block",
    "VehiclePath",
    "DriveDataset",
    "ThroughputSample",
    "RttSample",
    "TestRecord",
    "HandoverRecord",
    "PassiveCoverageSegment",
    "OffloadRunResult",
    "VideoRunResult",
    "GamingRunResult",
    "CampaignConfig",
    "DriveCampaign",
    "generate_dataset",
    "CyclePlan",
    "FULL_CYCLE",
    "NETWORK_ONLY_CYCLE",
    "save_dataset",
    "load_dataset",
    "validate_dataset",
    "ValidationReport",
]
