"""Definitions of the measurement tests run round-robin during the drive.

The paper ran bandwidth, RTT, and four mobile-app tests in a round-robin
fashion on the three smartphones (one per carrier) attached to XCAL Solo
probes (§3).
"""

from __future__ import annotations

import enum

from repro.policy.profiles import TrafficProfile
from repro.radio.ca import Direction


class TestType(enum.Enum):
    """One test in the round-robin cycle."""

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    #: Keep pytest from trying to collect this enum as a test class.
    __test__ = False

    DOWNLINK_THROUGHPUT = "dl_tput"
    UPLINK_THROUGHPUT = "ul_tput"
    RTT = "rtt"
    AR = "ar"
    CAV = "cav"
    VIDEO_360 = "video360"
    CLOUD_GAMING = "gaming"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Test durations in seconds (paper: throughput 30-35 s, RTT 20 s, AR/CAV
#: runs 20 s each, video sessions 3 min, app experiments 20-180 s).
TEST_DURATIONS_S: dict[TestType, float] = {
    TestType.DOWNLINK_THROUGHPUT: 30.0,
    TestType.UPLINK_THROUGHPUT: 30.0,
    TestType.RTT: 20.0,
    TestType.AR: 20.0,
    TestType.CAV: 20.0,
    TestType.VIDEO_360: 180.0,
    TestType.CLOUD_GAMING: 60.0,
}

#: Traffic profile the operator's scheduler sees for each test.
TEST_TRAFFIC: dict[TestType, TrafficProfile] = {
    TestType.DOWNLINK_THROUGHPUT: TrafficProfile.BACKLOGGED_DL,
    TestType.UPLINK_THROUGHPUT: TrafficProfile.BACKLOGGED_UL,
    TestType.RTT: TrafficProfile.IDLE_PING,
    TestType.AR: TrafficProfile.BACKLOGGED_UL,
    TestType.CAV: TrafficProfile.BACKLOGGED_UL,
    TestType.VIDEO_360: TrafficProfile.BACKLOGGED_DL,
    TestType.CLOUD_GAMING: TrafficProfile.BACKLOGGED_DL,
}

#: Primary traffic direction of each test (for KPI/capacity logging).
TEST_DIRECTION: dict[TestType, str] = {
    TestType.DOWNLINK_THROUGHPUT: Direction.DOWNLINK,
    TestType.UPLINK_THROUGHPUT: Direction.UPLINK,
    TestType.RTT: Direction.DOWNLINK,
    TestType.AR: Direction.UPLINK,
    TestType.CAV: Direction.UPLINK,
    TestType.VIDEO_360: Direction.DOWNLINK,
    TestType.CLOUD_GAMING: Direction.DOWNLINK,
}
