"""Round-robin test scheduling.

The paper ran its tests "in a round robin fashion" (§3).  A
:class:`CyclePlan` makes the cycle explicit and configurable: the default
plan reproduces the paper's full suite; reduced plans (network-only, single
app) support focused studies without paying for the whole battery.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.campaign.tests import TestType
from repro.errors import CampaignError

__all__ = ["CyclePlan", "FULL_CYCLE", "NETWORK_ONLY_CYCLE"]


@dataclass(frozen=True)
class CyclePlan:
    """An ordered round-robin cycle of test types.

    AR and CAV entries expand into two runs each (with and without frame
    compression), matching the paper's methodology (Appendix C.1).
    """

    tests: tuple[TestType, ...]

    def __post_init__(self) -> None:
        if not self.tests:
            raise CampaignError("a cycle plan needs at least one test")

    def without_apps(self) -> "CyclePlan":
        """The plan restricted to network tests (throughput + RTT)."""
        network = tuple(
            t for t in self.tests
            if t in (TestType.DOWNLINK_THROUGHPUT, TestType.UPLINK_THROUGHPUT, TestType.RTT)
        )
        if not network:
            raise CampaignError("plan has no network tests to keep")
        return CyclePlan(tests=network)

    def runs(self) -> Iterator[tuple[TestType, bool]]:
        """The cycle's runs in order, as ``(test_type, compression)``.

        AR and CAV run twice, without then with frame compression; every
        other test runs once (``compression`` is ``False``).
        """
        for test_type in self.tests:
            if test_type in (TestType.AR, TestType.CAV):
                yield test_type, False
                yield test_type, True
            else:
                yield test_type, False

    def run_count(self, test_type: TestType) -> int:
        """Number of runs of ``test_type`` per cycle."""
        return sum(1 for t, _ in self.runs() if t is test_type)


#: The paper's full round-robin suite (§3).
FULL_CYCLE = CyclePlan(tests=(
    TestType.DOWNLINK_THROUGHPUT,
    TestType.UPLINK_THROUGHPUT,
    TestType.RTT,
    TestType.AR,
    TestType.CAV,
    TestType.VIDEO_360,
    TestType.CLOUD_GAMING,
))

#: Throughput + RTT only — the §5 analyses without the app battery.
NETWORK_ONLY_CYCLE = FULL_CYCLE.without_apps()
