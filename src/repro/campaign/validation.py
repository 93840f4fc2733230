"""Dataset integrity validation.

A released measurement dataset needs a validator — consumers must be able to
check that the files they downloaded (or the campaign they generated) are
internally consistent before building analyses on them.  The checks here are
exactly the invariants the analysis modules rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.dataset import DriveDataset
from repro.campaign.tests import TestType
from repro.radio.operators import Operator

__all__ = ["ValidationIssue", "ValidationReport", "validate_dataset"]


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One violated invariant."""

    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.detail}"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_dataset`."""

    issues: list[ValidationIssue] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, check: str, detail: str) -> None:
        self.issues.append(ValidationIssue(check=check, detail=detail))


def validate_dataset(dataset: DriveDataset, max_issues: int = 50) -> ValidationReport:
    """Run every integrity check; returns a report (never raises).

    Checks:

    * sample/test referential integrity (every sample's test exists, and
      samples fall inside their test's time window);
    * per-test sample counts and time monotonicity;
    * physical ranges (throughput, RTT, RSRP, MCS, BLER, speed);
    * handover events attached to existing tests, positive durations;
    * passive coverage tiles the route per operator: no overlaps, no gaps,
      from 0 to the route length;
    * app runs reference valid fractions and non-negative byte counts.
    """
    report = ValidationReport()
    tests_by_id = {t.test_id: t for t in dataset.tests}

    def run(check: str, ok: bool, detail: str) -> None:
        report.checks_run += 1
        if not ok and len(report.issues) < max_issues:
            report.add(check, detail)

    # --- referential integrity & windows --------------------------------
    for s in dataset.throughput_samples:
        test = tests_by_id.get(s.test_id)
        if test is None:
            run("tput.test-ref", False, f"sample references unknown test {s.test_id}")
            continue
        run(
            "tput.window",
            test.start_time_s - 1e-6 <= s.time_s <= test.end_time_s + 1e-6,
            f"sample at t={s.time_s} outside test {s.test_id} window",
        )
        run("tput.operator", s.operator is test.operator,
            f"sample operator {s.operator} != test operator {test.operator}")
    for s in dataset.rtt_samples:
        test = tests_by_id.get(s.test_id)
        run("rtt.test-ref", test is not None, f"unknown test {s.test_id}")

    # --- per-test monotonicity -------------------------------------------
    for test_id, samples in dataset.samples_by_test().items():
        times = [s.time_s for s in samples]
        run("tput.monotone", times == sorted(times),
            f"test {test_id} samples not time-ordered")

    # --- physical ranges ---------------------------------------------------
    for s in dataset.throughput_samples[:200_000]:
        run("tput.range", 0.0 <= s.tput_mbps < 10_000.0,
            f"throughput {s.tput_mbps} out of range")
        run("kpi.rsrp", -140.0 <= s.rsrp_dbm <= -40.0, f"RSRP {s.rsrp_dbm}")
        run("kpi.mcs", 0 <= s.mcs <= 28, f"MCS {s.mcs}")
        run("kpi.bler", 0.0 <= s.bler <= 1.0, f"BLER {s.bler}")
        run("kpi.speed", 0.0 <= s.speed_mph <= 130.0, f"speed {s.speed_mph}")
    for s in dataset.rtt_samples[:200_000]:
        run("rtt.range", 0.0 < s.rtt_ms < 60_000.0, f"RTT {s.rtt_ms}")

    # --- handovers ----------------------------------------------------------
    for h in dataset.handovers:
        run("ho.test-ref", h.test_id in tests_by_id,
            f"handover references unknown test {h.test_id}")
        run("ho.duration", h.event.duration_ms > 0.0,
            f"non-positive handover duration {h.event.duration_ms}")
        run("ho.operator-test",
            h.test_id not in tests_by_id
            or tests_by_id[h.test_id].operator is h.event.operator,
            f"handover operator mismatch on test {h.test_id}")

    # --- passive coverage tiling ---------------------------------------------
    route_end_m = dataset.route_length_km * 1000.0
    for op in Operator:
        segs = sorted(
            (s for s in dataset.passive_coverage if s.operator is op),
            key=lambda s: s.start_m,
        )
        if segs:
            run("passive.tiling", abs(segs[0].start_m) <= 1e-3,
                f"{op} passive coverage starts at {segs[0].start_m}, not 0")
            run("passive.tiling", abs(segs[-1].end_m - route_end_m) <= 1e-3,
                f"{op} passive coverage ends at {segs[-1].end_m}, "
                f"not the route end {route_end_m}")
        for prev, cur in zip(segs, segs[1:]):
            run("passive.tiling", cur.start_m >= prev.end_m - 1e-6,
                f"{op} passive segments overlap at {cur.start_m}")
            run("passive.tiling", cur.start_m <= prev.end_m + 1e-6,
                f"{op} passive coverage has a gap at {prev.end_m}")

    # --- app runs -------------------------------------------------------------
    for r in dataset.offload_runs:
        run("app.frac", 0.0 <= r.frac_hs5g <= 1.0, f"frac_hs5g {r.frac_hs5g}")
        run("app.bytes", r.uplink_megabits >= 0.0, "negative uplink volume")
        run("app.kind", r.app in (TestType.AR, TestType.CAV), f"bad app {r.app}")
    for r in dataset.video_runs:
        run("video.rebuffer", 0.0 <= r.rebuffer_ratio <= 1.0,
            f"rebuffer ratio {r.rebuffer_ratio}")
    for r in dataset.gaming_runs:
        run("gaming.drop", 0.0 <= r.frame_drop_rate <= 1.0,
            f"drop rate {r.frame_drop_rate}")

    return report
