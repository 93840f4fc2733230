"""The row-object oracle of every paper statistic and analysis bridge.

The library computes each paper statistic once, over the query kernels of
:mod:`repro.store.query`.  This module keeps the straight loops over record
objects that those kernels replaced — per-record filters, left-fold sums,
per-test handover joins — so parity tests can hold every source (row-held
or column-held datasets, store files, catalogs) to them.  The record loop
of :func:`~repro.campaign.validation.validate_dataset`, which now runs on
column arrays, is kept the same way, and so is the passive handover-logger's
zone-by-zone :class:`~repro.policy.selection.TechnologySelector` walk that
:func:`~repro.xcal.handover_logger.run_handover_logger` replaced with one
pass over the deployment arrays.  Nothing here runs outside the tests.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.coverage import CoverageShares, _shares_from_weights
from repro.analysis.performance import StaticVsDriving
from repro.campaign.dataset import DriveDataset, PassiveCoverageSegment
from repro.campaign.validation import ValidationReport
from repro.campaign.tests import TestType
from repro.errors import AnalysisError, ReproError
from repro.geo.timezones import Timezone
from repro.policy.profiles import PolicyProfile, TrafficProfile
from repro.policy import selection
from repro.policy.selection import TechnologySelector
from repro.radio.cells import CellId
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from repro.units import speed_bin

_THROUGHPUT_TEST_TYPES = {
    "downlink": TestType.DOWNLINK_THROUGHPUT,
    "uplink": TestType.UPLINK_THROUGHPUT,
}


def tput_values(dataset: DriveDataset, *args, **kwargs) -> np.ndarray:
    """Throughput values of the records :meth:`DriveDataset.tput` selects."""
    return np.asarray(
        [s.tput_mbps for s in dataset.tput(*args, **kwargs)], dtype=float
    )


def rtt_values(dataset: DriveDataset, *args, **kwargs) -> np.ndarray:
    """RTT values of the records :meth:`DriveDataset.rtts` selects."""
    return np.asarray(
        [s.rtt_ms for s in dataset.rtts(*args, **kwargs)], dtype=float
    )


def active_coverage_shares(
    dataset: DriveDataset,
    operator: Operator,
    direction: str | None = None,
    timezone: Timezone | None = None,
    speed_bin_label: str | None = None,
) -> CoverageShares:
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for s in dataset.tput(operator=operator, direction=direction, static=False):
        if timezone is not None and s.timezone is not timezone:
            continue
        if speed_bin_label is not None and speed_bin(s.speed_mph) != speed_bin_label:
            continue
        weights[s.tech] += max(s.speed_mph, 0.0)
    return _shares_from_weights(operator, weights)


def passive_coverage_shares(
    dataset: DriveDataset, operator: Operator
) -> CoverageShares:
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for seg in dataset.passive_coverage:
        if seg.operator is operator:
            weights[seg.tech] += seg.length_m
    return _shares_from_weights(operator, weights)


def static_vs_driving(dataset: DriveDataset, operator: Operator) -> StaticVsDriving:
    return StaticVsDriving(
        operator=operator,
        static_dl=EmpiricalCDF.from_values(
            tput_values(dataset, operator=operator, direction="downlink", static=True)
        ),
        static_ul=EmpiricalCDF.from_values(
            tput_values(dataset, operator=operator, direction="uplink", static=True)
        ),
        static_rtt=EmpiricalCDF.from_values(
            rtt_values(dataset, operator=operator, static=True)
        ),
        driving_dl=EmpiricalCDF.from_values(
            tput_values(dataset, operator=operator, direction="downlink", static=False)
        ),
        driving_ul=EmpiricalCDF.from_values(
            tput_values(dataset, operator=operator, direction="uplink", static=False)
        ),
        driving_rtt=EmpiricalCDF.from_values(
            rtt_values(dataset, operator=operator, static=False)
        ),
    )


def handovers_per_mile(
    dataset: DriveDataset, operator: Operator, direction: str
) -> EmpiricalCDF:
    test_type = _THROUGHPUT_TEST_TYPES[direction]
    ho_by_test: dict[int, int] = {}
    for h in dataset.handovers_of(operator=operator, direction=direction):
        ho_by_test[h.test_id] = ho_by_test.get(h.test_id, 0) + 1
    rates = []
    for t in dataset.tests_of(test_type=test_type, operator=operator, static=False):
        miles = t.distance_miles
        if miles < 0.02:
            continue  # parked in traffic: a per-mile rate is meaningless
        rates.append(ho_by_test.get(t.test_id, 0) / miles)
    if not rates:
        raise AnalysisError(f"no usable tests for {operator} {direction}")
    return EmpiricalCDF.from_values(rates)


def _quantile(values: np.ndarray, q: float) -> float:
    if values.size == 0:
        return math.nan
    return float(np.quantile(values, q))


def _dl(ds: DriveDataset, op: Operator) -> np.ndarray:
    return tput_values(ds, operator=op, direction="downlink", static=False)


def _statistics() -> dict:
    """Every registered paper statistic as a function of one dataset, in
    registration order."""
    out = {}
    for op in Operator:
        code = op.code
        out[f"coverage_5g_share_{code}"] = (
            lambda ds, op=op: passive_coverage_shares(ds, op).share_5g
        )
        out[f"coverage_hs5g_share_{code}"] = (
            lambda ds, op=op: passive_coverage_shares(ds, op).share_high_speed_5g
        )
        out[f"driving_dl_median_mbps_{code}"] = (
            lambda ds, op=op: _quantile(_dl(ds, op), 0.5)
        )
        out[f"driving_ul_median_mbps_{code}"] = lambda ds, op=op: _quantile(
            tput_values(ds, operator=op, direction="uplink", static=False), 0.5
        )
        out[f"driving_rtt_median_ms_{code}"] = lambda ds, op=op: _quantile(
            rtt_values(ds, operator=op, static=False), 0.5
        )
        out[f"handovers_per_mile_median_{code}"] = (
            lambda ds, op=op: handovers_per_mile(ds, op, "downlink").median
        )
    out["driving_dl_below_5mbps_fraction"] = lambda ds: float(
        np.mean(tput_values(ds, direction="downlink", static=False) < 5.0)
    )
    out["driving_rtt_p95_ms"] = lambda ds: _quantile(
        rtt_values(ds, static=False), 0.95
    )
    out["unique_cells_total"] = lambda ds: float(sum(ds.connected_cells.values()))
    out["passive_handovers_total"] = lambda ds: float(
        sum(ds.passive_handover_counts.values())
    )
    out["ar_e2e_median_ms"] = lambda ds: _quantile(
        np.asarray(
            [r.median_e2e_ms for r in ds.offload_runs
             if r.app.name == "AR" and not r.static],
            dtype=float,
        ),
        0.5,
    )
    out["cav_e2e_median_ms"] = lambda ds: _quantile(
        np.asarray(
            [r.median_e2e_ms for r in ds.offload_runs
             if r.app.name == "CAV" and not r.static],
            dtype=float,
        ),
        0.5,
    )
    out["video_qoe_median"] = lambda ds: _quantile(
        np.asarray([r.qoe for r in ds.video_runs if not r.static], dtype=float),
        0.5,
    )
    out["gaming_bitrate_median_mbps"] = lambda ds: _quantile(
        np.asarray(
            [r.avg_bitrate_mbps for r in ds.gaming_runs if not r.static],
            dtype=float,
        ),
        0.5,
    )
    return out


#: Oracle of each registered statistic, by name.
STATISTICS = _statistics()


def evaluate(dataset: DriveDataset, name: str) -> float:
    """One statistic on one dataset's records; ``NaN`` when not computable,
    exactly as :meth:`repro.sweep.stats.PaperStatistic.evaluate` reports."""
    try:
        value = float(STATISTICS[name](dataset))
    except (ReproError, ValueError, ZeroDivisionError):
        return math.nan
    return value if math.isfinite(value) else math.nan


def statistics(dataset: DriveDataset) -> dict[str, float]:
    """Every statistic on one dataset's records, in registration order."""
    return {name: evaluate(dataset, name) for name in STATISTICS}


def validate(dataset: DriveDataset, max_issues: int = 50) -> ValidationReport:
    """:func:`~repro.campaign.validation.validate_dataset` as a loop over
    the record lists: the same checks, issues and check count."""
    report = ValidationReport()
    tests_by_id = {t.test_id: t for t in dataset.tests}

    def run(check: str, ok: bool, detail: str) -> None:
        report.checks_run += 1
        if not ok and len(report.issues) < max_issues:
            report.add(check, detail)

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

    for test_id, samples in dataset.samples_by_test().items():
        times = [s.time_s for s in samples]
        run("tput.monotone", times == sorted(times),
            f"test {test_id} samples not time-ordered")

    for s in dataset.throughput_samples[:200_000]:
        run("tput.range", 0.0 <= s.tput_mbps < 10_000.0,
            f"throughput {s.tput_mbps} out of range")
        run("kpi.rsrp", -140.0 <= s.rsrp_dbm <= -40.0, f"RSRP {s.rsrp_dbm}")
        run("kpi.mcs", 0 <= s.mcs <= 28, f"MCS {s.mcs}")
        run("kpi.bler", 0.0 <= s.bler <= 1.0, f"BLER {s.bler}")
        run("kpi.speed", 0.0 <= s.speed_mph <= 130.0, f"speed {s.speed_mph}")
    for s in dataset.rtt_samples[:200_000]:
        run("rtt.range", 0.0 < s.rtt_ms < 60_000.0, f"RTT {s.rtt_ms}")

    for h in dataset.handovers:
        run("ho.test-ref", h.test_id in tests_by_id,
            f"handover references unknown test {h.test_id}")
        run("ho.duration", h.event.duration_ms > 0.0,
            f"non-positive handover duration {h.event.duration_ms}")
        run("ho.operator-test",
            h.test_id not in tests_by_id
            or tests_by_id[h.test_id].operator is h.event.operator,
            f"handover operator mismatch on test {h.test_id}")

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


def cascade_down(zone, target: RadioTechnology) -> RadioTechnology:
    """The most capable technology deployed in ``zone`` at or below
    ``target``; LTE if there is none (the sorted-set walk that
    ``selection._CASCADE`` tabulates)."""
    for tech in sorted(zone.deployed, key=lambda t: t.rank, reverse=True):
        if tech.rank <= target.rank:
            return tech
    return RadioTechnology.LTE


def best_deployed_4g(zone) -> RadioTechnology:
    """The most capable 4G technology deployed in ``zone`` (what
    ``selection._BEST_4G`` tabulates)."""
    if RadioTechnology.LTE_A in zone.deployed:
        return RadioTechnology.LTE_A
    return RadioTechnology.LTE


def handover_logger(
    operator: Operator,
    deployment: DeploymentModel,
    rng: np.random.Generator,
    start_m: float,
    end_m: float,
    profile: PolicyProfile | None = None,
) -> tuple[list[PassiveCoverageSegment], int, frozenset[CellId]]:
    """The passive logger's segments, macro handover count and macro cell
    ids over ``[start_m, end_m)``: one ``TechnologySelector.select`` and
    one segment record per active zone, the selector's cascade resolved by
    :func:`cascade_down` and :func:`best_deployed_4g` rather than by the
    tables the array walk shares with it."""
    selector = TechnologySelector(operator, rng, profile=profile)
    zones = deployment.zones
    with mock.patch.multiple(
        selection, _cascade_down=cascade_down, _best_deployed_4g=best_deployed_4g
    ):
        segments = [
            PassiveCoverageSegment(
                operator=operator,
                start_m=max(zone.start_m, start_m),
                end_m=min(zone.end_m, end_m),
                tech=selector.select(zone, TrafficProfile.IDLE_PING),
                timezone=zone.timezone,
                region=zone.region,
            )
            for zone in zones[zones.overlapping(start_m, end_m)]
        ]
    macro = deployment.macro_zones
    starts = [z.start_m for z in macro]
    handovers = sum(1 for s in starts if start_m <= s < end_m and s > 0.0)
    cells = frozenset(
        c.cell_id
        for z in macro[macro.overlapping(start_m, end_m)]
        for c in z.cells.values()
    )
    return segments, handovers, cells

