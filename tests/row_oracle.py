"""The row-object oracle of every paper statistic, table and figure.

The library computes each paper statistic, table and figure once, over the
query kernels of :mod:`repro.store.query`.  This module keeps the straight
loops over record objects that those kernels replaced — the record filters
``DriveDataset`` once had (:func:`tput`, :func:`rtts`, :func:`tests_of`,
:func:`handovers_of`, :func:`samples_by_test`), left-fold sums, per-test
joins, the half-second concurrent-sample index — so parity tests can hold
every source (row-held or column-held datasets, store files, catalogs) to
them.  The record loop
of :func:`~repro.campaign.validation.validate_dataset`, which now runs on
column arrays, is kept the same way, and so is the passive handover-logger's
zone-by-zone :class:`~repro.policy.selection.TechnologySelector` walk that
:func:`~repro.xcal.handover_logger.run_handover_logger` replaced with one
pass over the deployment arrays.  Its tick-major campaign
(:class:`RowDriveCampaign`) drives the scalar link models of
``tests/scalar_models.py``.  Nothing here runs outside the tests.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from datetime import timedelta
from unittest import mock

import numpy as np
from scipy import stats as scipy_stats

from repro.analysis import apps, compare, longterm, multivariate
from repro.apps.gaming import run_gaming_session
from repro.apps.offload import AR_CONFIG, CAV_CONFIG, run_offload_app
from repro.apps.schedule import LinkSchedule
from repro.apps.video import VideoConfig, run_video_session
from repro.campaign.dataset import GamingRunResult, OffloadRunResult, VideoRunResult
from repro.campaign.link import (
    _ATT_MMWAVE_UL_BREAK_PROB,
    _ATT_MMWAVE_UL_FACTOR_RANGE,
    _TCP_RTT_FLOOR_MS,
    _TCP_RTT_INFLATION,
    StaticSite,
)
from repro.campaign.runner import (
    _PING_INTERVAL_S,
    NOMINAL_CRUISE_MPS,
    CampaignConfig,
    CampaignWindow,
)
from repro.campaign.tests import TEST_DIRECTION, TEST_TRAFFIC
from repro.engine import worker
from repro.geo.regions import RegionType
from repro.geo.route import Route, RoutePosition, build_cross_country_route
from repro.geo.speed import SpeedProfile
from repro.mobility.events import HandoverEvent
from repro.net.servers import Server, ServerRegistry
from repro.net.tcp import CubicFlow
from repro.radio.ca import CarrierAggregationModel, Direction
from repro.radio.cells import Cell
from repro.radio.deployment import DeploymentZone
from repro.rng import RngFactory, clamp
from repro.analysis.apps import GamingAppReport, OffloadAppReport, VideoAppReport
from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.compare import DatasetComparison
from repro.analysis.correlation import CorrelationRow
from repro.analysis.coverage import CoverageShares, _shares_from_weights
from repro.analysis.handovers import HandoverImpact
from repro.analysis.longterm import PerTestStats
from repro.analysis.multivariate import MultivariateFit
from repro.analysis.opdiversity import PairedDiff
from repro.analysis.performance import StaticVsDriving
from repro.analysis.recommendations import (
    CompressionGain,
    EdgeGain,
    MultipathGain,
    RecommendationsReport,
)
from repro.campaign.dataset import (
    DatasetSummary,
    DriveDataset,
    HandoverRecord,
    PassiveCoverageSegment,
    RttSample,
    TestRecord,
    ThroughputSample,
)
from repro.campaign.validation import ValidationReport
from repro.campaign.tests import TestType
from repro.errors import AnalysisError, ReproError
from repro.mobility.events import HandoverType
from repro.net import multipath
from repro.net.multipath import MultipathResult, MultipathScheduler
from repro.policy import inference
from repro.policy.inference import IdleUpgradeEstimate
from repro.geo.timezones import Timezone, timezone_for_longitude
from repro.net.servers import ServerKind
from repro.policy.profiles import PolicyProfile, TrafficProfile
from repro.policy import selection
from repro.policy.selection import TechnologySelector
from repro.radio.cells import CellId
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.radio.technology import (
    ALL_TECHNOLOGIES,
    HIGH_THROUGHPUT_TECHS,
    RadioTechnology,
)
from repro.units import bytes_to_gigabytes, megabits_to_bytes, speed_bin
from repro.xcal import export
from repro.xcal.applog import AppLogFile
from repro.xcal.drm import DrmFile
from repro.xcal.records import SignalingRecord, XcalKpiRecord
from tests.scalar_models import ChannelModel, HandoverEngine, PhyModel, RttModel

_THROUGHPUT_TEST_TYPES = {
    "downlink": TestType.DOWNLINK_THROUGHPUT,
    "uplink": TestType.UPLINK_THROUGHPUT,
}


# -- record filters -------------------------------------------------------


def tput(
    dataset: DriveDataset,
    operator: Operator | None = None,
    direction: str | None = None,
    static: bool | None = None,
    techs=None,
    server_kind: ServerKind | None = None,
    timezone: Timezone | None = None,
) -> list[ThroughputSample]:
    """Filter throughput samples; ``None`` criteria match everything."""
    tech_set = frozenset(techs) if techs is not None else None
    return [
        s
        for s in dataset.throughput_samples
        if (operator is None or s.operator is operator)
        and (direction is None or s.direction == direction)
        and (static is None or s.static == static)
        and (tech_set is None or s.tech in tech_set)
        and (server_kind is None or s.server_kind is server_kind)
        and (timezone is None or s.timezone is timezone)
    ]


def rtts(
    dataset: DriveDataset,
    operator: Operator | None = None,
    static: bool | None = None,
    techs=None,
    server_kind: ServerKind | None = None,
) -> list[RttSample]:
    """Filter RTT samples; ``None`` criteria match everything."""
    tech_set = frozenset(techs) if techs is not None else None
    return [
        s
        for s in dataset.rtt_samples
        if (operator is None or s.operator is operator)
        and (static is None or s.static == static)
        and (tech_set is None or s.tech in tech_set)
        and (server_kind is None or s.server_kind is server_kind)
    ]


def tests_of(
    dataset: DriveDataset,
    test_type: TestType | None = None,
    operator: Operator | None = None,
    static: bool | None = None,
) -> list[TestRecord]:
    """Filter test records."""
    return [
        t
        for t in dataset.tests
        if (test_type is None or t.test_type is test_type)
        and (operator is None or t.operator is operator)
        and (static is None or t.static == static)
    ]


def handovers_of(
    dataset: DriveDataset,
    operator: Operator | None = None,
    direction: str | None = None,
) -> list[HandoverRecord]:
    """Filter handover records observed during tests."""
    return [
        h
        for h in dataset.handovers
        if (operator is None or h.event.operator is operator)
        and (direction is None or h.direction == direction)
    ]


def samples_by_test(dataset: DriveDataset) -> dict[int, list[ThroughputSample]]:
    """Group throughput samples by test id, preserving row order."""
    grouped: dict[int, list[ThroughputSample]] = {}
    for s in dataset.throughput_samples:
        grouped.setdefault(s.test_id, []).append(s)
    return grouped


def tput_values(dataset: DriveDataset, *args, **kwargs) -> np.ndarray:
    """Throughput values of the records :func:`tput` selects."""
    return np.asarray(
        [s.tput_mbps for s in tput(dataset, *args, **kwargs)], dtype=float
    )


def rtt_values(dataset: DriveDataset, *args, **kwargs) -> np.ndarray:
    """RTT values of the records :func:`rtts` selects."""
    return np.asarray(
        [s.rtt_ms for s in rtts(dataset, *args, **kwargs)], dtype=float
    )


def active_coverage_shares(
    dataset: DriveDataset,
    operator: Operator,
    direction: str | None = None,
    timezone: Timezone | None = None,
    speed_bin_label: str | None = None,
) -> CoverageShares:
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for s in tput(dataset, operator=operator, direction=direction, static=False):
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
    for h in handovers_of(dataset, operator=operator, direction=direction):
        ho_by_test[h.test_id] = ho_by_test.get(h.test_id, 0) + 1
    rates = []
    for t in tests_of(dataset, test_type=test_type, operator=operator, static=False):
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

    for test_id, samples in samples_by_test(dataset).items():
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



# -- tables and figures -------------------------------------------------------


def handover_durations(
    dataset: DriveDataset, operator: Operator, direction: str | None = None
) -> EmpiricalCDF:
    durations = [
        h.event.duration_ms
        for h in handovers_of(dataset, operator=operator, direction=direction)
    ]
    if not durations:
        raise AnalysisError(f"no handovers recorded for {operator}")
    return EmpiricalCDF.from_values(durations)


def handover_type_distribution(
    dataset: DriveDataset, operator: Operator | None = None
) -> dict[HandoverType, float]:
    counts: dict[HandoverType, int] = {t: 0 for t in HandoverType}
    total = 0
    for h in handovers_of(dataset, operator=operator):
        counts[h.event.handover_type] += 1
        total += 1
    if total == 0:
        raise AnalysisError("no handovers recorded")
    return {t: c / total for t, c in counts.items()}


def handover_impact(
    dataset: DriveDataset, operator: Operator, direction: str
) -> HandoverImpact:
    wanted = {
        t.test_id
        for t in tests_of(
            dataset, test_type=_THROUGHPUT_TEST_TYPES[direction],
            operator=operator, static=False,
        )
    }
    ho_index: dict[int, list] = {}
    for h in dataset.handovers:
        ho_index.setdefault(h.test_id, []).append(h)
    d1, d2 = [], []
    d2_by_type: dict[HandoverType, list[float]] = {t: [] for t in HandoverType}
    for test_id, samples in samples_by_test(dataset).items():
        if test_id not in wanted:
            continue
        samples = sorted(samples, key=lambda s: s.time_s)
        tputs = [s.tput_mbps for s in samples]
        for i, s in enumerate(samples):
            if s.ho_count == 0:
                continue
            if i < 2 or i > len(samples) - 3:
                continue
            t1_, t2_, t3_, t4_, t5_ = tputs[i - 2 : i + 3]
            d1.append(t3_ - (t2_ + t4_) / 2.0)
            delta2 = (t4_ + t5_) / 2.0 - (t1_ + t2_) / 2.0
            d2.append(delta2)
            for h in ho_index.get(test_id, ()):
                if s.time_s - 0.5 < h.event.time_s <= s.time_s:
                    d2_by_type[h.event.handover_type].append(delta2)
                    break
    if not d1:
        raise AnalysisError(f"no in-test handovers for {operator} {direction}")
    return HandoverImpact(
        operator=operator,
        direction=direction,
        delta_t1=EmpiricalCDF.from_values(d1),
        delta_t2=EmpiricalCDF.from_values(d2),
        delta_t2_by_type={
            t: EmpiricalCDF.from_values(v)
            for t, v in d2_by_type.items() if len(v) >= 5
        },
    )


def _grouped(samples, wanted: set[int]) -> dict[int, list]:
    grouped: dict[int, list] = {}
    for s in samples:
        if s.test_id in wanted:
            grouped.setdefault(s.test_id, []).append(s)
    return grouped


def _per_test_samples(dataset: DriveDataset, operator: Operator, kind: str) -> list[list]:
    test_type = _THROUGHPUT_TEST_TYPES.get(kind, TestType.RTT)
    wanted = {
        t.test_id
        for t in tests_of(dataset, test_type=test_type, operator=operator, static=False)
    }
    samples = dataset.rtt_samples if kind == "rtt" else dataset.throughput_samples
    return list(_grouped(samples, wanted).values())


def _value(s) -> float:
    return s.rtt_ms if isinstance(s, RttSample) else s.tput_mbps


def per_test_throughput_stats(
    dataset: DriveDataset, operator: Operator, direction: str
) -> PerTestStats:
    return longterm._stats(
        [np.asarray([s.tput_mbps for s in g])
         for g in _per_test_samples(dataset, operator, direction)],
        operator, f"tput_{direction}",
    )


def per_test_rtt_stats(dataset: DriveDataset, operator: Operator) -> PerTestStats:
    return longterm._stats(
        [np.asarray([s.rtt_ms for s in g])
         for g in _per_test_samples(dataset, operator, "rtt")],
        operator, "rtt",
    )


def _vs_hs5g(dataset: DriveDataset, operator: Operator, kind: str) -> list:
    points = []
    for samples in _per_test_samples(dataset, operator, kind):
        if len(samples) < 4:
            continue
        hs5g = sum(1 for s in samples if s.tech in HIGH_THROUGHPUT_TECHS)
        points.append(
            (hs5g / len(samples), float(np.mean([_value(s) for s in samples])))
        )
    return points


def throughput_vs_hs5g_fraction(
    dataset: DriveDataset, operator: Operator, direction: str
) -> list[tuple[float, float]]:
    return _vs_hs5g(dataset, operator, direction)


def rtt_vs_hs5g_fraction(
    dataset: DriveDataset, operator: Operator
) -> list[tuple[float, float]]:
    return _vs_hs5g(dataset, operator, "rtt")


def kpi_correlations(
    dataset: DriveDataset, operator: Operator, direction: str
) -> CorrelationRow:
    samples = tput(dataset, operator=operator, direction=direction, static=False)
    if len(samples) < 10:
        raise AnalysisError(f"too few samples for {operator} {direction}")
    values = np.asarray([s.tput_mbps for s in samples])
    columns = {
        "RSRP": np.asarray([s.rsrp_dbm for s in samples]),
        "MCS": np.asarray([float(s.mcs) for s in samples]),
        "CA": np.asarray([float(s.n_ccs) for s in samples]),
        "BLER": np.asarray([s.bler for s in samples]),
        "Speed": np.asarray([s.speed_mph for s in samples]),
        "HO": np.asarray([float(s.ho_count) for s in samples]),
    }
    coeffs: dict[str, float] = {}
    for name, col in columns.items():
        if np.std(col) == 0.0 or np.std(values) == 0.0:
            coeffs[name] = 0.0
            continue
        coeffs[name] = float(scipy_stats.pearsonr(values, col).statistic)
    return CorrelationRow(
        operator=operator, direction=direction,
        coefficients=coeffs, sample_count=len(samples),
    )


def throughput_speed_scatter(
    dataset: DriveDataset, operator: Operator, direction: str
) -> list:
    return [
        (s.speed_mph, s.tput_mbps, s.tech, speed_bin(s.speed_mph))
        for s in tput(dataset, operator=operator, direction=direction, static=False)
    ]


def rtt_speed_scatter(dataset: DriveDataset, operator: Operator) -> list:
    return [
        (s.speed_mph, s.rtt_ms, s.tech, speed_bin(s.speed_mph))
        for s in rtts(dataset, operator=operator, static=False)
    ]


def fit_throughput_model(
    dataset: DriveDataset, operator: Operator, direction: str
) -> MultivariateFit:
    samples = tput(dataset, operator=operator, direction=direction, static=False)
    if len(samples) < 30:
        raise AnalysisError(
            f"need at least 30 samples for a stable fit, got {len(samples)}"
        )
    y = np.log(np.asarray([max(s.tput_mbps, 1e-3) for s in samples]))
    X = multivariate._standardize(np.column_stack([
        [s.rsrp_dbm for s in samples],
        [float(s.mcs) for s in samples],
        [float(s.n_ccs) for s in samples],
        [s.bler for s in samples],
        [s.speed_mph for s in samples],
        [float(s.ho_count) for s in samples],
    ]))
    y_std = y.std()
    y_norm = (y - y.mean()) / (y_std if y_std > 0 else 1.0)
    beta, r2 = multivariate._ols_r2(X, y_norm)
    incremental = {
        name: max(r2 - multivariate._ols_r2(np.delete(X, i, axis=1), y_norm)[1], 0.0)
        for i, name in enumerate(multivariate.FEATURES)
    }
    return MultivariateFit(
        operator=operator,
        direction=direction,
        coefficients={n: float(b) for n, b in zip(multivariate.FEATURES, beta)},
        r_squared=r2,
        incremental_r2=incremental,
        sample_count=len(samples),
    )


def concurrent_samples(
    dataset: DriveDataset, direction: str
) -> dict[float, dict[Operator, tuple[float, bool]]]:
    """The half-second index both Fig. 6 and the multipath model read."""
    index: dict[float, dict[Operator, tuple[float, bool]]] = {}
    for s in tput(dataset, direction=direction, static=False):
        key = round(s.time_s * 2.0) / 2.0
        index.setdefault(key, {})[s.operator] = (
            s.tput_mbps, s.tech.is_high_throughput,
        )
    return index


def paired_throughput_differences(
    dataset: DriveDataset, first: Operator, second: Operator, direction: str
) -> PairedDiff:
    diffs: list[float] = []
    bins: list[str] = []
    for by_op in concurrent_samples(dataset, direction).values():
        if first not in by_op or second not in by_op:
            continue
        t1, ht1 = by_op[first]
        t2, ht2 = by_op[second]
        diffs.append(t1 - t2)
        bins.append(f"{'HT' if ht1 else 'LT'}-{'HT' if ht2 else 'LT'}")
    if not diffs:
        raise AnalysisError(f"no concurrent samples for {first}/{second} {direction}")
    return PairedDiff(
        first=first, second=second, direction=direction,
        differences=np.asarray(diffs), bins=bins,
    )


def multi_operator_gain(dataset: DriveDataset, direction: str) -> dict[Operator, float]:
    ratios: dict[Operator, list[float]] = {op: [] for op in Operator}
    for by_op in concurrent_samples(dataset, direction).values():
        if len(by_op) < 3:
            continue
        best = max(v for v, _ in by_op.values())
        for op, (v, _) in by_op.items():
            if v > 0:
                ratios[op].append(best / v)
    out = {op: float(np.median(v)) for op, v in ratios.items() if v}
    if not out:
        raise AnalysisError("no fully concurrent samples across all operators")
    return out


def simulate_multipath(
    dataset: DriveDataset,
    direction: str,
    scheduler: MultipathScheduler = MultipathScheduler.AGGREGATE,
) -> MultipathResult:
    operators = list(Operator)
    rows = [
        [by_op[op][0] for op in operators]
        for by_op in concurrent_samples(dataset, direction).values()
        if len(by_op) == len(operators)
    ]
    if not rows:
        raise AnalysisError("no timestamps with samples from all operators")
    matrix = np.asarray(rows, dtype=float)
    if scheduler is MultipathScheduler.AGGREGATE:
        values = matrix.sum(axis=1) * multipath._AGGREGATE_EFFICIENCY
    else:
        values = matrix.max(axis=1)
    return MultipathResult(
        scheduler=scheduler,
        direction=direction,
        throughput_mbps=values,
        single_path={op: matrix[:, i] for i, op in enumerate(operators)},
    )


def _offload_runs(dataset, operator, app, static) -> list:
    return [
        r for r in dataset.offload_runs
        if r.operator is operator and r.app is app and r.static == static
    ]


def offload_app_report(
    dataset: DriveDataset, operator: Operator, app: TestType
) -> OffloadAppReport:
    if app not in (TestType.AR, TestType.CAV):
        raise AnalysisError(f"not an offload app: {app}")
    driving = _offload_runs(dataset, operator, app, False)
    static = _offload_runs(dataset, operator, app, True)
    if not driving:
        raise AnalysisError(f"no driving {app} runs for {operator}")
    e2e_cdf, fps_cdf, best_e2e, best_fps, best_map = {}, {}, {}, {}, {}
    for compression in (False, True):
        subset = [r for r in driving if r.compression == compression]
        e2e_values = apps._finite([r.mean_e2e_ms for r in subset])
        if e2e_values:
            e2e_cdf[compression] = EmpiricalCDF.from_values(e2e_values)
        fps_values = [r.offload_fps for r in subset]
        if fps_values:
            fps_cdf[compression] = EmpiricalCDF.from_values(fps_values)
        s_subset = [r for r in static if r.compression == compression]
        if apps._finite([r.mean_e2e_ms for r in s_subset]):
            best = min(s_subset, key=lambda r: r.mean_e2e_ms)
            best_e2e[compression] = best.mean_e2e_ms
            best_fps[compression] = best.offload_fps
            best_map[compression] = best.map_score

    def metric(r) -> float:
        return r.map_score if app is TestType.AR else r.mean_e2e_ms

    vs_ho = [(r.ho_count, metric(r)) for r in driving if np.isfinite(metric(r))]
    return OffloadAppReport(
        operator=operator, app=app, e2e_cdf=e2e_cdf, fps_cdf=fps_cdf,
        best_static_e2e_ms=best_e2e, best_static_fps=best_fps,
        best_static_map=best_map,
        metric_vs_hs5g=[
            (r.frac_hs5g, metric(r), r.server_kind)
            for r in driving if np.isfinite(metric(r))
        ],
        metric_vs_handovers=vs_ho,
        handover_correlation=apps.metric_handover_correlation(
            [(float(h), m) for h, m in vs_ho]
        ),
    )


def video_app_report(dataset: DriveDataset, operator: Operator) -> VideoAppReport:
    driving = [r for r in dataset.video_runs if r.operator is operator and not r.static]
    static = [r for r in dataset.video_runs if r.operator is operator and r.static]
    if not driving:
        raise AnalysisError(f"no driving video runs for {operator}")
    qoe = [r.qoe for r in driving]
    vs_ho = [(r.ho_count, r.qoe) for r in driving]
    return VideoAppReport(
        operator=operator,
        qoe_cdf=EmpiricalCDF.from_values(qoe),
        bitrate_cdf=EmpiricalCDF.from_values([r.avg_bitrate_mbps for r in driving]),
        rebuffer_cdf=EmpiricalCDF.from_values([r.rebuffer_ratio for r in driving]),
        best_static_qoe=max((r.qoe for r in static), default=None),
        negative_qoe_fraction=float(np.mean(np.asarray(qoe) < 0.0)),
        qoe_vs_hs5g=[(r.frac_hs5g, r.qoe, r.server_kind) for r in driving],
        qoe_vs_handovers=vs_ho,
        handover_correlation=apps.metric_handover_correlation(
            [(float(h), q) for h, q in vs_ho]
        ),
    )


def gaming_app_report(dataset: DriveDataset, operator: Operator) -> GamingAppReport:
    driving = [r for r in dataset.gaming_runs if r.operator is operator and not r.static]
    static = [r for r in dataset.gaming_runs if r.operator is operator and r.static]
    if not driving:
        raise AnalysisError(f"no driving gaming runs for {operator}")
    latencies = [r.median_latency_ms for r in driving]
    vs_ho = [(r.ho_count, r.avg_bitrate_mbps) for r in driving]
    best = max(static, key=lambda r: r.avg_bitrate_mbps, default=None)
    return GamingAppReport(
        operator=operator,
        bitrate_cdf=EmpiricalCDF.from_values([r.avg_bitrate_mbps for r in driving]),
        latency_cdf=EmpiricalCDF.from_values(latencies),
        drop_rate_cdf=EmpiricalCDF.from_values(
            [100.0 * r.frame_drop_rate for r in driving]
        ),
        best_static_bitrate=best.avg_bitrate_mbps if best else None,
        best_static_latency_ms=best.median_latency_ms if best else None,
        best_static_drop_rate=100.0 * best.frame_drop_rate if best else None,
        high_latency_run_fraction=float(np.mean(np.asarray(latencies) > 200.0)),
        bitrate_vs_hs5g=[(r.frac_hs5g, r.avg_bitrate_mbps) for r in driving],
        drops_vs_hs5g=[(r.frac_hs5g, 100.0 * r.frame_drop_rate) for r in driving],
        bitrate_vs_handovers=vs_ho,
        handover_correlation=apps.metric_handover_correlation(
            [(float(h), b) for h, b in vs_ho]
        ),
    )


def quantify_recommendations(dataset: DriveDataset) -> RecommendationsReport:
    compression = []
    for app in (TestType.AR, TestType.CAV):
        raw, compressed = (
            [
                r.mean_e2e_ms for r in dataset.offload_runs
                if r.app is app and r.compression == flag and not r.static
                and np.isfinite(r.mean_e2e_ms)
            ]
            for flag in (False, True)
        )
        if raw and compressed:
            compression.append(CompressionGain(
                app=app,
                median_e2e_raw_ms=float(np.median(raw)),
                median_e2e_compressed_ms=float(np.median(compressed)),
            ))
    if not compression:
        raise AnalysisError("no offload runs to quantify compression")
    gains = []
    for direction in ("downlink", "uplink"):
        agg = simulate_multipath(dataset, direction, MultipathScheduler.AGGREGATE)
        singles = {op: float(np.median(agg.single_path[op])) for op in Operator}
        best_op = max(singles, key=lambda op: singles[op])
        gains.append(MultipathGain(
            direction=direction,
            aggregate_median_mbps=agg.median_mbps,
            best_single_median_mbps=singles[best_op],
            single_outage_fraction=min(
                float((agg.single_path[op] < 5.0).mean()) for op in Operator
            ),
            aggregate_outage_fraction=agg.outage_fraction(5.0),
        ))
    verizon = dict(operator=Operator.VERIZON, static=False)
    rtt_edge = rtt_values(dataset, server_kind=ServerKind.EDGE, **verizon)
    rtt_cloud = rtt_values(dataset, server_kind=ServerKind.CLOUD, **verizon)
    if len(rtt_edge) < 10 or len(rtt_cloud) < 10:
        raise AnalysisError("not enough edge/cloud RTT samples")
    video = {
        kind: [
            r.qoe for r in dataset.video_runs
            if r.operator is Operator.VERIZON and not r.static
            and r.server_kind is kind
        ]
        for kind in (ServerKind.EDGE, ServerKind.CLOUD)
    }
    return RecommendationsReport(
        compression=compression,
        multipath=gains,
        edge=EdgeGain(
            rtt_median_edge_ms=float(np.median(rtt_edge)),
            rtt_median_cloud_ms=float(np.median(rtt_cloud)),
            video_qoe_edge=(
                float(np.median(video[ServerKind.EDGE]))
                if video[ServerKind.EDGE] else None
            ),
            video_qoe_cloud=(
                float(np.median(video[ServerKind.CLOUD]))
                if video[ServerKind.CLOUD] else None
            ),
        ),
    )


def compare_datasets(a: DriveDataset, b: DriveDataset) -> DatasetComparison:
    comparisons = []
    for op in Operator:
        pairs = [
            ("tput_dl",
             tput_values(a, operator=op, direction="downlink", static=False),
             tput_values(b, operator=op, direction="downlink", static=False)),
            ("tput_ul",
             tput_values(a, operator=op, direction="uplink", static=False),
             tput_values(b, operator=op, direction="uplink", static=False)),
            ("rtt", rtt_values(a, operator=op, static=False),
             rtt_values(b, operator=op, static=False)),
            ("ho_duration",
             np.asarray([h.event.duration_ms for h in handovers_of(a, operator=op)]),
             np.asarray([h.event.duration_ms for h in handovers_of(b, operator=op)])),
        ]
        for metric, va, vb in pairs:
            comparison = compare._compare(metric, op, va, vb)
            if comparison is not None:
                comparisons.append(comparison)
    if not comparisons:
        raise AnalysisError("datasets too small to compare")
    return DatasetComparison(comparisons=comparisons)


def route_technology_strip(
    dataset: DriveDataset, operator: Operator, view: str = "passive",
    bin_km: float = 10.0,
) -> list:
    if view not in ("passive", "active"):
        raise AnalysisError(f"unknown view {view!r}")
    bins: dict[int, dict[RadioTechnology, float]] = {}
    if view == "passive":
        for seg in dataset.passive_coverage:
            if seg.operator is not operator:
                continue
            b = int(seg.start_m / 1000.0 / bin_km)
            bins.setdefault(b, {}).setdefault(seg.tech, 0.0)
            bins[b][seg.tech] += seg.length_m
    else:
        for s in tput(dataset, operator=operator, static=False):
            b = int(s.mark_m / 1000.0 / bin_km)
            bins.setdefault(b, {}).setdefault(s.tech, 0.0)
            bins[b][s.tech] += max(s.speed_mph, 0.01)
    last_bin = max(bins) if bins else 0
    strip = []
    for b in range(last_bin + 1):
        weights = bins.get(b)
        strip.append((b * bin_km, max(weights, key=weights.get) if weights else None))
    return strip


def estimate_idle_upgrade_rates(
    dataset: DriveDataset, operator: Operator
) -> IdleUpgradeEstimate:
    bin_m = inference._LOCATION_BIN_M
    active_5g_bins: dict[int, Timezone] = {}
    for s in tput(dataset, operator=operator, static=False):
        if s.tech.is_5g:
            active_5g_bins[int(s.mark_m / bin_m)] = s.timezone
    passive_5g_weight: dict[int, float] = {}
    passive_weight: dict[int, float] = {}
    for seg in dataset.passive_coverage:
        if seg.operator is not operator:
            continue
        for b in range(int(seg.start_m / bin_m), int(seg.end_m / bin_m) + 1):
            if b not in active_5g_bins:
                continue
            lo = max(seg.start_m, b * bin_m)
            hi = min(seg.end_m, (b + 1) * bin_m)
            overlap = max(hi - lo, 0.0)
            passive_weight[b] = passive_weight.get(b, 0.0) + overlap
            if seg.tech.is_5g:
                passive_5g_weight[b] = passive_5g_weight.get(b, 0.0) + overlap
    hits = {tz: 0 for tz in Timezone}
    support = {tz: 0 for tz in Timezone}
    for b, tz in active_5g_bins.items():
        weight = passive_weight.get(b, 0.0)
        if weight <= 0.0:
            continue
        support[tz] += 1
        if passive_5g_weight.get(b, 0.0) / weight > 0.5:
            hits[tz] += 1
    if sum(support.values()) == 0:
        raise AnalysisError(f"no co-located passive/active bins for {operator}")
    return IdleUpgradeEstimate(
        operator=operator,
        rate_by_timezone={
            tz: (hits[tz] / support[tz]) if support[tz] else 0.0 for tz in Timezone
        },
        support_by_timezone=support,
    )


def estimate_ul_demotion_rate(dataset: DriveDataset, operator: Operator) -> float:
    bin_m = inference._LOCATION_BIN_M
    dl_hs_bins = {
        int(s.mark_m / bin_m)
        for s in tput(dataset, operator=operator, direction="downlink", static=False)
        if s.tech.is_high_throughput
    }
    if not dl_hs_bins:
        raise AnalysisError(f"no high-speed-5G downlink locations for {operator}")
    demoted = kept = 0
    for s in tput(dataset, operator=operator, direction="uplink", static=False):
        if int(s.mark_m / bin_m) not in dl_hs_bins:
            continue
        if s.tech.is_high_throughput:
            kept += 1
        else:
            demoted += 1
    if demoted + kept == 0:
        raise AnalysisError(f"no co-located uplink samples for {operator}")
    return demoted / (demoted + kept)


def per_technology_throughput(
    dataset: DriveDataset, operator: Operator, direction: str,
    server_kind: ServerKind | None = None,
) -> dict[RadioTechnology, EmpiricalCDF]:
    out = {}
    for tech in ALL_TECHNOLOGIES:
        values = tput_values(
            dataset, operator=operator, direction=direction, static=False,
            techs=[tech], server_kind=server_kind,
        )
        if len(values) >= 5:
            out[tech] = EmpiricalCDF.from_values(values)
    if not out:
        raise AnalysisError(f"no driving samples for {operator} {direction}")
    return out


def per_technology_rtt(
    dataset: DriveDataset, operator: Operator, server_kind: ServerKind | None = None
) -> dict[RadioTechnology, EmpiricalCDF]:
    out = {}
    for tech in ALL_TECHNOLOGIES:
        values = rtt_values(
            dataset, operator=operator, static=False, techs=[tech],
            server_kind=server_kind,
        )
        if len(values) >= 5:
            out[tech] = EmpiricalCDF.from_values(values)
    if not out:
        raise AnalysisError(f"no driving RTT samples for {operator}")
    return out


def throughput_by_timezone(
    dataset: DriveDataset, operator: Operator, direction: str
) -> dict[Timezone, EmpiricalCDF]:
    out = {}
    for tz in Timezone:
        values = tput_values(
            dataset, operator=operator, direction=direction, static=False,
            timezone=tz,
        )
        if len(values) >= 5:
            out[tz] = EmpiricalCDF.from_values(values)
    if not out:
        raise AnalysisError(f"no samples for {operator} {direction} in any timezone")
    return out


def export_logs(
    dataset: DriveDataset,
    route,
    test_types: tuple[TestType, ...] = (
        TestType.DOWNLINK_THROUGHPUT, TestType.UPLINK_THROUGHPUT, TestType.RTT,
    ),
    max_tests: int | None = None,
    timeline=None,
) -> tuple[list[DrmFile], list[AppLogFile]]:
    tests = [t for t in dataset.tests if t.test_type in test_types and not t.static]
    tests.sort(key=lambda t: (t.start_time_s, t.operator.code))
    if max_tests is not None:
        tests = tests[:max_tests]
    tput_by_test = samples_by_test(dataset)
    rtt_by_test: dict[int, list] = {}
    for s in dataset.rtt_samples:
        rtt_by_test.setdefault(s.test_id, []).append(s)
    ho_by_test: dict[int, list] = {}
    for h in dataset.handovers:
        ho_by_test.setdefault(h.test_id, []).append(h)
    drms, logs = [], []
    for test in tests:
        position = route.position_at(min(test.start_mark_m, route.total_length_m))
        offset_h = timezone_for_longitude(position.point.lon).utc_offset_hours
        drm = DrmFile(
            operator=test.operator,
            test_label=test.test_type.value,
            start_local=export._utc_at(test.start_time_s, timeline)
            + timedelta(hours=offset_h),
        )
        is_rtt = test.test_type is TestType.RTT
        samples = (rtt_by_test if is_rtt else tput_by_test).get(test.test_id, [])
        for s in samples:
            drm.kpi_records.append(XcalKpiRecord(
                timestamp_edt=export._edt_at(s.time_s, timeline),
                technology=s.tech,
                rsrp_dbm=-99.0 if is_rtt else s.rsrp_dbm,
                mcs=0 if is_rtt else s.mcs,
                bler=0.0 if is_rtt else s.bler,
                n_ccs=1 if is_rtt else s.n_ccs,
                tput_mbps=0.0 if is_rtt else s.tput_mbps,
            ))
        for h in ho_by_test.get(test.test_id, []):
            start = export._edt_at(h.event.time_s, timeline)
            end = start + timedelta(milliseconds=h.event.duration_ms)
            cells = (str(h.event.from_cell), str(h.event.to_cell))
            drm.signaling_records.append(SignalingRecord(start, "HO_START", *cells))
            drm.signaling_records.append(SignalingRecord(end, "HO_END", *cells))
        log = AppLogFile(
            operator=test.operator,
            test_label=test.test_type.value,
            start_utc=export._utc_at(test.start_time_s, timeline),
            convention=export._APP_CONVENTION[test.test_type],
            utc_offset_hours=offset_h,
        )
        for s in samples:
            log.samples.append((s.time_s - test.start_time_s, _value(s)))
        drms.append(drm)
        logs.append(log)
    return drms, logs


def data_volume_bytes(dataset: DriveDataset) -> tuple[float, float]:
    rx = 0.0
    tx = 0.0
    for s in dataset.throughput_samples:
        mbits = s.tput_mbps * 0.5
        if s.direction == "uplink":
            tx += megabits_to_bytes(mbits)
        else:
            rx += megabits_to_bytes(mbits)
    for run in dataset.offload_runs:
        tx += megabits_to_bytes(run.uplink_megabits)
    for run in dataset.video_runs:
        rx += megabits_to_bytes(run.downlink_megabits)
    for run in dataset.gaming_runs:
        rx += megabits_to_bytes(run.downlink_megabits)
    return rx, tx


def summary(dataset: DriveDataset) -> DatasetSummary:
    runtime: dict[Operator, float] = {op: 0.0 for op in Operator}
    for t in dataset.tests:
        runtime[t.operator] += t.duration_s
    active_hos: dict[Operator, int] = {op: 0 for op in Operator}
    for h in dataset.handovers:
        active_hos[h.event.operator] += 1
    test_counts: dict[TestType, int] = {}
    for t in dataset.tests:
        test_counts[t.test_type] = test_counts.get(t.test_type, 0) + 1
    rx, tx = data_volume_bytes(dataset)
    return DatasetSummary(
        total_distance_km=dataset.route_length_km,
        operators=tuple(Operator),
        unique_cells=dict(dataset.connected_cells),
        handovers={
            op: dataset.passive_handover_counts.get(op, 0) + active_hos[op]
            for op in Operator
        },
        total_rx_gb=bytes_to_gigabytes(rx),
        total_tx_gb=bytes_to_gigabytes(tx),
        runtime_min={op: v / 60.0 for op, v in runtime.items()},
        test_counts=test_counts,
    )


# -- the simulator's scalar tick loop ------------------------------------------
#
# The campaign before its test-block kernel, kept verbatim as the kernel's
# parity oracle: a tick-major loop over per-tick ``LinkTick`` observations
# from ``RowUESession.tick``/``static_tick``, writing record objects.
# ``tests/test_kernel_parity.py`` holds ``DriveCampaign`` to it byte for
# byte; :func:`row_campaigns` swaps it into the engine.


@dataclass(frozen=True, slots=True)
class LinkTick:
    """One 500 ms observation of the serving link (what XCAL would log)."""

    time_s: float
    mark_m: float
    speed_mph: float
    position: RoutePosition
    tech: RadioTechnology
    cell_id: CellId
    rsrp_dbm: float
    sinr_db: float
    mcs: int
    bler: float
    n_ccs: int
    capacity_dl_mbps: float
    capacity_ul_mbps: float
    rtt_ms: float
    server: Server
    handovers: tuple[HandoverEvent, ...]
    #: Time within the tick lost to handover execution, seconds.
    interruption_s: float

    def capacity_mbps(self, direction: str) -> float:
        """Capacity in the requested direction."""
        if direction == Direction.UPLINK:
            return self.capacity_ul_mbps
        return self.capacity_dl_mbps




class RowUESession:
    """One operator's phone through the whole campaign.

    Parameters
    ----------
    operator:
        The carrier of this phone's SIM.
    deployment:
        The carrier's radio deployment along the route.
    rng_factory:
        Source of named substreams; each subsystem gets its own.
    """

    def __init__(
        self,
        operator: Operator,
        deployment: DeploymentModel,
        rng_factory: RngFactory,
        policy_profile: "PolicyProfile | None" = None,
    ) -> None:
        self.operator = operator
        self.deployment = deployment
        tag = operator.code
        self._selector = TechnologySelector(
            operator, rng_factory.stream(f"select-{tag}"), profile=policy_profile
        )
        #: The resolved policy (the operator's default unless overridden);
        #: the passive handover-logger of this operator follows it too.
        self.policy_profile = self._selector.profile
        stream = rng_factory.stream
        self._channel = ChannelModel(operator, stream(f"channel-{tag}"))
        self._phy = PhyModel(
            stream(f"phy-{tag}"), operator,
            bler_rng=stream(f"bler-{tag}"), doppler_rng=stream(f"doppler-{tag}"),
        )
        self._ca = CarrierAggregationModel(stream(f"ca-{tag}"))
        self.handover_engine = HandoverEngine(operator, stream(f"ho-{tag}"))
        self._rtt = RttModel(
            operator, stream(f"rtt-{tag}"), stream(f"rtt-loss-{tag}"), stream(f"rtt-tail-{tag}")
        )
        self._misc = stream(f"misc-{tag}")
        # Sticky CA configuration per (zone index, tech rank, direction).
        self._cc_cache: dict[tuple[int, int, str], int] = {}

    # -- driving ticks ----------------------------------------------------

    def tick(
        self,
        time_s: float,
        position: RoutePosition,
        speed_mph: float,
        traffic: TrafficProfile,
        direction: str,
        server: Server,
        dt_s: float = 0.5,
    ) -> LinkTick:
        """Advance the session by one tick while driving."""
        zone = self.deployment.zone_at(position.distance_m)
        tech = self._selector.select(zone, traffic)
        cell = zone.cell_for(tech)
        load = zone.load_dl if direction == Direction.DOWNLINK else zone.load_ul

        state = self._channel.state(cell, position.distance_m, position.region, load)
        n_ccs = self._sticky_ccs(zone.index, tech, direction)
        report = self._phy.report(tech, state, n_ccs, load, speed_mph, direction)

        capacity_dl = (
            report.capacity_mbps
            if direction == Direction.DOWNLINK
            else self._phy.capacity_mbps(
                tech, report.mcs, report.bler,
                self._sticky_ccs(zone.index, tech, Direction.DOWNLINK),
                zone.load_dl, Direction.DOWNLINK,
            )
        )
        capacity_ul = (
            report.capacity_mbps
            if direction == Direction.UPLINK
            else self._phy.capacity_mbps(
                tech, report.mcs, report.bler,
                self._sticky_ccs(zone.index, tech, Direction.UPLINK),
                zone.load_ul, Direction.UPLINK,
            )
        )
        capacity_ul = self._apply_ul_pathologies(tech, capacity_ul)

        handovers = tuple(
            self.handover_engine.observe(
                cell, time_s, position.distance_m, dt_s, direction
            )
        )
        interruption = min(sum(ev.duration_ms for ev in handovers) / 1000.0, dt_s)

        rtt = self._rtt.sample_rtt_ms(
            server, position.point, tech, speed_mph, static=False, bler=report.bler
        )

        return LinkTick(
            time_s=time_s,
            mark_m=position.distance_m,
            speed_mph=speed_mph,
            position=position,
            tech=tech,
            cell_id=cell.cell_id,
            rsrp_dbm=state.rsrp_dbm,
            sinr_db=state.sinr_db,
            mcs=report.mcs,
            bler=report.bler,
            n_ccs=n_ccs,
            capacity_dl_mbps=capacity_dl,
            capacity_ul_mbps=capacity_ul,
            rtt_ms=rtt,
            server=server,
            handovers=handovers,
            interruption_s=interruption,
        )

    # -- static baseline ticks ---------------------------------------------

    def find_static_site(self, city_mark_m: float, city_span_m: float) -> StaticSite | None:
        """Find the best high-speed-5G base station within a city segment.

        Mirrors the paper's baseline methodology (§5.1): in each city, find a
        5G mmWave BS and measure facing it; fall back to midband; return
        ``None`` (skip the city) when neither is available.
        """
        start = max(city_mark_m - city_span_m / 2.0, 0.0)
        end = city_mark_m + city_span_m / 2.0
        best: tuple[int, DeploymentZone] | None = None
        mark = start
        while mark < end:
            zone = self.deployment.zone_at(mark)
            for tech in (RadioTechnology.NR_MMWAVE, RadioTechnology.NR_MID):
                if tech in zone.deployed:
                    rank = 1 if tech is RadioTechnology.NR_MMWAVE else 0
                    if best is None or rank > best[0]:
                        best = (rank, zone)
                    break
            mark = zone.end_m + 1.0
        if best is None:
            return None
        zone = best[1]
        tech = (
            RadioTechnology.NR_MMWAVE
            if RadioTechnology.NR_MMWAVE in zone.deployed
            else RadioTechnology.NR_MID
        )
        cell = zone.cell_for(tech)
        # Standing right at the site: distance dominated by a short offset.
        near = Cell(
            cell_id=cell.cell_id,
            site=cell.site,
            site_mark_m=(zone.start_m + zone.end_m) / 2.0,
            perpendicular_m=float(self._misc.uniform(30.0, 90.0)),
        )
        load = float(self._misc.uniform(0.50, 0.95))
        return StaticSite(tech=tech, cell=near, load=load)

    def static_tick(
        self,
        site: StaticSite,
        position: RoutePosition,
        time_s: float,
        direction: str,
        server: Server,
    ) -> LinkTick:
        """One tick parked in front of ``site``'s base station."""
        mark = site.cell.site_mark_m + float(self._misc.uniform(-5.0, 5.0))
        state = self._channel.state(site.cell, mark, RegionType.CITY, site.load)
        tech = site.tech
        zone_key = -1 - site.cell.cell_id.sequence  # static CA sticky key
        n_ccs = self._sticky_ccs(zone_key, tech, direction)
        load = site.load * float(self._misc.uniform(0.85, 1.05))
        load = clamp(load, 0.05, 1.0)
        report = self._phy.report(tech, state, n_ccs, load, 0.0, direction)
        capacity = report.capacity_mbps
        if (
            direction == Direction.UPLINK
            and self.operator is Operator.ATT
            and tech is RadioTechnology.NR_MMWAVE
        ):
            capacity *= float(self._misc.uniform(0.25, 0.6))
        # Transient blockage: even ideal static mmWave/midband shows a
        # non-negligible fraction of low samples (Fig. 3a).
        if self._misc.random() < 0.06:
            capacity *= float(self._misc.uniform(0.01, 0.15))
        cap_dl = capacity if direction == Direction.DOWNLINK else capacity / 0.12
        cap_ul = capacity if direction == Direction.UPLINK else capacity * 0.12
        rtt = self._rtt.sample_rtt_ms(
            server, position.point, tech, 0.0, static=True, bler=report.bler
        )
        return LinkTick(
            time_s=time_s,
            mark_m=position.distance_m,
            speed_mph=0.0,
            position=position,
            tech=tech,
            cell_id=site.cell.cell_id,
            rsrp_dbm=state.rsrp_dbm,
            sinr_db=state.sinr_db,
            mcs=report.mcs,
            bler=report.bler,
            n_ccs=n_ccs,
            capacity_dl_mbps=max(cap_dl, 0.01),
            capacity_ul_mbps=max(cap_ul, 0.01),
            rtt_ms=rtt,
            server=server,
            handovers=(),
            interruption_s=0.0,
        )

    # -- internals ---------------------------------------------------------

    def _sticky_ccs(self, zone_index: int, tech: RadioTechnology, direction: str) -> int:
        key = (zone_index, tech.rank, direction)
        n_ccs = self._cc_cache.get(key)
        if n_ccs is None:
            n_ccs = self._cc_cache[key] = self._ca.draw_ccs(self.operator, tech, direction)
            if len(self._cc_cache) > 512:
                for old in list(self._cc_cache)[:-256]:
                    del self._cc_cache[old]
        return n_ccs

    def _apply_ul_pathologies(self, tech: RadioTechnology, capacity_ul: float) -> float:
        if (
            self.operator is Operator.ATT
            and tech is RadioTechnology.NR_MMWAVE
            and self._misc.random() < _ATT_MMWAVE_UL_BREAK_PROB
        ):
            lo, hi = _ATT_MMWAVE_UL_FACTOR_RANGE
            return max(capacity_ul * float(self._misc.uniform(lo, hi)), 0.01)
        return capacity_ul


class RowDriveCampaign:
    """The campaign of the scalar tick loop: :class:`~repro.campaign.runner.DriveCampaign` before its test-block kernel."""

    def __init__(
        self,
        config: CampaignConfig | None = None,
        route: Route | None = None,
        policy_profiles: "dict[Operator, PolicyProfile] | None" = None,
        *,
        window: CampaignWindow | None = None,
        rng_factory: RngFactory | None = None,
    ) -> None:
        """Set up the campaign.

        Parameters
        ----------
        policy_profiles:
            Optional per-operator policy overrides (ablations: e.g. a
            no-uplink-demotion world).  Operators not in the mapping keep
            their default profile.
        window:
            The route span to drive (see :class:`CampaignWindow`).  ``None``
            is the one window covering the whole route, with test ids
            counted from 0.
        rng_factory:
            Override the random-substream factory.  The engine passes each
            window ``RngFactory(seed).shard(window.index)`` so shard draws
            are independent of executor topology.  The radio deployment is
            not drawn from it: every window shares the one world of
            ``(route, config.seed, operator)``.
        """
        self.config = config or CampaignConfig()
        self.route = route or build_cross_country_route()
        self.window = window or CampaignWindow(
            index=0, start_m=0.0, end_m=self.route.total_length_m
        )
        self._rngs = rng_factory or RngFactory(seed=self.config.seed)
        self._servers = ServerRegistry(self.route)
        self._speed = SpeedProfile(self._rngs.stream("speed"))
        self._sessions: dict[Operator, RowUESession] = {}
        overrides = policy_profiles or {}
        for op in Operator:
            deployment = DeploymentModel.world(op, self.route, self.config.seed)
            self._sessions[op] = RowUESession(
                op, deployment, self._rngs, policy_profile=overrides.get(op)
            )
        self._mark_m = self.window.start_m
        self._time_s = self.window.start_time_s
        self._last_position: RoutePosition | None = None
        self._test_seq = 0
        self._dataset = DriveDataset(
            seed=self.config.seed,
            scale=self.config.scale,
            route_length_km=self.route.total_length_km,
        )

    # -- public API --------------------------------------------------------

    def run(self) -> DriveDataset:
        """Execute the campaign window and return its dataset."""
        marks = ((self.route.city_mark_m(c.name), c.name) for c in self.route.cities)
        remaining_cities = sorted(m for m in marks if self._city_in_window(m[0]))
        end_m = min(self.window.end_m, self.route.total_length_m - 2_000.0)
        while self._mark_m < end_m:
            # Static battery when we reach a city.
            while remaining_cities and remaining_cities[0][0] <= self._mark_m:
                _, city_name = remaining_cities.pop(0)
                if self.config.include_static:
                    self._run_static_battery(city_name)
            cycle_start_m = self._mark_m
            self._run_cycle()
            cycle_dist = self._mark_m - cycle_start_m
            self._fast_forward(cycle_dist, end_m)

        # Cities not reached before the loop ended (Boston sits at the end).
        for _, city_name in remaining_cities:
            if self.config.include_static:
                self._run_static_battery(city_name)
        self._record_passive_coverage()
        return self._dataset

    def _city_in_window(self, city_mark_m: float) -> bool:
        """Whether this window owns the city at ``city_mark_m``.

        Windows own cities half-open ``[start, end)``; the final window (the
        one whose end reaches the route terminus) also owns the terminus
        city, Boston.
        """
        if self.window.end_m >= self.route.total_length_m - 1e-6:
            return self.window.start_m <= city_mark_m <= self.window.end_m
        return self.window.start_m <= city_mark_m < self.window.end_m

    # -- cycle & movement ----------------------------------------------------

    def _run_cycle(self) -> None:
        """One round-robin pass over the configured cycle plan (§3)."""
        for test_type, compression in self.config.plan.runs():
            self._run_test(test_type, compression)
            self._gap()

    def _gap(self) -> None:
        """Short idle gap between tests (reconfiguration, logging flush)."""
        steps = max(int(self.config.inter_test_gap_s / self.config.tick_s), 1)
        for _ in range(steps):
            self._advance(self.config.tick_s)

    def _position_at(self, mark_m: float) -> RoutePosition:
        """``route.position_at(mark_m)``, reusing the last lookup when the
        vehicle has not moved since (positions are immutable)."""
        last = self._last_position
        if last is None or last.distance_m != mark_m:
            last = self._last_position = self.route.position_at(mark_m)
        return last

    def _advance(self, dt_s: float) -> RoutePosition:
        """Move the vehicle for ``dt_s`` seconds; return the new position."""
        position = self._position_at(min(self._mark_m, self.route.total_length_m))
        self._speed.step(position.region, dt_s)
        self._mark_m = min(
            self._mark_m + self._speed.current_speed_mps * dt_s,
            self.route.total_length_m,
        )
        self._time_s += dt_s
        return self._position_at(self._mark_m)

    def _fast_forward(self, cycle_dist_m: float, end_m: float) -> None:
        """Skip the idle stretch implied by the campaign's duty cycle."""
        if self.config.scale >= 1.0:
            return
        skip = cycle_dist_m * (1.0 / self.config.scale - 1.0)
        skip = min(skip, max(end_m + 1_000.0 - self._mark_m, 0.0))
        if skip <= 0.0:
            return
        self._mark_m += skip
        self._time_s += skip / NOMINAL_CRUISE_MPS
        for session in self._sessions.values():
            session.handover_engine.reset_serving()

    def _next_test_id(self) -> int:
        self._test_seq += 1
        return self.window.test_id_base + self._test_seq

    def _servers_now(self, position: RoutePosition) -> dict[Operator, Server]:
        return {
            op: self._servers.select(op, position.point, position.timezone)
            for op in Operator
        }

    # -- the test loop -----------------------------------------------------------

    def _run_static_battery(self, city_name: str) -> None:
        """Static baselines in a city (§5.1): each phone in turn parks
        facing the best high-speed-5G base station and runs the cycle's
        tests there."""
        city_mark = self.route.city_mark_m(city_name)
        position = self.route.position_at(city_mark)
        for op in Operator:
            session = self._sessions[op]
            site = session.find_static_site(city_mark, city_span_m=8_000.0)
            if site is None:
                continue  # no mmWave/midband here: skip, as the paper did
            server = self._servers.select(op, position.point, position.timezone)
            for test_type, compression in self.config.plan.runs():
                self._run_test(test_type, compression, (op, site, position, server))
            session.handover_engine.reset_serving()

    def _run_test(
        self,
        test_type: TestType,
        compression: bool,
        parked: "tuple[Operator, StaticSite, RoutePosition, Server] | None" = None,
    ) -> None:
        """Run one test on every phone while driving, or on the one
        ``parked`` phone ``(operator, site, position, server)``.

        Each step moves the vehicle (or, parked, the clock) and ticks the
        sessions; a tick's rows — its throughput or RTT sample, then its
        handovers — are written as it happens.  App runs keep their ticks
        for the app model, which runs after the loop.
        """
        direction = TEST_DIRECTION[test_type]
        traffic = TEST_TRAFFIC[test_type]
        rtt_test = test_type is TestType.RTT
        tput_test = test_type in (TestType.DOWNLINK_THROUGHPUT, TestType.UPLINK_THROUGHPUT)
        app_test = not (rtt_test or tput_test)
        step = _PING_INTERVAL_S if rtt_test else self.config.tick_s
        static = parked is not None
        if parked is None:
            position = self._position_at(self._mark_m)
            servers = self._servers_now(position)
        else:
            parked_op, site, position, server = parked
            servers = {parked_op: server}
        test_ids = {op: self._next_test_id() for op in servers}
        flows = {
            op: CubicFlow(self._rngs.stream(f"tcp-{op.code}")) for op in servers
        } if tput_test else {}
        app_ticks: dict[Operator, list[LinkTick]] = {op: [] for op in servers}
        sessions = [(op, self._sessions[op]) for op in servers]
        start_time = self._time_s
        start_mark = self._mark_m if parked is None else position.distance_m

        for i in range(int(self.config.duration_s(test_type) / step)):
            if parked is None:
                position = self._advance(step)
                speed = self._speed.current_speed_mph
            elif not app_test:
                self._time_s += step
            for op, session in sessions:
                if parked is None:
                    tick = session.tick(
                        self._time_s, position, speed, traffic, direction,
                        servers[op], step,
                    )
                else:
                    # A parked app run ticks from its start time and moves the
                    # clock once, after the loop: the pinned output's times
                    # depend on this float arithmetic.
                    now = start_time + i * step if app_test else self._time_s
                    tick = session.static_tick(site, position, now, direction, server)
                if app_test:
                    app_ticks[op].append(tick)
                elif tput_test:
                    tput = flows[op].advance(
                        capacity_mbps=tick.capacity_mbps(direction),
                        rtt_ms=max(tick.rtt_ms * _TCP_RTT_INFLATION, _TCP_RTT_FLOOR_MS),
                        dt_s=step,
                        bler=tick.bler,
                        interruption_s=tick.interruption_s,
                    )
                    self._dataset.throughput_samples.append(
                        ThroughputSample(
                            test_id=test_ids[op],
                            operator=op,
                            direction=direction,
                            time_s=tick.time_s,
                            mark_m=tick.mark_m,
                            speed_mph=tick.speed_mph,
                            region=tick.position.region,
                            timezone=tick.position.timezone,
                            tech=tick.tech,
                            rsrp_dbm=tick.rsrp_dbm,
                            mcs=tick.mcs,
                            bler=tick.bler,
                            n_ccs=tick.n_ccs,
                            tput_mbps=tput,
                            server_kind=tick.server.kind,
                            ho_count=len(tick.handovers),
                            static=static,
                        )
                    )
                else:
                    self._dataset.rtt_samples.append(
                        RttSample(
                            test_id=test_ids[op],
                            operator=op,
                            time_s=tick.time_s,
                            mark_m=tick.mark_m,
                            speed_mph=tick.speed_mph,
                            region=tick.position.region,
                            timezone=tick.position.timezone,
                            tech=tick.tech,
                            rtt_ms=tick.rtt_ms,
                            server_kind=tick.server.kind,
                            static=static,
                        )
                    )
                for ev in tick.handovers:
                    self._dataset.handovers.append(
                        HandoverRecord(test_id=test_ids[op], direction=direction, event=ev)
                    )

        if static and app_test:
            self._time_s += self.config.duration_s(test_type)
        end_mark = self._mark_m if parked is None else position.distance_m
        for op, server in servers.items():
            if app_test:
                self._record_app_run(
                    test_type, compression, test_ids[op], op, server.kind,
                    app_ticks[op], static=static,
                )
            self._dataset.tests.append(
                TestRecord(
                    test_id=test_ids[op],
                    test_type=test_type,
                    operator=op,
                    start_time_s=start_time,
                    end_time_s=self._time_s,
                    start_mark_m=start_mark,
                    end_mark_m=end_mark,
                    server_kind=server.kind,
                    static=static,
                )
            )

    def _record_app_run(
        self,
        test_type: TestType,
        compression: bool,
        test_id: int,
        op: Operator,
        server_kind: ServerKind,
        ticks: list[LinkTick],
        static: bool,
    ) -> None:
        """Run the app model of ``test_type`` over one phone's ticks and
        record the run."""
        schedule = LinkSchedule(
            times_s=np.asarray([t.time_s for t in ticks]),
            tick_s=self.config.tick_s,
            ul_mbps=np.asarray([t.capacity_ul_mbps for t in ticks]),
            dl_mbps=np.asarray([t.capacity_dl_mbps for t in ticks]),
            rtt_ms=np.asarray([t.rtt_ms for t in ticks]),
            techs=tuple(t.tech for t in ticks),
            interruptions=tuple(
                (t.time_s, ev.duration_ms / 1000.0) for t in ticks for ev in t.handovers
            ),
        )
        run = dict(
            test_id=test_id,
            operator=op,
            server_kind=server_kind,
            ho_count=schedule.handover_count(),
            frac_hs5g=schedule.fraction_on(HIGH_THROUGHPUT_TECHS),
            static=static,
        )
        if test_type is TestType.VIDEO_360:
            video = run_video_session(
                schedule, VideoConfig(session_duration_s=self.config.video_duration_s)
            )
            self._dataset.video_runs.append(
                VideoRunResult(
                    qoe=video.qoe,
                    avg_bitrate_mbps=video.avg_bitrate_mbps,
                    rebuffer_ratio=video.rebuffer_ratio,
                    downlink_megabits=video.downlink_megabits,
                    **run,
                )
            )
        elif test_type is TestType.CLOUD_GAMING:
            gaming = run_gaming_session(schedule)
            self._dataset.gaming_runs.append(
                GamingRunResult(
                    avg_bitrate_mbps=gaming.avg_bitrate_mbps,
                    median_latency_ms=gaming.median_latency_ms,
                    p95_latency_ms=gaming.p95_latency_ms,
                    frame_drop_rate=gaming.frame_drop_rate,
                    downlink_megabits=gaming.downlink_megabits,
                    **run,
                )
            )
        else:
            app_config = AR_CONFIG if test_type is TestType.AR else CAV_CONFIG
            offload = run_offload_app(schedule, app_config, compression)
            self._dataset.offload_runs.append(
                OffloadRunResult(
                    app=test_type,
                    compression=compression,
                    mean_e2e_ms=offload.mean_e2e_ms,
                    median_e2e_ms=offload.median_e2e_ms,
                    offload_fps=offload.offload_fps,
                    map_score=offload.map_score,
                    uplink_megabits=offload.uplink_megabits,
                    **run,
                )
            )

    # -- recording helpers ------------------------------------------------------------

    def _record_passive_coverage(self) -> None:
        """Walk the window with the passive handover-loggers (§3), hold
        their coverage rows as the dataset's ``passive`` table, and record
        the distinct cells each operator's phones connected to."""
        # Imported here: repro.xcal and repro.store pull in repro.campaign at
        # package level, so module-level imports would be circular.
        from repro.store.columnar import ColumnTable
        from repro.xcal.handover_logger import run_handover_logger

        tables = []
        for op, session in self._sessions.items():
            trace = run_handover_logger(
                op,
                session.deployment,
                self._rngs.stream(f"passive-{op.code}"),
                self.window.start_m,
                self.window.end_m,
                session.policy_profile,
            )
            tables.append(trace.table)
            self._dataset.passive_handover_counts[op] = trace.macro_handovers
            self._dataset.connected_cells[op] = len(
                session.handover_engine.connected_cells | trace.macro_cell_ids
            )
        self._dataset.set_table(ColumnTable.concat(tables))


@contextlib.contextmanager
def row_campaigns():
    """Run every engine shard on :class:`RowDriveCampaign` (serial
    executor) for the duration of the block."""
    with mock.patch.object(worker, "DriveCampaign", RowDriveCampaign):
        yield
