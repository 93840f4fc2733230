"""Export a campaign dataset into the paper's raw log formats.

This regenerates the *inputs* the authors' synchronisation software had to
cope with: per-test DRM files (local-time filenames, EDT contents) and
app-layer logs (UTC epoch for the throughput tool, local wall-clock for the
RTT tool).  :mod:`repro.sync` then re-ingests them, and the integration tests
assert the round trip is lossless.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import NamedTuple

from repro.campaign.tests import TestType
from repro.geo.route import Route
from repro.geo.timezones import XCAL_INTERNAL_TZ, timezone_for_longitude
from repro.geo.trip import TripTimeline
from repro.radio.operators import Operator
from repro.store.query import Eq, In, Source, group_rows, partitions, select_columns, select_rows
from repro.xcal.applog import AppLogFile, TimestampConvention
from repro.xcal.drm import DrmFile
from repro.xcal.records import SignalingRecord, XcalKpiRecord

__all__ = ["TRIP_START_UTC", "export_logs"]

#: The drive began 08/08/2022 at 08:00 Pacific = 15:00 UTC.
TRIP_START_UTC = datetime(2022, 8, 8, 15, 0, 0)

#: App-layer timestamp convention per test tool (§B: "some applications
#: logged timestamps in UTC and others in local time").
_APP_CONVENTION: dict[TestType, TimestampConvention] = {
    TestType.DOWNLINK_THROUGHPUT: TimestampConvention.UTC_EPOCH,
    TestType.UPLINK_THROUGHPUT: TimestampConvention.UTC_EPOCH,
    TestType.RTT: TimestampConvention.LOCAL_WALL,
}


def _utc_at(time_s: float, timeline: TripTimeline | None = None) -> datetime:
    if timeline is not None:
        return timeline.wall_clock_utc(time_s)
    return TRIP_START_UTC + timedelta(seconds=time_s)


def _edt_at(time_s: float, timeline: TripTimeline | None = None) -> datetime:
    return _utc_at(time_s, timeline) + XCAL_INTERNAL_TZ.utc_offset


class _Test(NamedTuple):
    """What the log files need of one test."""

    test_id: int
    test_type: TestType
    operator: Operator
    start_time_s: float
    start_mark_m: float


#: The columns each log reads: a throughput sample's KPIs, an RTT sample's
#: value, a handover's signalling.  A sample's value is its last column.
_TPUT_COLUMNS = ("time_s", "tech", "rsrp_dbm", "mcs", "bler", "n_ccs", "tput_mbps")
_RTT_COLUMNS = ("time_s", "tech", "rtt_ms")
_HO_COLUMNS = ("time_s", "duration_ms", "from_cell", "to_cell")

#: The KPI fields of an RTT test's rows: the RTT tool logs no PHY KPIs.
_NO_KPIS = (-99.0, 0, 0.0, 1, 0.0)


def _rows_by_test(part: Source, table: str, columns: tuple[str, ...]) -> dict[int, list[tuple]]:
    """Each test's rows of ``table`` as tuples of ``columns``, in row order."""
    test_ids, *values = select_columns(part, table, ("test_id", *columns))
    rows = list(zip(*(v.tolist() for v in values)))
    return {
        test_id: [rows[i] for i in positions.tolist()]
        for test_id, positions in group_rows(test_ids).items()
    }


def export_logs(
    source: Source,
    route: Route,
    test_types: tuple[TestType, ...] = (
        TestType.DOWNLINK_THROUGHPUT,
        TestType.UPLINK_THROUGHPUT,
        TestType.RTT,
    ),
    max_tests: int | None = None,
    timeline: TripTimeline | None = None,
) -> tuple[list[DrmFile], list[AppLogFile]]:
    """Render DRM + app-layer log files for the dataset's tests.

    Tests are exported in start-time order (operator code breaking ties);
    samples and handovers join their test by id inside each partition.

    Parameters
    ----------
    max_tests:
        Optional cap on the number of tests exported (keeps integration
        tests fast); ``None`` exports everything.
    timeline:
        Optional trip timeline; when given, campaign time maps onto the
        paper's 8-day wall-clock schedule (overnight stops included), so
        exported filenames span multiple calendar days as the real logs
        did.
    """
    of_tests = (In("test_type", test_types), Eq("static", False))
    parts = list(partitions(source))
    tests: list[tuple[_Test, int]] = []
    for k, part in enumerate(parts):
        rows = select_rows(part, "test", _Test._fields, of_tests)
        tests.extend((_Test(*row), k) for row in rows)
    tests.sort(key=lambda item: (item[0].start_time_s, item[0].operator.code))
    if max_tests is not None:
        tests = tests[:max_tests]

    joined = [
        {table: _rows_by_test(part, table, columns) for table, columns in (
            ("tput", _TPUT_COLUMNS), ("rtt", _RTT_COLUMNS), ("ho", _HO_COLUMNS)
        )}
        for part in parts
    ]
    drm_files: list[DrmFile] = []
    app_logs: list[AppLogFile] = []
    for test, k in tests:
        rows = joined[k]
        table = "rtt" if test.test_type is TestType.RTT else "tput"
        samples = rows[table].get(test.test_id, [])
        handovers = rows["ho"].get(test.test_id, [])
        drm, log = _build_logs(test, route, samples, handovers, timeline)
        drm_files.append(drm)
        app_logs.append(log)
    return drm_files, app_logs


def _build_logs(
    test: _Test,
    route: Route,
    samples: list[tuple],
    handovers: list[tuple],
    timeline: TripTimeline | None = None,
) -> tuple[DrmFile, AppLogFile]:
    """One test's DRM file and app-layer log."""
    position = route.position_at(min(test.start_mark_m, route.total_length_m))
    offset_h = timezone_for_longitude(position.point.lon).utc_offset_hours
    start_utc = _utc_at(test.start_time_s, timeline)
    drm = DrmFile(
        operator=test.operator,
        test_label=test.test_type.value,
        start_local=start_utc + timedelta(hours=offset_h),
    )
    is_rtt = test.test_type is TestType.RTT
    for time_s, tech, *kpis in samples:
        drm.kpi_records.append(XcalKpiRecord(
            _edt_at(time_s, timeline), tech, *(_NO_KPIS if is_rtt else kpis)
        ))
    for time_s, duration_ms, from_cell, to_cell in handovers:
        start = _edt_at(time_s, timeline)
        end = start + timedelta(milliseconds=duration_ms)
        drm.signaling_records.append(
            SignalingRecord(start, "HO_START", str(from_cell), str(to_cell))
        )
        drm.signaling_records.append(
            SignalingRecord(end, "HO_END", str(from_cell), str(to_cell))
        )
    log = AppLogFile(
        operator=test.operator,
        test_label=test.test_type.value,
        start_utc=start_utc,
        convention=_APP_CONVENTION[test.test_type],
        utc_offset_hours=offset_h,
    )
    for time_s, *_, value in samples:
        log.samples.append((time_s - test.start_time_s, value))
    return drm, log
