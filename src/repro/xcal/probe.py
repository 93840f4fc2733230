"""Streaming XCAL probe: collects one test's capture as it happens.

:mod:`repro.xcal.export` renders DRM files from a finished dataset in batch;
this probe is the *streaming* equivalent of an XCAL Solo attached over
USB-C — it observes each tick of the test as it occurs and accumulates the
capture, with the same timestamp conventions (local-time filename, EDT
contents).
"""

from __future__ import annotations

from collections.abc import Sequence
from datetime import datetime, timedelta
from typing import Protocol

from repro.geo.timezones import XCAL_INTERNAL_TZ, Timezone
from repro.mobility.events import HandoverEvent
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.xcal.drm import DrmFile
from repro.xcal.records import SignalingRecord, XcalKpiRecord

__all__ = ["ProbeTick", "XcalProbe"]


class ProbeTick(Protocol):
    """What the probe reads off one 500 ms tick of the serving link."""

    time_s: float
    tech: RadioTechnology
    rsrp_dbm: float
    mcs: int
    bler: float
    n_ccs: int
    handovers: Sequence[HandoverEvent]


class XcalProbe:
    """Accumulates one test's ticks into a DRM capture.

    Parameters
    ----------
    operator:
        The phone's carrier (written into the DRM filename).
    test_label:
        The test-type tag for the filename.
    trip_start_utc:
        Wall-clock anchor for campaign time 0.
    local_tz:
        Timezone of the capture location (DRM filenames use local time).

    Examples
    --------
    Attach, feed ticks, detach::

        probe = XcalProbe(op, "dl_tput", trip_start, Timezone.MOUNTAIN)
        for tick in ticks:
            probe.observe(tick, tput_mbps=measured)
        drm = probe.finish()
    """

    def __init__(
        self,
        operator: Operator,
        test_label: str,
        trip_start_utc: datetime,
        local_tz: Timezone,
    ) -> None:
        self._operator = operator
        self._test_label = test_label
        self._trip_start_utc = trip_start_utc
        self._local_tz = local_tz
        self._kpis: list[XcalKpiRecord] = []
        self._signaling: list[SignalingRecord] = []
        self._first_time_s: float | None = None

    def _edt(self, time_s: float) -> datetime:
        return self._trip_start_utc + timedelta(seconds=time_s) + XCAL_INTERNAL_TZ.utc_offset

    def observe(self, tick: ProbeTick, tput_mbps: float = 0.0) -> None:
        """Record one 500 ms tick (KPIs + any handover signalling)."""
        if self._first_time_s is None:
            self._first_time_s = tick.time_s
        self._kpis.append(
            XcalKpiRecord(
                timestamp_edt=self._edt(tick.time_s),
                technology=tick.tech,
                rsrp_dbm=tick.rsrp_dbm,
                mcs=tick.mcs,
                bler=tick.bler,
                n_ccs=tick.n_ccs,
                tput_mbps=tput_mbps,
            )
        )
        for ev in tick.handovers:
            start = self._edt(ev.time_s)
            end = start + timedelta(milliseconds=ev.duration_ms)
            self._signaling.append(
                SignalingRecord(start, "HO_START", str(ev.from_cell), str(ev.to_cell))
            )
            self._signaling.append(
                SignalingRecord(end, "HO_END", str(ev.from_cell), str(ev.to_cell))
            )

    @property
    def tick_count(self) -> int:
        return len(self._kpis)

    def finish(self) -> DrmFile:
        """Close the capture and return the DRM file.

        Raises
        ------
        ValueError
            If no ticks were observed (XCAL writes no empty captures).
        """
        if self._first_time_s is None:
            raise ValueError("probe observed no ticks")
        start_local = (
            self._trip_start_utc
            + timedelta(seconds=self._first_time_s)
            + self._local_tz.utc_offset
        )
        drm = DrmFile(
            operator=self._operator,
            test_label=self._test_label,
            start_local=start_local.replace(microsecond=0),
        )
        drm.kpi_records = list(self._kpis)
        drm.signaling_records = list(self._signaling)
        return drm
