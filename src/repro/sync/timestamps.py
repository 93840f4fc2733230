"""Timestamp normalisation across the trip's timestamp conventions.

Three conventions coexist in the raw logs (§B):

* **EDT** — XCAL's internal convention for DRM file *contents*, regardless
  of where the vehicle was;
* **local wall-clock** — DRM *filenames* and some app logs, in the timezone
  of the capture location (which changed four times over the trip);
* **UTC epoch** — the remaining app logs.

Everything is normalised to naive UTC datetimes.
"""

from __future__ import annotations

from datetime import datetime

from repro.geo.route import Route
from repro.geo.timezones import Timezone, XCAL_INTERNAL_TZ

__all__ = ["edt_to_utc", "local_to_utc", "utc_to_local", "utc_offset_for_mark"]


def edt_to_utc(edt: datetime) -> datetime:
    """Convert an XCAL content timestamp (EDT) to UTC."""
    return edt - XCAL_INTERNAL_TZ.utc_offset


def local_to_utc(local: datetime, tz: Timezone) -> datetime:
    """Convert a local wall-clock timestamp to UTC."""
    return local - tz.utc_offset


def utc_to_local(utc: datetime, tz: Timezone) -> datetime:
    """Convert a UTC timestamp to local wall-clock time in ``tz``."""
    return utc + tz.utc_offset


def utc_offset_for_mark(route: Route, mark_m: float) -> int:
    """UTC offset (hours) of the local timezone at a route position."""
    position = route.position_at(min(max(mark_m, 0.0), route.total_length_m))
    return position.timezone.utc_offset_hours
