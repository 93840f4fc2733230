"""Unit conversions and physical constants used throughout the library.

The paper mixes US-customary road units (miles, mph) with SI link units
(Mbps, ms, dBm).  Centralising the conversions keeps every module consistent
and makes the analysis code read like the paper: speed bins in mph, distances
in miles for handover rates, kilometres for trip totals.
"""

from __future__ import annotations

import math

# --- distance ---------------------------------------------------------------

METERS_PER_MILE = 1609.344
METERS_PER_KM = 1000.0

# --- time -------------------------------------------------------------------

S_PER_HOUR = 3600.0

#: XCAL's application-layer throughput logging period (paper §5, Fig. 11c).
XCAL_SAMPLE_PERIOD_S = 0.5

#: The handover-logger app's ICMP keep-alive interval (paper §3).
HANDOVER_LOGGER_PING_INTERVAL_S = 0.2

#: The handover-logger's ICMP payload size in bytes (paper §3).
HANDOVER_LOGGER_PING_PAYLOAD_BYTES = 38


def miles_to_meters(miles: float) -> float:
    """Convert statute miles to meters."""
    return miles * METERS_PER_MILE


def meters_to_miles(meters: float) -> float:
    """Convert meters to statute miles."""
    return meters / METERS_PER_MILE


def km_to_miles(km: float) -> float:
    """Convert kilometres to statute miles."""
    return meters_to_miles(km * METERS_PER_KM)


def miles_to_km(miles: float) -> float:
    """Convert statute miles to kilometres."""
    return miles_to_meters(miles) / METERS_PER_KM


# --- speed ------------------------------------------------------------------


def mph_to_mps(mph: float) -> float:
    """Convert miles-per-hour to meters-per-second."""
    return mph * METERS_PER_MILE / S_PER_HOUR


def mps_to_mph(mps: float) -> float:
    """Convert meters-per-second to miles-per-hour."""
    return mps * S_PER_HOUR / METERS_PER_MILE


# --- data rate & volume -----------------------------------------------------

BITS_PER_BYTE = 8


def mbps_to_bps(mbps: float) -> float:
    """Convert megabits-per-second to bits-per-second."""
    return mbps * 1e6


def bps_to_mbps(bps: float) -> float:
    """Convert bits-per-second to megabits-per-second."""
    return bps / 1e6


def bytes_to_megabits(nbytes: float) -> float:
    """Convert a byte count to megabits."""
    return nbytes * BITS_PER_BYTE / 1e6


def megabits_to_bytes(mbits: float) -> float:
    """Convert megabits to bytes."""
    return mbits * 1e6 / BITS_PER_BYTE


def bytes_to_gigabytes(nbytes: float) -> float:
    """Convert a byte count to gigabytes (decimal GB, as in the paper)."""
    return nbytes / 1e9


# --- RF power ---------------------------------------------------------------


def dbm_to_mw(dbm: float) -> float:
    """Convert a power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power in milliwatts to dBm.

    Raises
    ------
    ValueError
        If ``mw`` is not strictly positive (log of a non-positive power).
    """
    if mw <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {mw}")
    return 10.0 * math.log10(mw)


def db_sum(*dbs: float) -> float:
    """Sum powers expressed in dB-scale (adds in the linear domain)."""
    if not dbs:
        raise ValueError("db_sum requires at least one value")
    return mw_to_dbm(sum(dbm_to_mw(v) for v in dbs))


# --- speed bins (paper §4.2, §5.5) -------------------------------------------

#: Paper's speed bins in mph: low (cities), mid (suburban), high (highways).
SPEED_BIN_EDGES_MPH = (0.0, 20.0, 60.0, float("inf"))
SPEED_BIN_LABELS = ("0-20 mph", "20-60 mph", "60+ mph")


def speed_bin(mph: float) -> str:
    """Return the paper's speed-bin label for a speed in mph.

    >>> speed_bin(10.0)
    '0-20 mph'
    >>> speed_bin(65.0)
    '60+ mph'
    """
    if mph < 0.0:
        raise ValueError(f"speed must be non-negative, got {mph}")
    if mph < SPEED_BIN_EDGES_MPH[1]:
        return SPEED_BIN_LABELS[0]
    if mph < SPEED_BIN_EDGES_MPH[2]:
        return SPEED_BIN_LABELS[1]
    return SPEED_BIN_LABELS[2]
