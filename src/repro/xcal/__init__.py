"""XCAL-style logging: DRM files, KPI records, and dataset export.

The paper's probes (Accuver XCAL Solo) wrote ``.drm`` log files whose
*filenames* carry local-time timestamps while their *contents* carry EDT
timestamps, and the app-layer tools logged UTC or local time depending on
the app (§B).  Reconciling these — across four timezones — required a
dedicated synchronisation software; :mod:`repro.sync` reproduces it, and this
package reproduces the log producers.
"""

from repro.xcal.records import XcalKpiRecord, SignalingRecord
from repro.xcal.drm import DrmFile
from repro.xcal.applog import AppLogFile
from repro.xcal.export import export_logs, TRIP_START_UTC
from repro.xcal.handover_logger import HandoverLoggerTrace, run_handover_logger

__all__ = [
    "XcalKpiRecord",
    "SignalingRecord",
    "DrmFile",
    "AppLogFile",
    "export_logs",
    "TRIP_START_UTC",
    "HandoverLoggerTrace",
    "run_handover_logger",
]
