"""Dataset integrity validation.

A released measurement dataset needs a validator — consumers must be able to
check that the files they downloaded (or the campaign they generated) are
internally consistent before building analyses on them.  The checks here are
exactly the invariants the analysis modules rely on.

Every check runs over the column arrays of :meth:`DriveDataset.table`, so
validating a dataset builds no records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.campaign.dataset import DriveDataset
from repro.campaign.tests import TestType
from repro.radio.operators import Operator

__all__ = ["ValidationIssue", "ValidationReport", "validate_dataset"]

#: Rows of the throughput and RTT tables whose physical ranges are checked.
_RANGE_ROWS = 200_000


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


@dataclass(frozen=True, slots=True)
class _Check:
    """One named invariant over the rows of a table: ``ok`` per row, run
    only on the rows of ``where`` (all rows when ``None``)."""

    name: str
    ok: np.ndarray
    detail: Callable[[int], str]
    where: np.ndarray | None = None


def _run_rows(report: ValidationReport, max_issues: int, checks: list[_Check]) -> None:
    """Run row-wise checks as if row by row, each row's checks in order:
    count every check run and report the first failures up to the cap."""
    room = max_issues - len(report.issues)
    failures: list[tuple[int, int]] = []
    for k, check in enumerate(checks):
        failed = ~check.ok
        if check.where is None:
            report.checks_run += check.ok.size
        else:
            report.checks_run += int(np.count_nonzero(check.where))
            failed &= check.where
        if room > 0:
            failures.extend((int(row), k) for row in np.flatnonzero(failed)[:room])
    for row, k in sorted(failures)[:max(room, 0)]:
        report.add(checks[k].name, checks[k].detail(row))


_OPERATORS = tuple(Operator)
_OPERATOR_INDEX = {op.name: i for i, op in enumerate(_OPERATORS)}


def _operator_index(table) -> np.ndarray:
    """Each row's operator as an index into :data:`_OPERATORS`."""
    remap = np.array(
        [_OPERATOR_INDEX.get(v, -1) for v in table.values["operator"]], dtype=np.int64
    )
    return remap[table.arrays["operator"]]


class _TestIndex:
    """Test rows by id (the last row of a repeated id wins), with the test
    columns the sample checks read.  Unknown ids map to a sentinel row
    past the end, whose operator matches nothing."""

    def __init__(self, tests) -> None:
        ids = tests.arrays["test_id"]
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]
        self.missing = tests.count
        self.start = np.append(tests.arrays["start_time_s"], np.nan)
        self.end = np.append(tests.arrays["end_time_s"], np.nan)
        self.operator = np.append(_operator_index(tests), -2)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Each id's test row; :attr:`missing` for an unknown id."""
        if not self._sorted.size:
            return np.full(ids.shape, self.missing)
        pos = np.maximum(np.searchsorted(self._sorted, ids, side="right") - 1, 0)
        return np.where(self._sorted[pos] == ids, self._order[pos], self.missing)


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

    def run(check: str, ok: bool, detail: str) -> None:
        report.checks_run += 1
        if not ok and len(report.issues) < max_issues:
            report.add(check, detail)

    def rows(*checks: _Check) -> None:
        _run_rows(report, max_issues, list(checks))

    index = _TestIndex(dataset.table("test"))

    # --- referential integrity & windows --------------------------------
    tput = dataset.table("tput")
    t_id, t_time = tput.arrays["test_id"], tput.arrays["time_s"]
    row = index.rows(t_id)
    known = row != index.missing
    t_op, test_op = _operator_index(tput), index.operator[row]
    start, end = index.start[row], index.end[row]
    rows(
        _Check("tput.test-ref", known,
               lambda i: f"sample references unknown test {t_id[i]}", ~known),
        _Check("tput.window", (start - 1e-6 <= t_time) & (t_time <= end + 1e-6),
               lambda i: f"sample at t={t_time[i]} outside test {t_id[i]} window",
               known),
        _Check("tput.operator", t_op == test_op,
               lambda i: f"sample operator {_OPERATORS[t_op[i]]} != test "
                         f"operator {_OPERATORS[test_op[i]]}",
               known),
    )
    rtt = dataset.table("rtt")
    r_id = rtt.arrays["test_id"]
    rows(_Check("rtt.test-ref", index.rows(r_id) != index.missing,
                lambda i: f"unknown test {r_id[i]}"))

    # --- per-test monotonicity -------------------------------------------
    # Groups in order of each test id's first sample, as samples_by_test().
    order = np.argsort(t_id, kind="stable")
    ids, times = t_id[order], t_time[order]
    group_start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]) if ids.size else ids
    backwards = np.flatnonzero((ids[1:] == ids[:-1]) & (times[1:] < times[:-1]))
    group_ok = np.ones(group_start.size, dtype=bool)
    group_ok[np.searchsorted(group_start, backwards, side="right") - 1] = False
    first_row = order[group_start]
    by_first = np.argsort(first_row, kind="stable")
    group_ids = ids[group_start][by_first]
    rows(_Check("tput.monotone", group_ok[by_first],
                lambda i: f"test {group_ids[i]} samples not time-ordered"))

    # --- physical ranges ---------------------------------------------------
    tp, rsrp, mcs, bler, speed = (
        tput.arrays[name][:_RANGE_ROWS]
        for name in ("tput_mbps", "rsrp_dbm", "mcs", "bler", "speed_mph")
    )
    rows(
        _Check("tput.range", (0.0 <= tp) & (tp < 10_000.0),
               lambda i: f"throughput {tp[i]} out of range"),
        _Check("kpi.rsrp", (-140.0 <= rsrp) & (rsrp <= -40.0), lambda i: f"RSRP {rsrp[i]}"),
        _Check("kpi.mcs", (0 <= mcs) & (mcs <= 28), lambda i: f"MCS {mcs[i]}"),
        _Check("kpi.bler", (0.0 <= bler) & (bler <= 1.0), lambda i: f"BLER {bler[i]}"),
        _Check("kpi.speed", (0.0 <= speed) & (speed <= 130.0), lambda i: f"speed {speed[i]}"),
    )
    rtt_ms = rtt.arrays["rtt_ms"][:_RANGE_ROWS]
    rows(_Check("rtt.range", (0.0 < rtt_ms) & (rtt_ms < 60_000.0),
                lambda i: f"RTT {rtt_ms[i]}"))

    # --- handovers ----------------------------------------------------------
    ho = dataset.table("ho")
    h_id, h_ms = ho.arrays["test_id"], ho.arrays["duration_ms"]
    h_row = index.rows(h_id)
    h_known = h_row != index.missing
    h_same_op = index.operator[h_row] == _operator_index(ho)
    rows(
        _Check("ho.test-ref", h_known,
               lambda i: f"handover references unknown test {h_id[i]}"),
        _Check("ho.duration", h_ms > 0.0,
               lambda i: f"non-positive handover duration {h_ms[i]}"),
        _Check("ho.operator-test", ~h_known | h_same_op,
               lambda i: f"handover operator mismatch on test {h_id[i]}"),
    )

    # --- passive coverage tiling ---------------------------------------------
    route_end_m = dataset.route_length_km * 1000.0
    passive = dataset.table("passive")
    p_op = _operator_index(passive)
    for code, op in enumerate(_OPERATORS):
        mine = np.flatnonzero(p_op == code)
        mine = mine[np.argsort(passive.arrays["start_m"][mine], kind="stable")]
        starts, ends = passive.arrays["start_m"][mine], passive.arrays["end_m"][mine]
        if mine.size:
            run("passive.tiling", abs(starts[0]) <= 1e-3,
                f"{op} passive coverage starts at {starts[0]}, not 0")
            run("passive.tiling", abs(ends[-1] - route_end_m) <= 1e-3,
                f"{op} passive coverage ends at {ends[-1]}, "
                f"not the route end {route_end_m}")
        nxt, prev_end = starts[1:], ends[:-1]
        rows(
            _Check("passive.tiling", nxt >= prev_end - 1e-6,
                   lambda i: f"{op} passive segments overlap at {nxt[i]}"),
            _Check("passive.tiling", nxt <= prev_end + 1e-6,
                   lambda i: f"{op} passive coverage has a gap at {prev_end[i]}"),
        )

    # --- app runs -------------------------------------------------------------
    offload = dataset.table("offload")
    frac, up = offload.arrays["frac_hs5g"], offload.arrays["uplink_megabits"]
    apps = offload.members("app")
    app_ok = np.array([app in (TestType.AR, TestType.CAV) for app in apps], dtype=bool)
    app_code = offload.arrays["app"]
    rows(
        _Check("app.frac", (0.0 <= frac) & (frac <= 1.0), lambda i: f"frac_hs5g {frac[i]}"),
        _Check("app.bytes", up >= 0.0, lambda i: "negative uplink volume"),
        _Check("app.kind", app_ok[app_code] if app_ok.size else np.ones(0, dtype=bool),
               lambda i: f"bad app {apps[app_code[i]]}"),
    )
    rebuffer = dataset.table("video").arrays["rebuffer_ratio"]
    rows(_Check("video.rebuffer", (0.0 <= rebuffer) & (rebuffer <= 1.0),
                lambda i: f"rebuffer ratio {rebuffer[i]}"))
    drop = dataset.table("gaming").arrays["frame_drop_rate"]
    rows(_Check("gaming.drop", (0.0 <= drop) & (drop <= 1.0),
                lambda i: f"drop rate {drop[i]}"))

    return report
