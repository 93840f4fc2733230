"""Dataset integrity validator."""

import dataclasses
import random
from unittest import mock

import pytest

from tests import row_oracle
from tests.conftest import ENGINE_CAMPAIGN, ENGINE_WINDOW_KM
from repro.campaign.dataset import RECORD_FAMILIES, DriveDataset
from repro.campaign.tests import TestType
from repro.campaign.validation import validate_dataset
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.radio.operators import Operator
from repro.store.columnar import ColumnTable


class TestCleanDataset:
    def test_generated_dataset_validates(self, dataset):
        report = validate_dataset(dataset)
        assert report.ok, [str(i) for i in report.issues[:5]]
        assert report.checks_run > 1000

    def test_bare_dataset_validates(self, bare_dataset):
        assert validate_dataset(bare_dataset).ok


def _copy_with(dataset, **overrides):
    """A dataset holding ``dataset``'s tables, with ``overrides``' records
    assigned to their attributes."""
    clone = DriveDataset(
        seed=dataset.seed, scale=dataset.scale,
        route_length_km=dataset.route_length_km,
    )
    for family in RECORD_FAMILIES:
        clone.set_table(dataset.table(family.table))
    for key, value in overrides.items():
        setattr(clone, key, value)
    return clone


class TestCorruptionDetection:
    def test_orphan_sample_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        orphan = dataclasses.replace(corrupt.throughput_samples[0], test_id=999_999)
        corrupt.throughput_samples = [*corrupt.throughput_samples, orphan]
        report = validate_dataset(corrupt)
        assert not report.ok
        assert any(i.check == "tput.test-ref" for i in report.issues)

    def test_out_of_range_throughput_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        bad = dataclasses.replace(corrupt.throughput_samples[0], tput_mbps=99_999.0)
        corrupt.throughput_samples = [bad, *corrupt.throughput_samples[1:]]
        report = validate_dataset(corrupt)
        assert any(i.check == "tput.range" for i in report.issues)

    def test_bad_bler_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        bad = dataclasses.replace(corrupt.throughput_samples[0], bler=1.5)
        corrupt.throughput_samples = [bad, *corrupt.throughput_samples[1:]]
        report = validate_dataset(corrupt)
        assert any(i.check == "kpi.bler" for i in report.issues)

    def test_unordered_samples_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        samples = list(corrupt.throughput_samples)
        first_test = samples[0].test_id
        subset = [s for s in samples if s.test_id == first_test]
        swapped = dataclasses.replace(subset[0], time_s=subset[-1].time_s + 100.0)
        corrupt.throughput_samples = [swapped, *samples[1:]]
        report = validate_dataset(corrupt)
        assert any(
            i.check in ("tput.monotone", "tput.window") for i in report.issues
        )

    def test_overlapping_passive_segments_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        seg = corrupt.passive_coverage[0]
        overlap = dataclasses.replace(seg, start_m=seg.start_m, end_m=seg.end_m + 5000.0)
        corrupt.passive_coverage = [*corrupt.passive_coverage, overlap]
        report = validate_dataset(corrupt)
        assert any(i.check == "passive.tiling" for i in report.issues)

    def test_passive_gap_detected(self, bare_dataset):
        """Coverage must tile the route: a missing segment is a gap."""
        segs = [s for s in bare_dataset.passive_coverage if s.operator is Operator.TMOBILE]
        gone = segs[len(segs) // 2]
        corrupt = _copy_with(
            bare_dataset,
            passive_coverage=[s for s in bare_dataset.passive_coverage if s is not gone],
        )
        report = validate_dataset(corrupt)
        assert not report.ok
        assert [i.check for i in report.issues] == ["passive.tiling"]
        assert "gap" in report.issues[0].detail

    def test_passive_coverage_short_of_route_end_detected(self, bare_dataset):
        corrupt = _copy_with(
            bare_dataset, passive_coverage=bare_dataset.passive_coverage[:-1]
        )
        report = validate_dataset(corrupt)
        assert [i.check for i in report.issues] == ["passive.tiling"]
        assert "route end" in report.issues[0].detail

    def test_issue_cap_respected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        corrupt.throughput_samples = [
            dataclasses.replace(s, test_id=888_888)
            for s in corrupt.throughput_samples
        ]
        report = validate_dataset(corrupt, max_issues=10)
        assert len(report.issues) == 10


class TestColumnHeldDataset:
    """Validation reads tables as columns and never builds records."""

    def test_engine_result_stays_column_held(self):
        ds, _ = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                executor="serial",
                planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
            )
        )
        tables = [ds.table(family.table) for family in RECORD_FAMILIES]
        with mock.patch.object(
            ColumnTable, "rows", side_effect=AssertionError("records built")
        ):
            report = validate_dataset(ds)
        assert report.ok, [str(i) for i in report.issues[:5]]
        assert [ds.table(f.table) for f in RECORD_FAMILIES] == tables

    @pytest.mark.parametrize("trial", range(12))
    def test_same_report_as_the_record_loop(self, dataset, trial):
        """Random corruptions of every checked field: the column checks
        report what the record loop of ``tests.row_oracle`` reports, in
        the same order, with the same check count, under any issue cap."""
        rng = random.Random(trial)
        corrupt = _copy_with(dataset)
        for _ in range(rng.randint(1, 4)):
            _CORRUPTIONS[rng.randrange(len(_CORRUPTIONS))](corrupt, rng)
        for cap in (3, 50, 10_000):
            want = row_oracle.validate(corrupt, max_issues=cap)
            assert validate_dataset(corrupt, max_issues=cap) == want


def _pick(ds: DriveDataset, attr: str, rng: random.Random, **changes) -> None:
    """Replace one random record of ``ds.<attr>`` by a changed copy."""
    rows = list(getattr(ds, attr))
    i = rng.randrange(len(rows))
    rows[i] = dataclasses.replace(rows[i], **changes)
    setattr(ds, attr, rows)


def _drop(ds: DriveDataset, attr: str, rng: random.Random) -> None:
    """Remove one random record of ``ds.<attr>``."""
    rows = list(getattr(ds, attr))
    del rows[rng.randrange(len(rows))]
    setattr(ds, attr, rows)


def _other_operator(op: Operator) -> Operator:
    return Operator.ATT if op is not Operator.ATT else Operator.VERIZON


_CORRUPTIONS = (
    lambda ds, rng: _pick(ds, "throughput_samples", rng, test_id=999),
    lambda ds, rng: _pick(ds, "throughput_samples", rng, tput_mbps=-1.0, mcs=40),
    lambda ds, rng: _pick(ds, "throughput_samples", rng, time_s=1e9, rsrp_dbm=0.0),
    lambda ds, rng: _pick(ds, "throughput_samples", rng, operator=_other_operator(
        ds.throughput_samples[0].operator), bler=2.0, speed_mph=float("nan")),
    lambda ds, rng: _pick(ds, "rtt_samples", rng, test_id=77, rtt_ms=0.0),
    lambda ds, rng: _pick(ds, "handovers", rng, test_id=5),
    lambda ds, rng: _pick(ds, "tests", rng, operator=Operator.TMOBILE, end_time_s=0.0),
    lambda ds, rng: setattr(ds, "tests", [
        *ds.tests, dataclasses.replace(ds.tests[0], start_time_s=1e9)
    ]),
    lambda ds, rng: _drop(ds, "passive_coverage", rng),
    lambda ds, rng: _pick(ds, "passive_coverage", rng, end_m=1e9),
    lambda ds, rng: _pick(ds, "offload_runs", rng, frac_hs5g=1.5, uplink_megabits=-1.0),
    lambda ds, rng: _pick(ds, "offload_runs", rng, app=TestType.VIDEO_360),
    lambda ds, rng: _pick(ds, "video_runs", rng, rebuffer_ratio=2.0),
    lambda ds, rng: _pick(ds, "gaming_runs", rng, frame_drop_rate=-0.1),
)
