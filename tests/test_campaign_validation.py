"""Dataset integrity validator."""

import dataclasses

import pytest

from repro.campaign.dataset import DriveDataset
from repro.campaign.validation import validate_dataset
from repro.radio.operators import Operator


class TestCleanDataset:
    def test_generated_dataset_validates(self, dataset):
        report = validate_dataset(dataset)
        assert report.ok, [str(i) for i in report.issues[:5]]
        assert report.checks_run > 1000

    def test_bare_dataset_validates(self, bare_dataset):
        assert validate_dataset(bare_dataset).ok


def _copy_with(dataset, **overrides):
    clone = DriveDataset(
        seed=dataset.seed, scale=dataset.scale,
        route_length_km=dataset.route_length_km,
    )
    clone.throughput_samples = list(dataset.throughput_samples)
    clone.rtt_samples = list(dataset.rtt_samples)
    clone.tests = list(dataset.tests)
    clone.handovers = list(dataset.handovers)
    clone.passive_coverage = list(dataset.passive_coverage)
    clone.offload_runs = list(dataset.offload_runs)
    clone.video_runs = list(dataset.video_runs)
    clone.gaming_runs = list(dataset.gaming_runs)
    for key, value in overrides.items():
        setattr(clone, key, value)
    return clone


class TestCorruptionDetection:
    def test_orphan_sample_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        orphan = dataclasses.replace(corrupt.throughput_samples[0], test_id=999_999)
        corrupt.throughput_samples = corrupt.throughput_samples + [orphan]
        report = validate_dataset(corrupt)
        assert not report.ok
        assert any(i.check == "tput.test-ref" for i in report.issues)

    def test_out_of_range_throughput_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        bad = dataclasses.replace(corrupt.throughput_samples[0], tput_mbps=99_999.0)
        corrupt.throughput_samples = [bad] + corrupt.throughput_samples[1:]
        report = validate_dataset(corrupt)
        assert any(i.check == "tput.range" for i in report.issues)

    def test_bad_bler_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        bad = dataclasses.replace(corrupt.throughput_samples[0], bler=1.5)
        corrupt.throughput_samples = [bad] + corrupt.throughput_samples[1:]
        report = validate_dataset(corrupt)
        assert any(i.check == "kpi.bler" for i in report.issues)

    def test_unordered_samples_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        samples = list(corrupt.throughput_samples)
        first_test = samples[0].test_id
        subset = [s for s in samples if s.test_id == first_test]
        swapped = dataclasses.replace(subset[0], time_s=subset[-1].time_s + 100.0)
        corrupt.throughput_samples = [swapped] + samples[1:]
        report = validate_dataset(corrupt)
        assert any(
            i.check in ("tput.monotone", "tput.window") for i in report.issues
        )

    def test_overlapping_passive_segments_detected(self, bare_dataset):
        corrupt = _copy_with(bare_dataset)
        seg = corrupt.passive_coverage[0]
        overlap = dataclasses.replace(seg, start_m=seg.start_m, end_m=seg.end_m + 5000.0)
        corrupt.passive_coverage = corrupt.passive_coverage + [overlap]
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
