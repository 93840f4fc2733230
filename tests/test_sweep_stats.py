"""The statistics layer: registry, bootstrap CIs, and NaN discipline."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import SweepError
from repro.store import query
from repro.sweep.stats import (
    StatisticSummary,
    bootstrap_ci,
    evaluate_statistics,
    get_statistic,
    register_statistic,
    registered_statistics,
    summarize_statistic,
    unregister_statistic,
)


class TestRegistry:
    def test_builtin_coverage_of_paper_sections(self):
        names = registered_statistics()
        # §4 coverage, §5 performance, §6 handovers, §7 apps, Table 1.
        assert len(names) >= 15
        assert {
            "coverage_5g_share_T",
            "driving_dl_median_mbps_V",
            "driving_rtt_median_ms_A",
            "handovers_per_mile_median_V",
            "video_qoe_median",
            "unique_cells_total",
        } <= set(names)

    def test_unknown_name_raises(self):
        with pytest.raises(SweepError):
            get_statistic("nope")

    def test_duplicate_registration_rejected(self):
        register_statistic("tmp_stat", "test", "", lambda source, seeds: 1.0)
        try:
            with pytest.raises(SweepError):
                register_statistic(
                    "tmp_stat", "again", "", lambda source, seeds: 2.0
                )
        finally:
            unregister_statistic("tmp_stat")

    def test_custom_statistic_evaluates(self, bare_dataset):
        register_statistic(
            "tmp_n_rtts", "number of RTT samples", "samples",
            lambda source, seeds: float(query.count(source, "rtt", seeds=seeds)),
        )
        try:
            values = evaluate_statistics(bare_dataset, ["tmp_n_rtts"])
            assert values["tmp_n_rtts"] == len(bare_dataset.rtt_samples) > 0
        finally:
            unregister_statistic("tmp_n_rtts")

    def test_evaluate_on_full_dataset(self, dataset):
        """On an apps+static campaign every built-in should be finite."""
        values = evaluate_statistics(dataset)
        finite = [n for n, v in values.items() if math.isfinite(v)]
        assert len(finite) >= 15, sorted(set(values) - set(finite))

    def test_uncomputable_statistic_is_nan_not_raise(self, bare_dataset):
        # bare_dataset has no app runs: app statistics degrade to NaN.
        values = evaluate_statistics(bare_dataset, ["video_qoe_median"])
        assert math.isnan(values["video_qoe_median"])


class TestBootstrapCi:
    def test_deterministic(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        assert bootstrap_ci(values, rng=rng_a) == bootstrap_ci(values, rng=rng_b)

    def test_interval_ordered_and_within_range(self):
        values = np.asarray([3.0, 1.0, 4.0, 1.5, 9.2, 2.6])
        lo, hi = bootstrap_ci(values, confidence=0.95, n_boot=500)
        assert lo <= hi
        assert values.min() <= lo and hi <= values.max()

    def test_single_value_is_nan_not_zero_width(self):
        # Regression: one value used to yield the zero-width interval
        # (4.2, 4.2) — perfect certainty from a single replication.
        lo, hi = bootstrap_ci(np.asarray([4.2]))
        assert math.isnan(lo) and math.isnan(hi)

    def test_narrows_with_confidence(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        rng = np.random.default_rng(0)
        lo95, hi95 = bootstrap_ci(values, 0.95, 2000, np.random.default_rng(0))
        lo50, hi50 = bootstrap_ci(values, 0.50, 2000, np.random.default_rng(0))
        assert hi50 - lo50 < hi95 - lo95

    def test_invalid_inputs(self):
        with pytest.raises(SweepError):
            bootstrap_ci(np.asarray([1.0, 2.0]), confidence=1.5)
        with pytest.raises(SweepError):
            bootstrap_ci(np.asarray([1.0, 2.0]), n_boot=0)
        with pytest.raises(SweepError):
            bootstrap_ci(np.asarray([]))
        with pytest.raises(SweepError):
            bootstrap_ci(np.asarray([1.0, math.nan]))


class TestSummaries:
    def test_summary_fields(self):
        register_statistic("tmp_sum", "test", "u", lambda source, seeds: 0.0)
        try:
            summary = summarize_statistic(
                "tmp_sum", {1: 2.0, 2: 4.0, 3: 6.0}, confidence=0.9, n_boot=200
            )
        finally:
            unregister_statistic("tmp_sum")
        assert summary is not None
        assert summary.seeds == (1, 2, 3)
        assert summary.mean == pytest.approx(4.0)
        assert summary.median == pytest.approx(4.0)
        assert summary.std == pytest.approx(2.0)
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.n_seeds == 3

    def test_nan_seeds_excluded(self):
        register_statistic("tmp_nan", "test", "", lambda source, seeds: 0.0)
        try:
            summary = summarize_statistic(
                "tmp_nan", {1: 1.0, 2: math.nan, 3: 3.0}
            )
        finally:
            unregister_statistic("tmp_nan")
        assert summary is not None
        assert summary.seeds == (1, 3)
        assert summary.values == (1.0, 3.0)

    def test_all_nan_returns_none(self):
        register_statistic("tmp_allnan", "test", "", lambda source, seeds: math.nan)
        try:
            assert summarize_statistic("tmp_allnan", {1: math.nan}) is None
        finally:
            unregister_statistic("tmp_allnan")

    def test_repeated_summaries_bit_identical(self):
        """The bootstrap RNG is derived from the statistic name, so the
        same sweep emits the same intervals every time."""
        register_statistic("tmp_det", "test", "", lambda source, seeds: 0.0)
        try:
            a = summarize_statistic("tmp_det", {1: 1.0, 2: 5.0, 3: 2.5})
            b = summarize_statistic("tmp_det", {1: 1.0, 2: 5.0, 3: 2.5})
        finally:
            unregister_statistic("tmp_det")
        assert a == b

    def test_round_trip_through_json(self):
        register_statistic("tmp_rt", "round trip", "ms", lambda source, seeds: 0.0)
        try:
            summary = summarize_statistic("tmp_rt", {1: 1.25, 2: 2.75})
        finally:
            unregister_statistic("tmp_rt")
        obj = summary.to_obj()
        assert StatisticSummary.from_obj(obj).to_obj() == obj

    def test_single_seed_surfaces_nan_not_false_certainty(self):
        """Regression: one finite seed used to report std=0.0 and a
        zero-width CI at the value, claiming certainty a single
        replication cannot support."""
        register_statistic("tmp_one", "single seed", "ms", lambda source, seeds: 0.0)
        try:
            summary = summarize_statistic("tmp_one", {7: 3.5})
        finally:
            unregister_statistic("tmp_one")
        assert summary is not None
        assert summary.n_seeds == 1
        assert summary.mean == 3.5 and summary.median == 3.5
        assert math.isnan(summary.std)
        assert math.isnan(summary.ci_low) and math.isnan(summary.ci_high)

    def test_single_seed_round_trip_is_strict_json(self):
        """The NaN std/CI must serialise as null (strict JSON), and parse
        back to NaN — not crash, and not silently become 0.0."""
        register_statistic("tmp_one_rt", "single seed", "ms", lambda source, seeds: 0.0)
        try:
            summary = summarize_statistic("tmp_one_rt", {7: 3.5})
        finally:
            unregister_statistic("tmp_one_rt")
        obj = summary.to_obj()
        assert obj["std"] is None
        assert obj["ci_low"] is None and obj["ci_high"] is None
        # Strict encoders (allow_nan=False) must accept the document.
        text = json.dumps(obj, allow_nan=False)
        parsed = StatisticSummary.from_obj(json.loads(text))
        assert math.isnan(parsed.std)
        assert math.isnan(parsed.ci_low) and math.isnan(parsed.ci_high)
        assert parsed.to_obj() == obj
