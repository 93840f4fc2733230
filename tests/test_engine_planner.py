"""Planner: canonical window decomposition and its invariants."""

import dataclasses

import pytest

from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.engine import PlannerParams, plan_campaign
from repro.engine.checkpoint import config_fingerprint
from repro.engine.planner import (
    TEST_ID_STRIDE,
    nominal_cycle_duration_s,
)
from repro.errors import EngineError
from repro.geo.regions import RegionType
from repro.geo.route import Route, build_cross_country_route


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(seed=42, scale=0.01)


@pytest.fixture(scope="module")
def plan(config, route):
    return plan_campaign(config, route, PlannerParams(window_km=500.0))


class TestDecomposition:
    def test_windows_tile_route_exactly(self, plan, route):
        assert plan.windows[0].start_m == 0.0
        assert plan.windows[-1].end_m == pytest.approx(route.total_length_m)
        for prev, nxt in zip(plan.windows, plan.windows[1:]):
            assert nxt.start_m == pytest.approx(prev.end_m)

    def test_indices_and_id_namespaces(self, plan):
        for i, window in enumerate(plan.windows):
            assert window.index == i
            assert window.test_id_base == (i + 1) * TEST_ID_STRIDE

    def test_plan_is_pure_function(self, config, route):
        params = PlannerParams(window_km=500.0)
        assert plan_campaign(config, route, params) == plan_campaign(
            config, route, params
        )

    def test_last_cycle_past_window_end_resolves_zones(self, plan, route):
        # A cycle started just before a window's end runs past it; the
        # whole-route world still has zones there to camp on.
        window = plan.windows[0]
        config = CampaignConfig(seed=42, scale=0.01, include_apps=False,
                                include_static=False)
        campaign = DriveCampaign(config, route, window=window)
        campaign._mark_m = window.end_m - 10.0
        campaign._run_cycle()
        assert campaign._mark_m > window.end_m
        for session in campaign._sessions.values():
            zone = session.deployment.zone_at(campaign._mark_m)
            assert zone.start_m <= campaign._mark_m <= zone.end_m

    def test_window_km_override(self, config, route):
        coarse = plan_campaign(config, route, PlannerParams(window_km=2000.0))
        fine = plan_campaign(config, route, PlannerParams(window_km=400.0))
        assert coarse.n_windows < fine.n_windows
        assert fine.n_windows >= 10


class TestAdaptiveSizing:
    def test_smaller_scale_means_fewer_windows(self, route):
        # Window length tracks the duty-cycle stride (~1/scale), keeping the
        # per-window cycle count roughly scale-independent.
        small = plan_campaign(CampaignConfig(seed=1, scale=0.003), route)
        large = plan_campaign(CampaignConfig(seed=1, scale=0.05), route)
        assert small.n_windows <= large.n_windows
        assert small.window_km > large.window_km

    def test_cycle_duration_shrinks_without_apps(self, route):
        with_apps = nominal_cycle_duration_s(CampaignConfig(include_apps=True))
        without = nominal_cycle_duration_s(CampaignConfig(include_apps=False))
        assert without < with_apps


class TestBatches:
    def test_none_means_one_batch_per_window(self, plan):
        batches = plan.batches(None)
        assert len(batches) == plan.n_windows
        assert all(len(b) == 1 for b in batches)

    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_batches_preserve_order_and_content(self, plan, n):
        batches = plan.batches(n)
        flattened = [w for batch in batches for w in batch]
        assert flattened == list(plan.windows)
        assert len(batches) == min(n, plan.n_windows)

    def test_invalid_batch_count(self, plan):
        with pytest.raises(EngineError):
            plan.batches(0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_km": 0.0},
            {"window_km": -5.0},
            {"cycles_per_window": 0.0},
            {"min_window_km": -1.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(EngineError):
            PlannerParams(**kwargs)


class TestFingerprint:
    def test_stable_for_equal_inputs(self, config, route, plan):
        assert config_fingerprint(config, plan, route) == config_fingerprint(
            config, plan, build_cross_country_route()
        )

    def test_sensitive_to_seed_scale_and_windows(self, config, route, plan):
        base = config_fingerprint(config, plan, route)
        other_seed = CampaignConfig(seed=43, scale=config.scale)
        other_scale = CampaignConfig(seed=config.seed, scale=0.02)
        other_plan = plan_campaign(config, route, PlannerParams(window_km=900.0))
        assert config_fingerprint(other_seed, plan, route) != base
        assert config_fingerprint(other_scale, plan, route) != base
        assert config_fingerprint(config, other_plan, route) != base

    def test_sensitive_to_route_at_equal_length(self, config, route, plan):
        """Equal-length routes plan equal windows but are different drives."""
        first = route.segments[0]
        other = Route(
            segments=[dataclasses.replace(first, region=RegionType.HIGHWAY)]
            + route.segments[1:],
            cities=route.cities,
        )
        assert other.total_length_m == route.total_length_m
        assert plan_campaign(config, other, PlannerParams(window_km=500.0)) == plan
        assert config_fingerprint(config, plan, other) != config_fingerprint(
            config, plan, route
        )
