"""The test-block kernel against the scalar tick loop it replaced.

``DriveCampaign`` runs each test as one scan per phone over arrays
(:mod:`repro.campaign.link`); ``tests/row_oracle.RowDriveCampaign`` is the
tick-major loop of per-tick ``LinkTick`` and record objects it replaced.
Their datasets must be equal byte for byte (the ``write_dataset`` SHA),
across seeds, scales, app and static tests, window plans, policy
overrides, reduced cycles, and runs long enough to evict every sticky
cache and to ping-pong.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest

from repro.campaign.runner import (
    CampaignConfig,
    CampaignWindow,
    DriveCampaign,
    generate_dataset,
)
from repro.campaign.scheduler import CyclePlan
from repro.campaign.tests import TestType
from repro.engine import EngineConfig, run_engine
from repro.engine.planner import PlannerParams
from repro.geo.coords import LatLon, haversine_from_m, haversine_m
from repro.mobility import engine as handover_engine
from repro.policy.profiles import DEFAULT_POLICY_PROFILES, PolicyProfile
from repro.policy.selection import TechnologySelector
from repro.radio.ca import CarrierAggregationModel
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.format import write_dataset
from tests import row_oracle
from tests.scalar_models import ChannelModel

KERNEL_TABLES = ("tput", "rtt", "test", "ho")


def sha256(dataset) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ds.rcol"
        write_dataset(dataset, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def engine_dataset(config: CampaignConfig, window_km: float):
    dataset, _ = run_engine(EngineConfig(
        campaign=config, executor="serial", workers=1,
        planner=PlannerParams(window_km=window_km),
    ))
    return dataset


# -- the identities the kernel's arithmetic relies on --------------------------


def test_scalar_draw_identities():
    """The kernel writes numpy's scalar draws as the arithmetic numpy does:
    ``uniform``, ``normal`` and ``lognormal`` from ``random`` and
    ``standard_normal``, value for value on this host's numpy."""
    args = [(-5.0, 5.0), (0.5, 1.5), (0.85, 1.05), (0.002, 0.02), (0.01, 0.15)]
    a, b = np.random.default_rng(1), np.random.default_rng(1)
    for i in range(4000):
        lo, hi = args[i % len(args)]
        assert a.uniform(lo, hi) == lo + (hi - lo) * b.random()
        loc, scale = (0.0, 3.0)[i % 2], (1.5, 0.01, 7.0)[i % 3]
        assert a.normal(loc, scale) == loc + scale * b.standard_normal()
        mean = float(np.log(11.0 + i % 7))
        assert a.lognormal(mean, 0.8) == math.exp(mean + 0.8 * b.standard_normal())


def test_haversine_from_matches_scalar_haversine():
    rng = np.random.default_rng(2)
    lats, lons = rng.uniform(30.0, 45.0, 3000), rng.uniform(-120.0, -70.0, 3000)
    server = LatLon(37.35, -121.96)
    assert haversine_from_m(server, lats, lons).tolist() == [
        haversine_m(server, LatLon(lat, lon))
        for lat, lon in zip(lats.tolist(), lons.tolist())
    ]


# -- whole datasets ---------------------------------------------------------------


@pytest.mark.parametrize(
    "seed, scale, apps, static, window_km",
    [
        (3, 0.004, True, True, 600.0),
        (11, 0.01, False, True, 300.0),
        (5, 0.006, True, False, 600.0),
        (8, 0.008, False, False, 300.0),
    ],
)
def test_engine_dataset_matches_tick_loop(seed, scale, apps, static, window_km):
    config = CampaignConfig(
        seed=seed, scale=scale, include_apps=apps, include_static=static
    )
    kernel = engine_dataset(config, window_km)
    with row_oracle.row_campaigns():
        rows = engine_dataset(config, window_km)
    assert sha256(kernel) == sha256(rows)
    assert kernel.connected_cells == rows.connected_cells


def test_policy_override_campaign_matches_tick_loop():
    base = DEFAULT_POLICY_PROFILES[Operator.TMOBILE]
    no_demotion = PolicyProfile(
        operator=Operator.TMOBILE,
        ul_demotion={tech: {tech: 1.0} for tech in RadioTechnology},
        idle_5g_upgrade_prob=base.idle_5g_upgrade_prob,
        idle_mmwave_city_prob=0.9,
        dl_hold_back_prob=0.5,
    )
    config = CampaignConfig(seed=21, scale=0.01)
    window = CampaignWindow(index=2, start_m=900_000.0, end_m=1_500_000.0, test_id_base=7_000)
    policies = {Operator.TMOBILE: no_demotion}
    kernel = DriveCampaign(config, policy_profiles=policies, window=window).run()
    rows = row_oracle.RowDriveCampaign(config, policy_profiles=policies, window=window).run()
    assert sha256(kernel) == sha256(rows)


def test_reduced_cycle_matches_tick_loop():
    cycle = CyclePlan(tests=(TestType.UPLINK_THROUGHPUT, TestType.CAV, TestType.RTT))
    config = CampaignConfig(seed=4, scale=0.02, cycle=cycle)
    window = CampaignWindow(index=0, start_m=0.0, end_m=700_000.0)
    kernel = DriveCampaign(config, window=window).run()
    rows = row_oracle.RowDriveCampaign(config, window=window).run()
    assert sha256(kernel) == sha256(rows)


def test_long_run_evicts_every_sticky_cache_and_ping_pongs():
    """A dense campaign with a high ping-pong rate (patched for the oracle
    and the kernel alike): the oracle's selector, CC and shadowing caches
    each take more keys than their bound, so each evicts, and the output
    still matches byte for byte."""
    config = CampaignConfig(seed=9, scale=0.3, video_duration_s=60.0)
    window = CampaignWindow(index=0, start_m=0.0, end_m=520_000.0)
    inserts = {"select": 0, "ccs": 0, "shadow": 0}
    decide = TechnologySelector._decide
    draw_ccs = CarrierAggregationModel.draw_ccs
    evolve = ChannelModel._evolve_shadow

    def counting_decide(self, zone, traffic):
        if self.operator is Operator.VERIZON:
            inserts["select"] += 1
        return decide(self, zone, traffic)

    def counting_draw(self, operator, tech, direction):
        if operator is Operator.VERIZON:
            inserts["ccs"] += 1
        return draw_ccs(self, operator, tech, direction)

    def counting_evolve(self, cell, mark_m, sigma_db):
        if self._operator is Operator.VERIZON and cell.cell_id not in self._shadow:
            inserts["shadow"] += 1
        return evolve(self, cell, mark_m, sigma_db)

    with mock.patch.object(handover_engine, "PINGPONG_RATE_PER_S", 0.4):
        kernel = DriveCampaign(config, window=window).run()
        with mock.patch.object(TechnologySelector, "_decide", counting_decide), \
                mock.patch.object(CarrierAggregationModel, "draw_ccs", counting_draw), \
                mock.patch.object(ChannelModel, "_evolve_shadow", counting_evolve):
            rows = row_oracle.RowDriveCampaign(config, window=window).run()
    assert inserts["select"] > 256
    assert inserts["ccs"] > 512
    assert inserts["shadow"] > 64
    # Ping-pongs: handovers to a phantom neighbour ``seq + 500000``.
    to_cells = rows.table("ho").members("to_cell")
    assert any(cell.sequence > 500_000 for cell in to_cells)
    assert sha256(kernel) == sha256(rows)


def test_campaign_output_is_column_held():
    """The kernel's tables go straight into the dataset as columns, so no
    statistic pays the row-held shred or its memo check."""
    config = CampaignConfig(seed=7, scale=0.004, include_static=False)
    window = CampaignWindow(index=0, start_m=0.0, end_m=400_000.0)
    campaign = DriveCampaign(config, window=window).run()
    merged = generate_dataset(seed=7, scale=0.004, include_apps=False, include_static=False)
    for dataset in (campaign, merged):
        for name in KERNEL_TABLES:
            assert dataset.held_table(name) is not None, name
