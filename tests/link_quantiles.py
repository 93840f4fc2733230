"""Per-(operator, technology) quantiles of the link kernel's output.

The distribution guard (``tests/test_link_distributions.py``) holds the
simulator to quantiles captured from three driving-only campaigns: the
link columns of every driving tick (RSRP, MCS, BLER, downlink capacity),
the RTT samples, the throughput samples by direction, and each operator's
handovers per km of test.  A tolerance comes with each quantile: the
spread of that quantile across the three seeds at capture time, plus 5%
of the pooled 5–95% range (a floor for clipped and discrete columns).

Regenerate ``tests/data/link_quantiles.json`` with::

    PYTHONPATH=src python -m tests.link_quantiles
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict
from unittest import mock

import numpy as np

from repro.campaign import runner
from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES
from repro.store.query import select_columns

DATA_PATH = pathlib.Path(__file__).parent / "data" / "link_quantiles.json"
SEEDS = (61, 62, 63)
SCALE = 0.02
QUANTILES = (5, 25, 50, 75, 95)
LINK_COLUMNS = ("rsrp_dbm", "mcs", "bler", "capacity_dl_mbps")
#: Groups with fewer pooled samples than this are captured but not held.
MIN_SAMPLES = 200


def _samples(seed: int) -> dict[str, np.ndarray]:
    """One campaign's samples, keyed ``OPERATOR/TECH/column`` (``tput_mbps``
    also by direction, ``ho_per_km`` by operator only)."""
    samples: dict[str, list] = defaultdict(list)
    drive = runner.drive_block

    def recording_drive(sessions, *args, **kwargs):
        block = drive(sessions, *args, **kwargs)
        for j, session in enumerate(sessions):
            ranks = block.tech[j].tolist()
            for column in LINK_COLUMNS:
                values = getattr(block, column)[j].tolist()
                for rank, value in zip(ranks, values):
                    key = f"{session.operator.name}/{ALL_TECHNOLOGIES[rank].name}/{column}"
                    samples[key].append(value)
        return block

    config = CampaignConfig(seed=seed, scale=SCALE, include_apps=False, include_static=False)
    with mock.patch.object(runner, "drive_block", recording_drive):
        dataset = DriveCampaign(config).run()

    ops, techs, rtt = select_columns(dataset, "rtt", ("operator", "tech", "rtt_ms"))
    for op, tech, value in zip(ops, techs, rtt.tolist()):
        samples[f"{op}/{tech}/rtt_ms"].append(value)
    ops, techs, dirs, tput = select_columns(
        dataset, "tput", ("operator", "tech", "direction", "tput_mbps")
    )
    for op, tech, direction, value in zip(ops, techs, dirs, tput.tolist()):
        samples[f"{op}/{tech}/tput_mbps_{direction}"].append(value)

    test_id, ops, start, end = select_columns(
        dataset, "test", ("test_id", "operator", "start_mark_m", "end_mark_m")
    )
    handovers = defaultdict(int)
    for tid in select_columns(dataset, "ho", ("test_id",))[0].tolist():
        handovers[tid] += 1
    for tid, op, km in zip(test_id.tolist(), ops, ((end - start) / 1000.0).tolist()):
        if km >= 0.2:  # parked in traffic: a per-km rate is meaningless
            samples[f"{op}/ho_per_km"].append(handovers[tid] / km)
    return {key: np.asarray(values, dtype=float) for key, values in samples.items()}


def capture(seeds=SEEDS) -> dict:
    """Pooled quantiles over ``seeds`` and each quantile's tolerance."""
    per_seed = [_samples(seed) for seed in seeds]
    groups = {}
    for key in sorted(set().union(*per_seed)):
        parts = [s.get(key, np.empty(0)) for s in per_seed]
        pooled = np.concatenate(parts)
        q = np.percentile(pooled, QUANTILES)
        seed_q = np.array([
            np.percentile(part, QUANTILES) if part.size else np.full(len(QUANTILES), np.nan)
            for part in parts
        ])
        spread = np.nanmax(seed_q, axis=0) - np.nanmin(seed_q, axis=0)
        groups[key] = {
            "n": int(pooled.size),
            "quantiles": q.tolist(),
            "spread": spread.tolist(),
            "tolerance": (spread + 0.05 * (q[-1] - q[0])).tolist(),
        }
    return {
        "seeds": list(seeds),
        "scale": SCALE,
        "percentiles": list(QUANTILES),
        "operators": [op.name for op in Operator],
        "groups": groups,
    }


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    DATA_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA_PATH}")
