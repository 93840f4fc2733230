"""Deterministic merge: stitch shard outputs back into one dataset.

The merger concatenates every record family in **canonical shard order**
(passive shard first, then windows by ascending index) regardless of the
order shards completed in — so the merged dataset is a pure function of the
shard results.  Because each window owns a disjoint, deterministic test-id
namespace (``(index+1) * TEST_ID_STRIDE``), no renumbering pass is needed
and referential integrity (samples → tests, handovers → tests) is preserved
by construction.

Boundary semantics: each window starts with freshly-attached UE sessions, so
no handover event ever spans a shard boundary — the same reconnect the
single-process campaign performs after every duty-cycle fast-forward.  The
merger verifies the invariants this relies on (windows present exactly once,
id namespaces disjoint) and raises :class:`EngineError` on violation rather
than emitting a silently inconsistent dataset.
"""

from __future__ import annotations

from repro.campaign.dataset import RECORD_FAMILIES, DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.engine.planner import PASSIVE_SHARD_INDEX, ShardPlan, TEST_ID_STRIDE
from repro.engine.worker import ShardResult
from repro.errors import EngineError
from repro.radio.operators import Operator

__all__ = ["merge_shard_results"]


def merge_shard_results(
    config: CampaignConfig,
    plan: ShardPlan,
    results: dict[int, ShardResult],
    route_length_km: float,
) -> DriveDataset:
    """Combine shard results into one :class:`DriveDataset`.

    Parameters
    ----------
    results:
        Mapping of shard index → result; must contain every window of
        ``plan`` plus the passive shard.
    """
    missing = [w.index for w in plan.windows if w.index not in results]
    if PASSIVE_SHARD_INDEX not in results:
        missing.append(PASSIVE_SHARD_INDEX)
    if missing:
        raise EngineError(
            f"cannot merge: shards {sorted(missing)} missing", shard_index=missing[0]
        )

    ordered = [results[PASSIVE_SHARD_INDEX]]
    ordered += [results[w.index] for w in plan.windows]

    for window, result in zip(plan.windows, ordered[1:]):
        base = (window.index + 1) * TEST_ID_STRIDE
        for test in result.dataset.tests:
            if not base < test.test_id <= base + TEST_ID_STRIDE:
                raise EngineError(
                    f"shard {window.index} produced test id {test.test_id} "
                    f"outside its namespace ({base}, {base + TEST_ID_STRIDE}]",
                    shard_index=window.index,
                )

    merged = DriveDataset(
        seed=config.seed,
        scale=config.scale,
        route_length_km=route_length_km,
    )
    for result in ordered:
        for family in RECORD_FAMILIES:
            getattr(merged, family.attr).extend(getattr(result.dataset, family.attr))

    passive = results[PASSIVE_SHARD_INDEX]
    merged.passive_handover_counts = dict(passive.dataset.passive_handover_counts)
    # Trip-wide distinct-cell count: the macro anchor grid seen by the
    # passive loggers plus the active-layer cells summed across windows.
    # Window *spans* are disjoint, but each window's deployment extends
    # ``overrun_m`` past its end and the final duty cycle may run into that
    # overrun, so adjacent windows can both connect to cells covering the
    # same boundary stretch — the sum may count such cells once per window.
    # The over-count is deterministic (a pure function of the shard plan,
    # identical for serial and parallel execution) and bounded by the number
    # of window boundaries, but the count is not guaranteed to match a true
    # single-pass drive of the whole route.
    merged.connected_cells = {
        op: passive.macro_cells.get(op, 0)
        + sum(r.active_cells.get(op, 0) for r in ordered[1:])
        for op in Operator
    }
    return merged
