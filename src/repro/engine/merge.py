"""Deterministic merge: stitch shard outputs back into one dataset.

The merger concatenates every record family in **canonical shard order**
(windows by ascending index) regardless of the order shards completed in —
so the merged dataset is a pure function of the shard results.  It works
on columns: each family's shard tables
(:class:`~repro.store.columnar.ColumnTable`, as the campaign wrote them or
as the shard cache replayed them) are concatenated into one table, and
records are only built if a caller reads a record attribute of the merged
dataset.  Because each window owns a
disjoint, deterministic test-id namespace (``(index+1) * TEST_ID_STRIDE``),
no renumbering pass is needed and referential integrity (samples → tests,
handovers → tests) is preserved by construction.

Boundary semantics: each window starts with freshly-attached UE sessions, so
no handover event ever spans a shard boundary — the same reconnect the
campaign performs after every duty-cycle fast-forward.  Every window drives
through the same whole-route deployment, and its passive loggers walk it
clipped to the window span, so the merged passive segments tile the route
once; the per-window header counters (``passive_handover_counts``,
``connected_cells``) are summed.  The merger
verifies the invariants this relies on (windows present exactly once,
id namespaces disjoint) and raises :class:`EngineError` on violation rather
than emitting a silently inconsistent dataset.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.dataset import RECORD_FAMILIES, DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.engine.planner import ShardPlan, TEST_ID_STRIDE
from repro.engine.worker import ShardResult
from repro.errors import EngineError
from repro.radio.operators import Operator
from repro.store.columnar import ColumnTable

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
        ``plan``.
    """
    missing = [w.index for w in plan.windows if w.index not in results]
    if missing:
        raise EngineError(
            f"cannot merge: shards {missing} missing", shard_index=missing[0]
        )
    ordered = [results[w.index].dataset for w in plan.windows]

    tables = {
        family.table: [dataset.table(family.table) for dataset in ordered]
        for family in RECORD_FAMILIES
    }
    for window, table in zip(plan.windows, tables["test"]):
        base = (window.index + 1) * TEST_ID_STRIDE
        ids = table.arrays["test_id"]
        outside = np.flatnonzero((ids <= base) | (ids > base + TEST_ID_STRIDE))
        if outside.size:
            raise EngineError(
                f"shard {window.index} produced test id {int(ids[outside[0]])} "
                f"outside its namespace ({base}, {base + TEST_ID_STRIDE}]",
                shard_index=window.index,
            )

    merged = DriveDataset(
        seed=config.seed,
        scale=config.scale,
        route_length_km=route_length_km,
    )
    for shard_tables in tables.values():
        merged.set_table(ColumnTable.concat(shard_tables))

    # Macro handovers add up exactly: a window counts the macro zones
    # starting inside its span, so any window plan gives the whole route's
    # count.  Cell ids are global (one world per seed and operator), but the
    # shards carry counts, not id sets, so the sum counts a cell once per
    # window that connected to it: the macro cells of a zone straddling a
    # boundary, and active cells a window's last cycle reaches past its end
    # that the next window connects to as well.  Only those boundary cells
    # are counted twice; an exact union would need the id sets in the
    # shards, which they do not carry.
    merged.passive_handover_counts = {
        op: sum(ds.passive_handover_counts.get(op, 0) for ds in ordered)
        for op in Operator
    }
    merged.connected_cells = {
        op: sum(ds.connected_cells.get(op, 0) for ds in ordered)
        for op in Operator
    }
    return merged
