"""Deterministic merge: stitch shard outputs back into one dataset.

The merger concatenates every record family in **canonical shard order**
(passive shard first, then windows by ascending index) regardless of the
order shards completed in — so the merged dataset is a pure function of the
shard results.  It works on columns: each family's shard tables
(:class:`~repro.store.columnar.ColumnTable`, replayed from the shard cache
as columns or shredded from a computed shard's records) are concatenated
into one column-held table, and records are only built if a caller reads
a record list of the merged dataset.  Because each window owns a
disjoint, deterministic test-id namespace (``(index+1) * TEST_ID_STRIDE``),
no renumbering pass is needed and referential integrity (samples → tests,
handovers → tests) is preserved by construction.

Boundary semantics: each window starts with freshly-attached UE sessions, so
no handover event ever spans a shard boundary — the same reconnect the
single-process campaign performs after every duty-cycle fast-forward.  The
merger verifies the invariants this relies on (windows present exactly once,
id namespaces disjoint) and raises :class:`EngineError` on violation rather
than emitting a silently inconsistent dataset.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.dataset import RECORD_FAMILIES, DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.engine.planner import PASSIVE_SHARD_INDEX, ShardPlan, TEST_ID_STRIDE
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

    # Row-held (freshly computed) shards are shredded once, here.
    tables = {
        family.table: [result.dataset.table(family.table) for result in ordered]
        for family in RECORD_FAMILIES
    }
    for window, table in zip(plan.windows, tables["test"][1:]):
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
