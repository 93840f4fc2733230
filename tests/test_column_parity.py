"""Differential property test: the column path against the row path.

A dataset holds every table as columns
(:class:`~repro.store.columnar.ColumnTable`).  The sweep replays shards as
columns, merges them by concatenation, writes them and evaluates the paper
statistics on them; records concatenated shard by shard and shredded once
are the oracle for all of it.  Hypothesis draws random datasets — every
table, some empty, NaN/±inf/-0.0 floats, more than 255 distinct cell ids
over shards that each hold fewer — splits them into random shards, and
checks:

* the column merge equals the row merge (by ``repr``, so NaN fields
  compare);
* both merges write the same ``.rcol`` bytes and save the same JSON-lines
  bytes;
* every registered statistic is bit-identical (NaN equal to NaN), and
  equal to its row-object oracle (:mod:`tests.row_oracle`) on the row
  merge;
* rows built lazily from columns equal the records they came from, and
  reading them keeps the table.

A separate test checks that a record attribute is a read-only view.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pathlib
import pickle
import random
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.dataset import (
    RECORD_FAMILIES,
    DriveDataset,
    HandoverRecord,
    PassiveCoverageSegment,
    RttSample,
)
from repro.campaign.persistence import save_dataset
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.columnar import ColumnTable
from repro.store.format import read_dataset, write_dataset
from repro.sweep.stats import evaluate_statistics
from tests import row_oracle
from tests.test_store_properties import _SPECIALS, _random_dataset

#: Distinct cell ids per dictionary column of one shard stay below this, so
#: shards use 1-byte codes while the merged table needs 2.
_SHARD_CELLS = 255


def _dataset(rng: random.Random, empty: frozenset[str]) -> DriveDataset:
    """A random dataset plus what the base generator lacks: passive
    segments with special floats and, unless the handover table is empty,
    more distinct cell ids than one-byte codes can index."""
    ds = _random_dataset(rng, empty_tables=empty)
    ops, techs = list(Operator), list(RadioTechnology)
    passive, handovers = list(ds.passive_coverage), list(ds.handovers)
    if "passive" not in empty:
        # Enough segments per (operator, technology) for a pairwise sum to
        # round differently from the row loop's left fold; specials in only
        # some datasets, so the shares are not all NaN.
        special_rate = rng.choice((0.0, 0.01, 0.2))

        def length_end(start: float) -> float:
            if rng.random() < special_rate:
                return rng.choice(_SPECIALS)
            return start + rng.uniform(0, 1e4)

        for _ in range(rng.randint(100, 300)):
            start = rng.uniform(0, 1e6)
            passive.append(PassiveCoverageSegment(
                operator=rng.choice(ops), start_m=start, end_m=length_end(start),
                tech=rng.choice(techs), timezone=passive[0].timezone,
                region=passive[0].region,
            ))
        rng.shuffle(passive)
    if "ho" not in empty:
        template = handovers[0]
        for seq in range(rng.randint(_SHARD_CELLS + 1, _SHARD_CELLS + 60)):
            handovers.append(HandoverRecord(
                test_id=rng.randint(0, 500), direction=template.direction,
                event=HandoverEvent(
                    operator=rng.choice(ops), time_s=float(seq),
                    mark_m=rng.choice((*_SPECIALS, float(seq))),
                    duration_ms=rng.uniform(1.0, 4000.0),
                    # Unique per record, so the handover table as a whole
                    # has more than 255 distinct source cells ...
                    from_cell=CellId(rng.choice(ops), rng.choice(techs), 5000 + seq),
                    # ... while targets repeat, so shard dictionaries overlap.
                    to_cell=CellId(rng.choice(ops), rng.choice(techs), rng.randint(0, 30)),
                    from_tech=rng.choice(techs), to_tech=rng.choice(techs),
                ),
            ))
    ds.passive_coverage, ds.handovers = passive, handovers
    return ds


def _cuts(rng: random.Random, n: int, k: int, even: bool) -> list[int]:
    """``k`` contiguous chunk boundaries over ``n`` rows: anywhere, or
    (``even``) near equal shares, so no chunk reaches 255 rows."""
    if even:
        inner = [i * n // k + rng.randint(-10, 10) for i in range(1, k)]
    else:
        inner = [rng.randint(0, n) for _ in range(k - 1)]
    return [0, *sorted(min(max(c, 0), n) for c in inner), n]


def _shards(rng: random.Random, ds: DriveDataset, k: int) -> list[DriveDataset]:
    """``ds`` split into ``k`` shard datasets, each table independently."""
    shards = [
        DriveDataset(seed=ds.seed, scale=ds.scale, route_length_km=ds.route_length_km)
        for _ in range(k)
    ]
    for family in RECORD_FAMILIES:
        rows = getattr(ds, family.attr)
        cuts = _cuts(rng, len(rows), k, even=family.table == "ho")
        for shard, a, b in zip(shards, cuts, cuts[1:]):
            setattr(shard, family.attr, rows[a:b])
    return shards


def _row_merge(ds: DriveDataset, shards: list[DriveDataset]) -> DriveDataset:
    merged = DriveDataset(
        seed=ds.seed, scale=ds.scale, route_length_km=ds.route_length_km,
        passive_handover_counts=dict(ds.passive_handover_counts),
        connected_cells=dict(ds.connected_cells),
    )
    for family in RECORD_FAMILIES:
        setattr(merged, family.attr, [
            record for shard in shards for record in getattr(shard, family.attr)
        ])
    return merged


def _column_merge(ds: DriveDataset, shards: list[DriveDataset]) -> DriveDataset:
    merged = DriveDataset(
        seed=ds.seed, scale=ds.scale, route_length_km=ds.route_length_km,
        passive_handover_counts=dict(ds.passive_handover_counts),
        connected_cells=dict(ds.connected_cells),
    )
    for family in RECORD_FAMILIES:
        merged.set_table(
            ColumnTable.concat([s.table(family.table) for s in shards])
        )
    return merged


def _bits(value: float) -> bytes:
    return b"nan" if math.isnan(value) else struct.pack("<d", value)


class Files:
    """Write datasets into one scratch directory and read their bytes."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.n = 0

    def path(self, suffix: str) -> pathlib.Path:
        self.n += 1
        return self.root / f"ds-{self.n}{suffix}"

    def rcol(self, ds: DriveDataset) -> bytes:
        path = self.path(".rcol")
        write_dataset(ds, path)
        return path.read_bytes()

    def jsonl(self, ds: DriveDataset) -> bytes:
        path = self.path(".jsonl.gz")
        save_dataset(ds, path)
        return path.read_bytes()

    def replay(self, ds: DriveDataset) -> DriveDataset:
        """``ds`` written and read back, as the cache serves it."""
        path = self.path(".rcol")
        write_dataset(ds, path)
        return read_dataset(path)


_TABLES = sorted(f.table for f in RECORD_FAMILIES)

_EXTRA_RTT = RttSample(
    test_id=9, operator=Operator.TMOBILE, time_s=-0.0, mark_m=math.inf,
    speed_mph=math.nan, region=RegionType.CITY, timezone=Timezone.EASTERN,
    tech=RadioTechnology.NR_MMWAVE, rtt_ms=12.5, server_kind=ServerKind.EDGE,
    static=True,
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    empty=st.frozensets(st.sampled_from(_TABLES), max_size=4),
    n_shards=st.integers(3, 5),
)
def test_column_path_matches_row_path(seed, empty, n_shards):
    rng = random.Random(seed)
    original = _dataset(rng, frozenset(empty))
    with tempfile.TemporaryDirectory() as tmp:
        files = Files(pathlib.Path(tmp))
        shard_rows = _shards(rng, original, n_shards)
        # The cache replays some shards; the rest were just computed.
        shards = [
            files.replay(s) if rng.random() < 0.7 else s for s in shard_rows
        ]
        row_merged = _row_merge(original, shard_rows)

        def column_merged() -> DriveDataset:
            return _column_merge(original, shards)

        assert all(
            column_merged().table(f.table).count == row_merged.count(f.table)
            for f in RECORD_FAMILIES
        )
        if "ho" not in empty:
            assert len({h.event.from_cell for h in row_merged.handovers}) > 255
            assert all(
                len(set(s.table("ho").values["from_cell"])) < 255
                for s in shards
            )

        # Merge: columns equal rows, and write/save the same bytes.
        assert repr(column_merged()) == repr(row_merged)
        assert files.rcol(column_merged()) == files.rcol(row_merged)
        assert files.jsonl(column_merged()) == files.jsonl(row_merged)

        # Statistics: bit-identical, NaN equal to NaN, and as the row
        # oracle computes them on the row merge.
        got = evaluate_statistics(column_merged())
        want = evaluate_statistics(row_merged)
        oracle = row_oracle.statistics(row_merged)
        assert list(got) == list(want) == list(oracle)
        for name in want:
            assert _bits(got[name]) == _bits(want[name]) == _bits(oracle[name]), name

        # Lazy rows equal the records they came from; count needs no rows.
        lazy = files.replay(original)
        for family in RECORD_FAMILIES:
            assert lazy.count(family.table) == len(getattr(original, family.attr))
        assert repr(pickle.loads(pickle.dumps(lazy))) == repr(original)
        for family in RECORD_FAMILIES:
            table = lazy.table(family.table)
            assert repr(getattr(lazy, family.attr)) == repr(
                getattr(original, family.attr)
            )
            assert lazy.table(family.table) is table


def test_record_attributes_are_read_only_views(tmp_path):
    """A record attribute is a tuple of the held table's records, built
    once per table; it cannot be changed in place, and assigning records
    replaces the table.  Omitted tables are one shared empty table."""
    files = Files(tmp_path)
    ds = _random_dataset(random.Random(7))
    table = ds.table("rtt")
    rtts = ds.rtt_samples
    assert type(rtts) is tuple and ds.rtt_samples is rtts
    with pytest.raises(AttributeError):
        ds.tests.append(ds.tests[0])
    with pytest.raises(TypeError):
        ds.rtt_samples[0] = _EXTRA_RTT
    assert ds.table("rtt") is table

    reference = _random_dataset(random.Random(7))
    ds.rtt_samples = [*rtts, _EXTRA_RTT]
    assert ds.table("rtt") is not table and ds.count("rtt") == len(rtts) + 1
    assert ds.rtt_samples[-1] is not _EXTRA_RTT
    assert repr(ds.rtt_samples[-1]) == repr(_EXTRA_RTT)
    reference.rtt_samples = [*reference.rtt_samples, _EXTRA_RTT]
    assert files.rcol(ds) == files.rcol(reference)
    got = evaluate_statistics(ds)
    want = row_oracle.statistics(reference)
    for name in want:
        assert _bits(got[name]) == _bits(want[name]), name
    # -0.0 == 0.0, but the two write different bytes.
    assert _EXTRA_RTT.time_s == 0.0 and math.copysign(1.0, _EXTRA_RTT.time_s) < 0
    ds.rtt_samples = [*rtts, dataclasses.replace(_EXTRA_RTT, time_s=0.0)]
    assert _bits(ds.table("rtt").arrays["time_s"][-1]) == _bits(0.0)

    clone = pickle.loads(pickle.dumps(ds))
    assert repr(clone) == repr(ds)
    assert files.rcol(clone) == files.rcol(ds)
    # A pickle or a copy carries the tables, not the records read from them.
    assert b"RttSample" not in pickle.dumps(ds)
    assert b"RttSample" not in pickle.dumps(copy.copy(ds))
    # A table held through set_table replaces the records read before.
    ds.set_table(table)
    assert repr(ds.rtt_samples) == repr(rtts)

    a = DriveDataset(seed=1, scale=1.0, route_length_km=1.0)
    b = DriveDataset(seed=2, scale=1.0, route_length_km=1.0, video_runs=[])
    for family in RECORD_FAMILIES:
        assert a.table(family.table) is b.table(family.table)
        assert a.table(family.table).count == 0 and getattr(a, family.attr) == ()
