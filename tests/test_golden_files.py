"""Golden files pin both dataset formats byte for byte.

``tests/data/golden.jsonl.gz`` and ``tests/data/golden.rcol`` hold
:func:`golden_dataset` saved by the hand-written per-field codecs the
record-layout derivation replaced.  Loading either must rebuild exactly
that dataset, and saving it again must reproduce the committed bytes, so
any change to a field's key, order, encoding or type shows up here first.

Regenerate (only on a deliberate format change, with a version bump)::

    PYTHONPATH=src python -m tests.test_golden_files
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import pathlib

import pytest

from repro.campaign.dataset import (
    DriveDataset,
    GamingRunResult,
    HandoverRecord,
    OffloadRunResult,
    PassiveCoverageSegment,
    RttSample,
    TestRecord,
    ThroughputSample,
    VideoRunResult,
)
from repro.campaign.persistence import load_dataset, save_dataset
from repro.campaign.tests import TestType
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.columnar import TableSchema

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = {"jsonl": DATA / "golden.jsonl.gz", "rcol": DATA / "golden.rcol"}

NAN, INF = math.nan, math.inf


def golden_dataset() -> DriveDataset:
    """A small hand-made dataset touching every stored value shape.

    Every table has rows; every member of every enum appears; floats
    include NaN and ±inf; handovers carry cell ids of every operator; the
    per-operator header dicts are in non-alphabetical order.
    """
    ops = itertools.cycle(Operator)
    techs = itertools.cycle(RadioTechnology)
    regions = itertools.cycle(RegionType)
    zones = itertools.cycle(Timezone)
    kinds = itertools.cycle(ServerKind)
    test_types = itertools.cycle(TestType)
    floats = itertools.cycle([0.5, -3.25, NAN, INF, -INF, 1e-300, 123456.789])

    ds = DriveDataset(
        seed=20230901,
        scale=0.004,
        route_length_km=5731.25,
        passive_handover_counts={
            Operator.TMOBILE: 17, Operator.VERIZON: 3, Operator.ATT: 0,
        },
        connected_cells={
            Operator.VERIZON: 41, Operator.ATT: 9, Operator.TMOBILE: 28,
        },
    )
    for i in range(7):
        ds.throughput_samples.append(ThroughputSample(
            test_id=1001 + i // 3, operator=next(ops),
            direction=("downlink", "uplink")[i % 2], time_s=60.0 + 0.5 * i,
            mark_m=next(floats), speed_mph=65.5, region=next(regions),
            timezone=next(zones), tech=next(techs), rsrp_dbm=next(floats),
            mcs=i * 4, bler=0.1, n_ccs=1 + i % 4, tput_mbps=next(floats),
            server_kind=next(kinds), ho_count=i % 3, static=i == 6,
        ))
    for i in range(5):
        ds.rtt_samples.append(RttSample(
            test_id=2001, operator=next(ops), time_s=90.0 + 0.2 * i,
            mark_m=1000.0 * i, speed_mph=next(floats), region=next(regions),
            timezone=next(zones), tech=next(techs), rtt_ms=next(floats),
            server_kind=next(kinds), static=i % 2 == 0,
        ))
    for i in range(len(TestType)):
        ds.tests.append(TestRecord(
            test_id=1001 + i, test_type=next(test_types), operator=next(ops),
            start_time_s=30.0 * i, end_time_s=30.0 * i + next(floats),
            start_mark_m=-0.0, end_mark_m=2500.75 * i,
            server_kind=next(kinds), static=i == 3,
        ))
    for i in range(6):
        op = next(ops)
        ds.handovers.append(HandoverRecord(
            test_id=1001 + i, direction=("uplink", "downlink")[i % 2],
            event=HandoverEvent(
                operator=op, time_s=61.5 + i, mark_m=next(floats),
                duration_ms=20.0 + 7.5 * i,
                from_cell=CellId(op, next(techs), 7 * i),
                to_cell=CellId(op, next(techs), 123456 + i),
                from_tech=next(techs), to_tech=next(techs),
            ),
        ))
    for i in range(5):
        ds.passive_coverage.append(PassiveCoverageSegment(
            operator=next(ops), start_m=400.0 * i, end_m=400.0 * i + 399.5,
            tech=next(techs), timezone=next(zones), region=next(regions),
        ))
    for i, app in enumerate((TestType.AR, TestType.CAV, TestType.AR)):
        ds.offload_runs.append(OffloadRunResult(
            app=app, test_id=3001 + i, operator=next(ops),
            server_kind=next(kinds), compression=i != 1,
            mean_e2e_ms=next(floats), median_e2e_ms=88.0, offload_fps=14.5,
            map_score=NAN if app is TestType.CAV else 0.61, ho_count=i,
            frac_hs5g=0.25 * i, static=False, uplink_megabits=next(floats),
        ))
    for i in range(2):
        ds.video_runs.append(VideoRunResult(
            test_id=4001 + i, operator=next(ops), server_kind=next(kinds),
            qoe=next(floats), avg_bitrate_mbps=42.0, rebuffer_ratio=0.0,
            ho_count=2 * i, frac_hs5g=1.0, static=i == 1,
            downlink_megabits=next(floats),
        ))
    for i in range(2):
        ds.gaming_runs.append(GamingRunResult(
            test_id=5001 + i, operator=next(ops), server_kind=next(kinds),
            avg_bitrate_mbps=next(floats), median_latency_ms=51.0,
            p95_latency_ms=INF, frame_drop_rate=0.02, ho_count=i,
            frac_hs5g=0.0, static=False, downlink_megabits=next(floats),
        ))
    return ds


def _assert_same(got: DriveDataset, want: DriveDataset) -> None:
    """Exact equality: ``repr`` tells NaN, ``-0.0``, ints and bools apart
    where ``==`` cannot, and the header dicts must keep their order."""
    for f in dataclasses.fields(DriveDataset):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, dict):
            a, b = list(a.items()), list(b.items())
        assert repr(a) == repr(b), f.name


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
class TestGoldenFiles:
    def test_loads_equal_to_dataset(self, fmt):
        _assert_same(load_dataset(GOLDEN[fmt]), golden_dataset())

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_resave_reproduces_bytes(self, fmt, source, tmp_path):
        ds = golden_dataset() if source == "built" else load_dataset(GOLDEN[fmt])
        out = tmp_path / GOLDEN[fmt].name
        save_dataset(ds, out)
        assert out.read_bytes() == GOLDEN[fmt].read_bytes()


def test_golden_dataset_covers_every_shape():
    ds = golden_dataset()
    for f in dataclasses.fields(DriveDataset):
        assert getattr(ds, f.name), f.name
    seen = {
        v for records in (
            ds.throughput_samples, ds.rtt_samples, ds.tests,
            ds.passive_coverage,
        ) for r in records for v in dataclasses.astuple(r)
    }
    for enum_cls in (Operator, RadioTechnology, RegionType, Timezone,
                     ServerKind, TestType):
        assert set(enum_cls) <= seen, enum_cls.__name__
    assert list(ds.passive_handover_counts) != sorted(
        ds.passive_handover_counts, key=lambda op: op.name
    )


@dataclasses.dataclass(frozen=True)
class _Unmapped:
    test_id: int
    samples: list[float]


@dataclasses.dataclass(frozen=True)
class _Nested:
    test_id: int
    inner: _Unmapped


class TestSchemaDerivation:
    def test_unmapped_field_type_rejected(self):
        with pytest.raises(TypeError, match="samples"):
            TableSchema.derive("bad", _Unmapped)

    def test_unmapped_nested_field_type_rejected(self):
        with pytest.raises(TypeError, match="samples"):
            TableSchema.derive("bad", _Nested)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path in GOLDEN.values():
        save_dataset(golden_dataset(), path)
        print(f"wrote {path}")
