"""Property-based round-trip fuzzing of the columnar store.

Instead of hand-picked examples, these tests drive the encode → write →
mmap → decode pipeline with seeded-random column mixes — dictionary, RLE,
and plain codecs; NaN/±inf floats; extreme int64 values; empty partitions —
and assert two properties everywhere:

* **value exactness** — every decoded value equals the one encoded, with
  NaN-aware float comparison (the format's contract is bit-stable floats);
* **tight footer stats** — the pushdown stats in the footer equal the true
  null count and finite min/max of the data, never merely bounding them.

Randomness comes from seeded :mod:`random` generators, so every case is
reproducible from the printed seed; the differential test against the
JSON-lines round trip lets hypothesis draw those seeds (and which tables to
leave empty), so a failing case shrinks to a minimal seed.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.campaign.tests import TestType
from repro.errors import StoreError
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.columnar import (
    TABLE_ATTRS,
    TABLE_SCHEMAS,
    ColumnSpec,
    decode_column,
    decode_dict_column,
    encode_column,
)
from repro.campaign.persistence import load_dataset, save_dataset
from repro.store.catalog import Catalog
from repro.store.format import DatasetReader, read_dataset, write_dataset

N_CASES = 25  # seeded cases per property; each case is a fresh random column

_SPECIALS = (
    float("nan"),
    float("inf"),
    float("-inf"),
    0.0,
    -0.0,
    5e-324,          # smallest subnormal
    1.7976931348623157e308,
)


def _float_eq(a: float, b: float) -> bool:
    """Value-exact float equality where NaN == NaN and -0.0 != 0.0 is fine."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def _seq_eq(decoded, original) -> bool:
    if len(decoded) != len(original):
        return False
    return all(
        _float_eq(d, o) if isinstance(o, float) else d == o
        for d, o in zip(decoded, original)
    )


def _roundtrip(spec: ColumnSpec, values: list):
    """encode → footer entry → decode, as the file reader would."""
    enc = encode_column(spec, values)
    entry = enc.footer_entry(offset=0)
    assert entry["count"] == len(values)
    assert entry["nbytes"] == len(enc.payload)
    return enc, entry, decode_column(entry, enc.payload)


def _random_floats(rng: random.Random, n: int) -> list[float]:
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            out.append(rng.choice(_SPECIALS))
        elif roll < 0.5:
            out.append(rng.uniform(-1e6, 1e6))
        else:
            # Raw 53-bit-mantissa noise: exercises full double precision.
            out.append(rng.random() * 10 ** rng.randint(-300, 300))
    return out


class TestFloatColumns:
    def test_roundtrip_with_nan_and_inf(self):
        spec = ColumnSpec("x", "f8")
        for seed in range(N_CASES):
            rng = random.Random(seed)
            values = _random_floats(rng, rng.randint(1, 200))
            enc, _, decoded = _roundtrip(spec, values)
            assert enc.codec == "plain"
            assert _seq_eq(decoded.tolist(), values), f"seed {seed}"

    def test_stats_are_tight(self):
        spec = ColumnSpec("x", "f8")
        for seed in range(N_CASES):
            rng = random.Random(1000 + seed)
            values = _random_floats(rng, rng.randint(1, 200))
            enc = encode_column(spec, values)
            finite = [v for v in values if math.isfinite(v)]
            assert enc.stats.nulls == sum(math.isnan(v) for v in values)
            if finite:
                assert enc.stats.min == min(finite)
                assert enc.stats.max == max(finite)
            else:
                assert enc.stats.min is None and enc.stats.max is None

    def test_all_nan_column_has_null_stats(self):
        enc = encode_column(ColumnSpec("x", "f8"), [float("nan")] * 7)
        assert enc.stats.nulls == 7
        assert enc.stats.min is None and enc.stats.max is None

    def test_inf_only_column_has_no_finite_bounds(self):
        enc = encode_column(
            ColumnSpec("x", "f8"), [float("inf"), float("-inf")]
        )
        assert enc.stats.nulls == 0
        assert enc.stats.min is None and enc.stats.max is None


class TestIntColumns:
    def test_high_entropy_roundtrip_stays_plain(self):
        spec = ColumnSpec("x", "i8")
        lo, hi = -(2**63), 2**63 - 1
        for seed in range(N_CASES):
            rng = random.Random(seed)
            values = [rng.randint(lo, hi) for _ in range(rng.randint(2, 150))]
            enc, _, decoded = _roundtrip(spec, values)
            assert enc.codec == "plain"  # random 64-bit ints never RLE-win
            assert decoded.tolist() == values, f"seed {seed}"
            assert enc.stats.min == min(values)
            assert enc.stats.max == max(values)

    def test_runny_columns_roundtrip_via_rle(self):
        spec = ColumnSpec("x", "i8")
        for seed in range(N_CASES):
            rng = random.Random(seed)
            values: list[int] = []
            for _ in range(rng.randint(1, 6)):
                values.extend([rng.randint(-5, 5)] * rng.randint(20, 120))
            enc, _, decoded = _roundtrip(spec, values)
            assert enc.codec == "rle", f"seed {seed}"
            assert decoded.tolist() == values, f"seed {seed}"

    def test_codec_choice_is_size_optimal(self):
        """The encoder must pick whichever codec is strictly smaller."""
        spec = ColumnSpec("x", "i8")
        for seed in range(N_CASES):
            rng = random.Random(seed)
            # Mixed regime: runs of random length 1..40 — straddles the
            # RLE-vs-plain break-even point both ways.
            values: list[int] = []
            while len(values) < 100:
                values.extend([rng.randint(0, 3)] * rng.randint(1, 40))
            enc = encode_column(spec, values)
            runs = 1 + sum(
                1 for a, b in zip(values, values[1:]) if a != b
            )
            rle_bytes = runs * (4 + 8)
            plain_bytes = len(values) * 8
            expected = "rle" if rle_bytes < plain_bytes else "plain"
            assert enc.codec == expected, f"seed {seed}"
            assert len(enc.payload) == min(rle_bytes, plain_bytes)

    def test_large_int_stats_stay_exact(self):
        # A float cast would round these; the footer must not.
        values = [2**62 + 1, 2**62 + 3]
        enc = encode_column(ColumnSpec("x", "i8"), values)
        assert enc.stats.min == values[0]
        assert enc.stats.max == values[1]


class TestBoolColumns:
    def test_random_bools_roundtrip(self):
        spec = ColumnSpec("x", "bool")
        for seed in range(N_CASES):
            rng = random.Random(seed)
            values = [rng.random() < 0.5 for _ in range(rng.randint(1, 300))]
            _, _, decoded = _roundtrip(spec, values)
            assert [bool(v) for v in decoded.tolist()] == values, f"seed {seed}"

    def test_constant_column_compresses_to_one_run(self):
        enc, _, decoded = _roundtrip(ColumnSpec("x", "bool"), [True] * 500)
        assert enc.codec == "rle"
        assert len(enc.payload) == 4 + 1  # one (run, value) pair
        assert decoded.tolist() == [1] * 500


class TestDictColumns:
    def test_roundtrip_and_first_appearance_order(self):
        spec = ColumnSpec("x", "dict")
        for seed in range(N_CASES):
            rng = random.Random(seed)
            alphabet = [f"v{i}" for i in range(rng.randint(1, 30))]
            values = [rng.choice(alphabet) for _ in range(rng.randint(1, 200))]
            enc, entry, _ = _roundtrip(spec, values)
            assert decode_dict_column(entry, enc.payload) == values, f"seed {seed}"
            seen: list[str] = []
            for v in values:
                if v not in seen:
                    seen.append(v)
            assert list(enc.values) == seen

    def test_code_width_tracks_cardinality(self):
        spec = ColumnSpec("x", "dict")
        small = encode_column(spec, [f"v{i}" for i in range(255)])
        assert small.width == 1
        wide_values = [f"v{i}" for i in range(256)]
        wide = encode_column(spec, wide_values)
        assert wide.width == 2
        entry = wide.footer_entry(0)
        assert decode_dict_column(entry, wide.payload) == wide_values

    def test_enum_members_encode_by_name(self):
        values = [Operator.ATT, Operator.VERIZON, Operator.ATT]
        enc, entry, _ = _roundtrip(ColumnSpec("operator", "dict"), values)
        assert list(enc.values) == ["ATT", "VERIZON"]
        assert decode_dict_column(entry, enc.payload) == [
            "ATT", "VERIZON", "ATT",
        ]


    def test_member_and_its_name_share_one_code(self):
        """Keying the dictionary on value objects must still give one code
        per string form, as keying on the strings did."""
        values = [Operator.ATT, "ATT", "VERIZON", Operator.VERIZON]
        enc, entry, codes = _roundtrip(ColumnSpec("operator", "dict"), values)
        assert list(enc.values) == ["ATT", "VERIZON"]
        assert codes.tolist() == [0, 0, 1, 1]
        assert decode_dict_column(entry, enc.payload) == [
            "ATT", "ATT", "VERIZON", "VERIZON",
        ]


class TestEmptyColumns:
    @pytest.mark.parametrize("kind", ["f8", "i8", "bool", "dict"])
    def test_empty_column_roundtrip(self, kind):
        enc, entry, decoded = _roundtrip(ColumnSpec("x", kind), [])
        assert enc.count == 0
        assert decoded.size == 0
        assert enc.stats.nulls == 0
        assert enc.stats.min is None and enc.stats.max is None
        if kind == "dict":
            assert decode_dict_column(entry, enc.payload) == []


class TestTruncationDetection:
    """A corrupted payload must fail loudly, never decode to garbage."""

    def test_truncated_plain_payload_raises(self):
        enc = encode_column(ColumnSpec("x", "f8"), [1.0, 2.0, 3.0])
        entry = enc.footer_entry(0)
        with pytest.raises(StoreError):
            decode_column(entry, enc.payload[:-3])

    def test_truncated_rle_payload_raises(self):
        enc = encode_column(ColumnSpec("x", "i8"), [7] * 100)
        assert enc.codec == "rle"
        entry = enc.footer_entry(0)
        with pytest.raises(StoreError):
            decode_column(entry, enc.payload[:-1])

    def test_rle_count_mismatch_raises(self):
        enc = encode_column(ColumnSpec("x", "i8"), [7] * 100)
        entry = enc.footer_entry(0)
        entry["count"] = 99
        with pytest.raises(StoreError):
            decode_column(entry, enc.payload)


# -- file-level round trips ----------------------------------------------------


def _random_dataset(
    rng: random.Random, empty_tables: frozenset[str] = frozenset()
) -> DriveDataset:
    """A dataset with randomized values, including NaN/±inf floats."""

    def f(lo: float = -1e4, hi: float = 1e4) -> float:
        roll = rng.random()
        if roll < 0.1:
            return rng.choice(_SPECIALS)
        return rng.uniform(lo, hi)

    def pick(options):
        return rng.choice(list(options))

    def n_rows(table: str) -> int:
        return 0 if table in empty_tables else rng.randint(1, 25)

    def cell() -> CellId:
        return CellId(pick(Operator), pick(RadioTechnology), rng.randint(0, 999))

    ds = DriveDataset(
        seed=rng.randint(0, 10_000),
        scale=rng.random(),
        route_length_km=rng.uniform(1.0, 5000.0),
        passive_handover_counts={op: rng.randint(0, 500) for op in Operator},
        connected_cells={op: rng.randint(0, 900) for op in Operator},
    )
    rows: dict[str, list] = {attr: [] for attr in TABLE_ATTRS.values()}
    for _ in range(n_rows("tput")):
        rows["throughput_samples"].append(ThroughputSample(
            test_id=rng.randint(0, 500), operator=pick(Operator),
            direction=pick(("uplink", "downlink")), time_s=f(), mark_m=f(),
            speed_mph=f(0, 90), region=pick(RegionType),
            timezone=pick(Timezone), tech=pick(RadioTechnology),
            rsrp_dbm=f(-140, -40), mcs=rng.randint(0, 28),
            bler=f(0, 1), n_ccs=rng.randint(1, 8), tput_mbps=f(0, 2000),
            server_kind=pick(ServerKind), ho_count=rng.randint(0, 9),
            static=rng.random() < 0.5,
        ))
    for _ in range(n_rows("rtt")):
        rows["rtt_samples"].append(RttSample(
            test_id=rng.randint(0, 500), operator=pick(Operator),
            time_s=f(), mark_m=f(), speed_mph=f(0, 90),
            region=pick(RegionType), timezone=pick(Timezone),
            tech=pick(RadioTechnology), rtt_ms=f(1, 500),
            server_kind=pick(ServerKind), static=rng.random() < 0.5,
        ))
    for _ in range(n_rows("test")):
        rows["tests"].append(TestRecord(
            test_id=rng.randint(0, 500), test_type=pick(TestType),
            operator=pick(Operator), start_time_s=f(), end_time_s=f(),
            start_mark_m=f(), end_mark_m=f(),
            server_kind=pick(ServerKind), static=rng.random() < 0.5,
        ))
    for _ in range(n_rows("ho")):
        rows["handovers"].append(HandoverRecord(
            test_id=rng.randint(0, 500), direction=pick(("uplink", "downlink")),
            event=HandoverEvent(
                operator=pick(Operator), time_s=f(), mark_m=f(),
                duration_ms=rng.uniform(1.0, 4000.0),  # must stay positive
                from_cell=cell(), to_cell=cell(),
                from_tech=pick(RadioTechnology), to_tech=pick(RadioTechnology),
            ),
        ))
    for _ in range(n_rows("passive")):
        start = rng.uniform(0, 1e6)
        rows["passive_coverage"].append(PassiveCoverageSegment(
            operator=pick(Operator), start_m=start,
            end_m=start + rng.uniform(0, 1e4), tech=pick(RadioTechnology),
            timezone=pick(Timezone), region=pick(RegionType),
        ))
    for _ in range(n_rows("offload")):
        rows["offload_runs"].append(OffloadRunResult(
            app=pick((TestType.AR, TestType.CAV)), test_id=rng.randint(0, 500),
            operator=pick(Operator), server_kind=pick(ServerKind),
            compression=rng.random() < 0.5, mean_e2e_ms=f(1, 500),
            median_e2e_ms=f(1, 500), offload_fps=f(0, 60), map_score=f(0, 1),
            ho_count=rng.randint(0, 9), frac_hs5g=f(0, 1),
            static=rng.random() < 0.5, uplink_megabits=f(0, 1e4),
        ))
    for _ in range(n_rows("video")):
        rows["video_runs"].append(VideoRunResult(
            test_id=rng.randint(0, 500), operator=pick(Operator),
            server_kind=pick(ServerKind), qoe=f(0, 5),
            avg_bitrate_mbps=f(0, 200), rebuffer_ratio=f(0, 1),
            ho_count=rng.randint(0, 9), frac_hs5g=f(0, 1),
            static=rng.random() < 0.5, downlink_megabits=f(0, 1e4),
        ))
    for _ in range(n_rows("gaming")):
        rows["gaming_runs"].append(GamingRunResult(
            test_id=rng.randint(0, 500), operator=pick(Operator),
            server_kind=pick(ServerKind), avg_bitrate_mbps=f(0, 200),
            median_latency_ms=f(1, 500), p95_latency_ms=f(1, 900),
            frame_drop_rate=f(0, 1), ho_count=rng.randint(0, 9),
            frac_hs5g=f(0, 1), static=rng.random() < 0.5,
            downlink_megabits=f(0, 1e4),
        ))
    for attr, records in rows.items():
        setattr(ds, attr, records)
    return ds


def _assert_datasets_match(original: DriveDataset, rebuilt: DriveDataset):
    """Column-by-column NaN-aware equality of every stored value."""
    assert rebuilt.seed == original.seed
    assert rebuilt.passive_handover_counts == original.passive_handover_counts
    assert rebuilt.connected_cells == original.connected_cells
    for table, attr in TABLE_ATTRS.items():
        schema = TABLE_SCHEMAS[table]
        orig_records = getattr(original, attr)
        new_records = getattr(rebuilt, attr)
        assert len(new_records) == len(orig_records), table
        for spec in schema.columns:
            if spec.derived:
                continue
            get = schema.getters[spec.name]
            assert _seq_eq(
                [get(r) for r in new_records],
                [get(r) for r in orig_records],
            ), f"{table}.{spec.name}"


class TestFileRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_dataset_roundtrips_value_exact(self, seed, tmp_path):
        rng = random.Random(seed)
        # Each case empties a random subset of tables: partitions with zero
        # rows must write and read back as cleanly as populated ones.
        empty = frozenset(
            t for t in TABLE_ATTRS if rng.random() < 0.3
        )
        original = _random_dataset(rng, empty_tables=empty)
        path = tmp_path / f"fuzz-{seed}.rcol"
        write_dataset(original, path)
        _assert_datasets_match(original, read_dataset(path))

    @pytest.mark.parametrize("seed", range(4))
    def test_rewrite_is_byte_stable(self, seed, tmp_path):
        """decode → re-encode reproduces the file byte for byte."""
        original = _random_dataset(random.Random(100 + seed))
        first = tmp_path / "first.rcol"
        second = tmp_path / "second.rcol"
        write_dataset(original, first)
        write_dataset(read_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_ingest_stats_equal_the_reopened_file(self, seed, tmp_path):
        """The catalog builds a partition's manifest stats from the footer
        the writer returns; they equal the stats read back from the file
        (empty tables, NaN-only and ±inf columns, cell-id dictionaries)."""
        rng = random.Random(200 + seed)
        empty = frozenset(t for t in TABLE_ATTRS if rng.random() < 0.3)
        with Catalog(tmp_path / "store") as catalog:
            info = catalog.ingest(_random_dataset(rng, empty_tables=empty))
            with DatasetReader(catalog.root / info.path) as reader:
                assert info.tables == _reader_stats(reader)
                assert info.nbytes == reader.nbytes()
            assert Catalog(catalog.root).partitions == (info,)

    def test_fully_empty_dataset_roundtrips(self, tmp_path):
        original = DriveDataset(seed=1, scale=0.5, route_length_km=10.0)
        path = tmp_path / "empty.rcol"
        write_dataset(original, path)
        rebuilt = read_dataset(path)
        _assert_datasets_match(original, rebuilt)
        for attr in TABLE_ATTRS.values():
            assert getattr(rebuilt, attr) == ()


def _reader_stats(reader: DatasetReader) -> dict:
    """A store file's footer stats in manifest form, read through the
    reader's table API."""
    fields = ("name", "kind", "codec", "width", "count", "stats", "values")
    tables = {}
    for name in reader.table_names:
        table = reader.table(name)
        columns = {}
        for column in table.column_names:
            entry = table.column_entry(column)
            columns[column] = {k: entry[k] for k in fields if k in entry}
        tables[name] = {"count": table.count, "columns": columns}
    return tables


# -- differential: columnar vs JSON-lines round trip --------------------------


def _flat_fields(record) -> list:
    """Every leaf field of a record, nested events and cell ids included."""
    out = []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            out.extend(_flat_fields(value))
        else:
            out.append(value)
    return out


class TestColumnarMatchesJsonLines:
    """``read_dataset(write_dataset(ds))`` must rebuild exactly what the
    JSON-lines round trip rebuilds: equal values (NaN-aware), identical
    Python types (``int``/``bool``/``float``, never numpy scalars), the
    same header order, and the same saved bytes."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        empty=st.frozensets(st.sampled_from(sorted(TABLE_ATTRS))),
    )
    def test_records_and_types_match(self, seed, empty):
        original = _random_dataset(random.Random(seed), empty_tables=empty)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            write_dataset(original, tmp / "ds.rcol")
            save_dataset(original, tmp / "ds.jsonl.gz")
            columnar = read_dataset(tmp / "ds.rcol")
            rows = load_dataset(tmp / "ds.jsonl.gz")
            save_dataset(columnar, tmp / "columnar.jsonl.gz")
            assert (tmp / "columnar.jsonl.gz").read_bytes() == (
                tmp / "ds.jsonl.gz"
            ).read_bytes()
        for attr in ("passive_handover_counts", "connected_cells"):
            assert list(getattr(columnar, attr).items()) == list(
                getattr(rows, attr).items()
            ), attr
        for table, attr in TABLE_ATTRS.items():
            got, want = getattr(columnar, attr), getattr(rows, attr)
            assert len(got) == len(want) == (
                0 if table in empty else len(getattr(original, attr))
            ), table
            for a, b in zip(got, want):
                assert type(a) is type(b), table
                fa, fb = _flat_fields(a), _flat_fields(b)
                assert [type(v) for v in fa] == [type(v) for v in fb], table
                assert _seq_eq(fa, fb), table

    def test_handover_cell_ids_rebuild(self, tmp_path):
        ds = _random_dataset(random.Random(7))
        assert ds.handovers
        write_dataset(ds, tmp_path / "ds.rcol")
        back = read_dataset(tmp_path / "ds.rcol")
        for a, b in zip(back.handovers, ds.handovers):
            assert type(a.event.from_cell) is CellId
            assert a.event.from_cell == b.event.from_cell
            assert a.event.to_cell == b.event.to_cell
