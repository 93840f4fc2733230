"""Store file format: exact round-trip, byte stability, corruption safety.

The cases that edit a JSON footer run on version 2 files (written by
``tests/store_v2.py``), the ones that edit the column directory on files
the current writer wrote.
"""

from __future__ import annotations

import copy

import pytest

from repro.errors import StoreError
from repro.store.format import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    DatasetReader,
    is_store_file,
    read_dataset,
    write_dataset,
)
from tests.conftest import RCOL_CORRUPTIONS
from tests.store_v2 import write_dataset_v2


@pytest.fixture(scope="module")
def store_file(bare_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "bare.rcol"
    write_dataset(bare_dataset, path)
    return path


class TestRoundTrip:
    def test_every_record_family_value_exact(self, bare_dataset, store_file):
        back = read_dataset(store_file)
        assert back.seed == bare_dataset.seed
        assert back.scale == bare_dataset.scale
        assert back.route_length_km == bare_dataset.route_length_km
        assert back.passive_handover_counts == bare_dataset.passive_handover_counts
        assert back.connected_cells == bare_dataset.connected_cells
        # Frozen slots dataclasses compare field-by-field: equality here is
        # value-for-value across every column, floats bit-for-bit.
        assert back.throughput_samples == bare_dataset.throughput_samples
        assert back.rtt_samples == bare_dataset.rtt_samples
        assert back.tests == bare_dataset.tests
        assert back.handovers == bare_dataset.handovers
        assert back.passive_coverage == bare_dataset.passive_coverage
        assert back.offload_runs == bare_dataset.offload_runs
        assert back.video_runs == bare_dataset.video_runs
        assert back.gaming_runs == bare_dataset.gaming_runs

    def test_full_campaign_dataset_roundtrip(self, dataset, tmp_path):
        # The apps + static dataset exercises every table non-empty.
        path = tmp_path / "full.rcol"
        write_dataset(dataset, path)
        back = read_dataset(path)
        assert back.offload_runs == dataset.offload_runs
        assert back.video_runs == dataset.video_runs
        assert back.gaming_runs == dataset.gaming_runs
        assert back.throughput_samples == dataset.throughput_samples

    def test_byte_stable(self, bare_dataset, store_file, tmp_path):
        again = tmp_path / "again.rcol"
        write_dataset(copy.deepcopy(bare_dataset), again)
        assert again.read_bytes() == store_file.read_bytes()

    def test_is_store_file(self, store_file, tmp_path):
        assert is_store_file(store_file)
        other = tmp_path / "not-a-store.bin"
        other.write_bytes(b"\x1f\x8b some gzip-ish bytes")
        assert not is_store_file(other)
        assert not is_store_file(tmp_path / "missing.rcol")


class TestHeaderOrder:
    """The per-operator meta dicts come back in insertion order, so a
    read-back dataset saves to exactly the bytes of the original."""

    @staticmethod
    def ordered_dataset():
        from repro.campaign.dataset import DriveDataset
        from repro.radio.operators import Operator

        return DriveDataset(
            seed=3, scale=0.5, route_length_km=12.0,
            passive_handover_counts={
                Operator.VERIZON: 5, Operator.TMOBILE: 2, Operator.ATT: 9,
            },
            connected_cells={Operator.TMOBILE: 4, Operator.VERIZON: 1},
        )

    def test_order_survives_round_trip(self, tmp_path):
        original = self.ordered_dataset()
        write_dataset(original, tmp_path / "ds.rcol")
        back = read_dataset(tmp_path / "ds.rcol")
        assert list(back.passive_handover_counts.items()) == list(
            original.passive_handover_counts.items()
        )
        assert list(back.connected_cells.items()) == list(
            original.connected_cells.items()
        )

    def test_resave_is_byte_identical(self, bare_dataset, tmp_path):
        from repro.campaign.persistence import save_dataset

        for name, original in (
            ("ordered", self.ordered_dataset()), ("bare", bare_dataset),
        ):
            write_dataset(original, tmp_path / f"{name}.rcol")
            save_dataset(original, tmp_path / f"{name}.jsonl.gz")
            save_dataset(
                read_dataset(tmp_path / f"{name}.rcol"),
                tmp_path / f"{name}-back.jsonl.gz",
            )
            assert (tmp_path / f"{name}-back.jsonl.gz").read_bytes() == (
                tmp_path / f"{name}.jsonl.gz"
            ).read_bytes(), name

    def test_version_1_file_still_reads(self, tmp_path):
        """Version 1 stored the counts as JSON objects (sorted by name)."""
        from tests.conftest import join_rcol, split_rcol

        original = self.ordered_dataset()
        path = tmp_path / "v1.rcol"
        write_dataset_v2(original, path)
        body, footer = split_rcol(path)
        footer["format"] = 1
        for key in ("passive_handover_counts", "connected_cells"):
            footer["meta"][key] = dict(footer["meta"][key])
        join_rcol(path, body, footer)

        back = read_dataset(path)
        assert back.passive_handover_counts == original.passive_handover_counts
        assert back.connected_cells == original.connected_cells
        assert list(back.passive_handover_counts) == sorted(
            original.passive_handover_counts, key=lambda op: op.name
        )


class TestReader:
    def test_footer_stats_without_decoding(self, store_file, bare_dataset):
        with DatasetReader(store_file) as reader:
            table = reader.table("tput")
            assert table.count == len(bare_dataset.throughput_samples)
            stats = table.stats("tput_mbps")
            values = [s.tput_mbps for s in bare_dataset.throughput_samples]
            assert stats.min == min(values)
            assert stats.max == max(values)
            ops = set(table.dict_values("operator"))
            assert ops == {
                s.operator.name for s in bare_dataset.throughput_samples
            }

    def test_unknown_table_and_column(self, store_file):
        with DatasetReader(store_file) as reader:
            with pytest.raises(StoreError, match="no table"):
                reader.table("nope")
            with pytest.raises(StoreError, match="no column"):
                reader.table("tput").column_entry("nope")

    def test_closed_reader_refuses_reads(self, store_file):
        reader = DatasetReader(store_file)
        reader.close()
        with pytest.raises(StoreError, match="closed"):
            reader.table("tput").array("tput_mbps")


class TestCorruption:
    """Damaged files fail with a clean StoreError — never garbage rows."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rcol"
        path.write_bytes(b"")
        with pytest.raises(StoreError, match="empty"):
            DatasetReader(path)

    def test_bad_magic(self, store_file, tmp_path):
        data = bytearray(store_file.read_bytes())
        data[:8] = b"NOTMAGIC"
        path = tmp_path / "badmagic.rcol"
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="magic"):
            DatasetReader(path)

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9, 0.999])
    def test_truncation_anywhere_is_detected(
        self, store_file, tmp_path, keep_fraction
    ):
        data = store_file.read_bytes()
        cut = tmp_path / f"cut-{keep_fraction}.rcol"
        cut.write_bytes(data[: int(len(data) * keep_fraction)])
        with pytest.raises(StoreError):
            read_dataset(cut)

    def test_truncated_tail_only(self, store_file, tmp_path):
        data = store_file.read_bytes()
        path = tmp_path / "tail.rcol"
        path.write_bytes(data[:-4])
        with pytest.raises(StoreError, match="truncated|corrupt"):
            DatasetReader(path)

    def test_footer_version_mismatch(self, store_file, tmp_path, monkeypatch):
        import repro.store.format as fmt

        monkeypatch.setattr(fmt, "STORE_FORMAT_VERSION", 99)
        with pytest.raises(StoreError, match="unsupported store format"):
            DatasetReader(store_file)

    def test_column_span_outside_data_section(self, bare_dataset, tmp_path):
        # Hand-corrupt a version 2 footer so a column claims bytes past the
        # data section; the reader must refuse the slice.
        import json
        import struct

        path = tmp_path / "span.rcol"
        write_dataset_v2(bare_dataset, path)
        data = bytearray(path.read_bytes())
        tail = struct.Struct("<QI4s")
        offset, length, _magic = tail.unpack(data[-tail.size:])
        footer = json.loads(bytes(data[offset: offset + length]))
        footer["tables"]["tput"]["columns"][0]["offset"] = offset + 1
        new_footer = json.dumps(footer, sort_keys=True,
                                separators=(",", ":")).encode()
        rebuilt = (
            bytes(data[:offset]) + new_footer
            + tail.pack(offset, len(new_footer), b"RCOL")
        )
        path.write_bytes(rebuilt)
        with pytest.raises(StoreError, match="outside the data section"):
            with DatasetReader(path) as reader:
                reader.table("tput").array("test_id")

    @pytest.mark.parametrize(
        "corruption",
        ["dict_code_out_of_range", "unknown_enum_member", "truncated_payload"],
    )
    def test_bad_column_raises_store_error(
        self, bare_dataset, tmp_path, corruption
    ):
        """A decode error raised while column views into the map are alive
        must still surface as ``StoreError`` (closing the map must not), in
        a version 2 file."""
        from tests.conftest import RCOL_V2_CORRUPTIONS

        path = tmp_path / "bad.rcol"
        write_dataset_v2(bare_dataset, path)
        RCOL_V2_CORRUPTIONS[corruption](path)
        with pytest.raises(StoreError):
            read_dataset(path)

    def test_bad_cell_id_raises_store_error(self, tmp_path):
        import random

        from tests.conftest import join_rcol, split_rcol
        from tests.test_store_properties import _random_dataset

        path = tmp_path / "cells.rcol"
        write_dataset_v2(_random_dataset(random.Random(7)), path)
        body, footer = split_rcol(path)
        cells = next(
            c for c in footer["tables"]["ho"]["columns"]
            if c["name"] == "from_cell"
        )
        cells["values"][0] = "VERIZON:NOT_A_TECH:12"
        join_rcol(path, body, footer)
        with pytest.raises(StoreError, match="invalid cell id"):
            read_dataset(path)

    @pytest.mark.parametrize("table,column,bad,match", [
        ("tput", "operator", "NOT_AN_OPERATOR", "unknown Operator member"),
        ("ho", "from_cell", "VERIZON:NOT_A_TECH:12", "invalid cell id"),
    ])
    def test_bad_member_after_a_cached_read_still_raises(
        self, tmp_path, table, column, bad, match
    ):
        """Dictionary checks are cached per distinct dictionary: reading a
        valid file first must not let the same file with one bad member
        through."""
        import random

        from tests.conftest import join_rcol, split_rcol
        from tests.test_store_properties import _random_dataset

        path = tmp_path / "members.rcol"
        write_dataset_v2(_random_dataset(random.Random(7)), path)
        read_dataset(path)
        read_dataset(path)  # every dictionary of the file is now cached
        body, footer = split_rcol(path)
        entry = next(
            c for c in footer["tables"][table]["columns"] if c["name"] == column
        )
        entry["values"][-1] = bad
        join_rcol(path, body, footer)
        for _ in range(2):  # and the failure is not cached either
            with pytest.raises(StoreError, match=match):
                read_dataset(path)

    def test_column_count_disagreeing_with_table_raises(
        self, bare_dataset, tmp_path
    ):
        from tests.conftest import join_rcol, split_rcol

        path = tmp_path / "count.rcol"
        write_dataset_v2(bare_dataset, path)
        body, footer = split_rcol(path)
        footer["tables"]["tput"]["count"] += 1
        join_rcol(path, body, footer)
        with pytest.raises(StoreError, match="rows"):
            read_dataset(path)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda footer: footer.update(tables=[]), id="tables-list"),
        pytest.param(lambda footer: footer.update(meta=[]), id="meta-list"),
        pytest.param(
            lambda footer: footer["tables"]["tput"].update(count=None),
            id="count-null",
        ),
    ])
    def test_malformed_footer_structure(
        self, bare_dataset, tmp_path, capsys, damage
    ):
        """A footer of the wrong shape is refused when the file is opened:
        ``inspect`` fails cleanly and the shard cache counts a miss."""
        from tests.conftest import join_rcol, split_rcol
        from repro.engine.worker import ShardResult
        from repro.store.__main__ import main
        from repro.sweep.cache import ShardCache

        cache = ShardCache(tmp_path / "cache")
        cache.store("f" * 64, 7, ShardResult(index=0, dataset=bare_dataset))
        path = cache.entry_dir(cache.key("f" * 64, 0, 7)) / ShardCache.DATA_NAME
        write_dataset_v2(bare_dataset, path)  # an entry of a version 2 build
        body, footer = split_rcol(path)
        damage(footer)
        join_rcol(path, body, footer)

        with pytest.raises(StoreError, match="malformed footer"):
            DatasetReader(path)
        assert main(["inspect", str(path)]) == 1
        assert "store command failed" in capsys.readouterr().err
        assert cache.load("f" * 64, 7, 0) is None
        assert cache.stats.misses == 1

    def test_not_a_store_file_via_load_dataset(self, tmp_path):
        from repro.errors import LogFormatError
        from repro.campaign.persistence import load_dataset

        path = tmp_path / "junk.rcol"
        path.write_bytes(STORE_MAGIC + b"\x00" * 3)  # magic but no tail
        with pytest.raises(StoreError):
            load_dataset(path)
        junk = tmp_path / "junk2.jsonl.gz"
        junk.write_bytes(b"definitely not gzip")
        with pytest.raises((LogFormatError, OSError)):
            load_dataset(junk)


class TestDirectory:
    """The format 3 column directory: framing, stats, checks on open."""

    def test_split_and_join_reproduce_the_file(self, store_file, tmp_path):
        from tests.conftest import join_rcol3, split_rcol3

        path = tmp_path / "again.rcol"
        path.write_bytes(store_file.read_bytes())
        join_rcol3(path, *split_rcol3(path))
        assert path.read_bytes() == store_file.read_bytes()

    def test_tail_carries_the_version(self, store_file):
        assert store_file.read_bytes()[-4:] == f"RCL{STORE_FORMAT_VERSION}".encode()
        with DatasetReader(store_file) as reader:
            assert reader.format_version == STORE_FORMAT_VERSION

    @pytest.mark.parametrize("corruption", sorted(RCOL_CORRUPTIONS))
    def test_damage_raises_store_error(self, bare_dataset, tmp_path, corruption):
        path = tmp_path / "bad.rcol"
        write_dataset(bare_dataset, path)
        RCOL_CORRUPTIONS[corruption](path)
        with pytest.raises(StoreError):
            read_dataset(path)

    def test_integer_stats_exact_and_none_distinct_from_nan(self, tmp_path):
        """int64 stats round-trip exactly (a float would round them); a
        column without a finite value has ``None`` stats, never NaN."""
        import dataclasses
        import math

        big = (1 << 62) + 1
        original = TestHeaderOrder.ordered_dataset()
        from tests.test_golden_files import golden_dataset

        samples = golden_dataset().throughput_samples[:2]
        original.throughput_samples = [
            dataclasses.replace(samples[0], test_id=big, tput_mbps=math.nan),
            dataclasses.replace(samples[1], test_id=-big, tput_mbps=math.nan),
        ]
        path = tmp_path / "stats.rcol"
        footer = write_dataset(original, path)
        with DatasetReader(path) as reader:
            table = reader.table("tput")
            ids = table.stats("test_id")
            assert (ids.min, ids.max) == (-big, big)
            assert type(ids.min) is int and type(ids.max) is int
            tput = table.stats("tput_mbps")
            assert (tput.nulls, tput.min, tput.max) == (2, None, None)
            marks = table.stats("mark_m")
            assert type(marks.min) is float
            entries = {
                col["name"]: col for col in footer["tables"]["tput"]["columns"]
            }
            for column in table.column_names:
                assert table.column_entry(column) == entries[column], column
        assert read_dataset(path).throughput_samples[0].test_id == big

    def test_zero_row_tables_are_shared(self, store_file):
        a, b = read_dataset(store_file), read_dataset(store_file)
        assert a.count("offload") == 0
        assert a.table("offload") is b.table("offload")

    def test_zero_row_table_with_a_dictionary_is_still_checked(
        self, bare_dataset, tmp_path
    ):
        """A zero-row table whose dict column claims a dictionary is not
        the writer's empty table: its members are checked as usual."""
        from tests.conftest import join_rcol3, split_rcol3

        path = tmp_path / "empty.rcol"
        write_dataset(bare_dataset, path)
        body, rows, strings, meta = split_rcol3(path)
        offload = [name for name, _ in meta["tables"]].index("offload")
        (i,) = [
            i for i, row in enumerate(rows)
            if row["table"] == offload and strings[row["name"]] == "operator"
        ]
        rows["values_at"][i], rows["n_values"][i] = rows["name"][i], 1
        join_rcol3(path, body, rows, strings, meta)
        with pytest.raises(StoreError, match="unknown Operator member"):
            read_dataset(path)

    def test_v2_and_v3_describe_columns_alike(self, bare_dataset, tmp_path):
        """A version 2 file's footer parses into the directory form: every
        column entry equals the one the current writer describes."""
        write_dataset_v2(bare_dataset, tmp_path / "v2.rcol")
        write_dataset(bare_dataset, tmp_path / "v3.rcol")
        with DatasetReader(tmp_path / "v2.rcol") as v2, \
                DatasetReader(tmp_path / "v3.rcol") as v3:
            assert v2.format_version == 2
            assert sorted(v2.table_names) == sorted(v3.table_names)
            for name in v3.table_names:
                old, new = v2.table(name), v3.table(name)
                assert old.count == new.count
                assert old.column_names == new.column_names
                for column in new.column_names:
                    assert repr(old.column_entry(column)) == repr(
                        new.column_entry(column)
                    ), (name, column)

    def test_v2_column_without_stats_is_read_not_pruned(self, bare_dataset, tmp_path):
        """A version 2 entry without stats keeps none in directory form, so
        a predicate on it is evaluated rather than judged by a range."""
        from repro.store import Between, query
        from tests.conftest import join_rcol, split_rcol

        path = tmp_path / "nostats.rcol"
        write_dataset_v2(bare_dataset, path)
        body, footer = split_rcol(path)
        (col,) = [
            c for c in footer["tables"]["tput"]["columns"] if c["name"] == "tput_mbps"
        ]
        del col["stats"]
        join_rcol(path, body, footer)
        where = (Between("tput_mbps", 0.0, None),)
        with DatasetReader(path) as reader:
            assert "stats" not in reader.table("tput").column_entry("tput_mbps")
            qstats = query.QueryStats()
            assert query.count(reader, "tput", where, qstats=qstats) == sum(
                s.tput_mbps >= 0.0 for s in bare_dataset.throughput_samples
            )
            assert qstats.columns_decoded == 1


class TestHeldDecodes:
    """``read_dataset`` holds a decode from the second read of a path on,
    decodes a file again only when its bytes differ from the held ones,
    and never holds a failure."""

    @pytest.fixture(autouse=True)
    def loads(self, monkeypatch):
        """Counts of ``TableReader.load`` calls, starting from nothing held."""
        from repro.store import format as fmt

        monkeypatch.setattr(fmt, "_HELD", fmt._HeldFiles())
        calls = []
        load = fmt.TableReader.load

        def counting(self, schema):
            calls.append(self.name)
            return load(self, schema)

        monkeypatch.setattr(fmt.TableReader, "load", counting)
        return calls

    @staticmethod
    def copy_of(store_file, path):
        path.write_bytes(store_file.read_bytes())
        return path

    def test_unchanged_bytes_are_not_decoded_again(self, store_file, tmp_path, loads):
        from repro.store import format as fmt

        path = self.copy_of(store_file, tmp_path / "ds.rcol")
        first = read_dataset(path)
        assert len(loads) == 8
        # A file read once leaves only its mark behind.
        assert fmt._HELD.nbytes == fmt._MARK_NBYTES
        loads.clear()
        read_dataset(path)  # read again: decoded, and now held
        assert len(loads) == 8
        assert fmt._HELD.nbytes > path.stat().st_size
        loads.clear()
        third = read_dataset(path)
        assert loads == []
        assert third.throughput_samples == first.throughput_samples
        assert (third.seed, third.scale, third.route_length_km) == (
            first.seed, first.scale, first.route_length_km,
        )

    def test_each_read_is_a_distinct_dataset(self, store_file, tmp_path):
        from repro.campaign.dataset import empty_table
        from repro.radio.operators import Operator

        path = self.copy_of(store_file, tmp_path / "ds.rcol")
        read_dataset(path)
        a, b = read_dataset(path), read_dataset(path)
        assert a is not b and a.table("tput") is b.table("tput")
        n = b.count("tput")
        rows = b.rtt_samples
        assert a.rtt_samples == rows and a.rtt_samples is not rows
        a.set_table(empty_table("tput"))
        a.passive_handover_counts[Operator.VERIZON] = -1
        a.connected_cells.clear()
        assert b.count("tput") == n > 0
        assert b.passive_handover_counts[Operator.VERIZON] != -1
        assert b.connected_cells
        again = read_dataset(path)
        assert again.count("tput") == n
        assert again.passive_handover_counts == b.passive_handover_counts
        assert again.connected_cells == b.connected_cells

    @staticmethod
    def flip_tput_value(path):
        """Flip the low bit of the first ``tput_mbps`` value, in place."""
        with DatasetReader(path) as reader:
            offset = reader.table("tput").column_entry("tput_mbps")["offset"]
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))

    def test_changed_bytes_are_decoded_afresh(self, store_file, tmp_path, loads):
        import os

        path = self.copy_of(store_file, tmp_path / "ds.rcol")
        read_dataset(path)
        before = read_dataset(path).table("tput").arrays["tput_mbps"][0]

        self.flip_tput_value(path)  # same size, one bit
        loads.clear()
        flipped = read_dataset(path).table("tput").arrays["tput_mbps"][0]
        assert len(loads) == 8
        assert flipped != before

        path.write_bytes(path.read_bytes()[:-1])
        for _ in range(2):
            with pytest.raises(StoreError):
                read_dataset(path)

        other = TestHeaderOrder.ordered_dataset()
        write_dataset(other, tmp_path / "other.rcol")
        os.replace(tmp_path / "other.rcol", path)
        loads.clear()
        back = read_dataset(path)
        assert len(loads) == 8
        assert (back.seed, back.connected_cells) == (
            other.seed, other.connected_cells,
        )

    @pytest.mark.parametrize("corruption", sorted(RCOL_CORRUPTIONS))
    def test_a_corrupt_file_fails_every_read(
        self, store_file, tmp_path, loads, corruption
    ):
        from repro.store import format as fmt

        path = self.copy_of(store_file, tmp_path / "ds.rcol")
        read_dataset(path)
        original = read_dataset(path)
        held = fmt._HELD.nbytes
        RCOL_CORRUPTIONS[corruption](path)
        for _ in range(2):
            with pytest.raises(StoreError):
                read_dataset(path)
        assert fmt._HELD.nbytes == held  # a failure holds nothing
        # The decode held for the original bytes serves them once they
        # are back, and only then.
        path.write_bytes(store_file.read_bytes())
        loads.clear()
        assert read_dataset(path).throughput_samples == original.throughput_samples
        assert loads == []

    def test_held_bytes_stay_within_the_bound(
        self, store_file, tmp_path, loads, monkeypatch
    ):
        from repro.store import format as fmt

        size = store_file.stat().st_size
        monkeypatch.setattr(fmt, "HELD_MAX_BYTES", 3 * size)
        paths = [
            self.copy_of(store_file, tmp_path / f"ds{i}.rcol") for i in range(5)
        ]
        for path in paths:
            read_dataset(path)
            read_dataset(path)
            assert size <= fmt._HELD.nbytes <= fmt.HELD_MAX_BYTES
        loads.clear()
        read_dataset(paths[-1])  # the newest is held...
        assert loads == []
        read_dataset(paths[0])  # ...the oldest was let go
        assert len(loads) == 8

        monkeypatch.setattr(fmt, "HELD_MAX_BYTES", size - 1)
        monkeypatch.setattr(fmt, "_HELD", fmt._HeldFiles())
        for _ in range(3):  # a file beyond the bound is never held
            loads.clear()
            read_dataset(paths[0])
            assert len(loads) == 8
            assert fmt._HELD.nbytes == fmt._MARK_NBYTES
