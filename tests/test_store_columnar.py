"""Column encodings: seeded-random round-trips and corruption handling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import StoreError
from repro.store.columnar import (
    ColumnSpec,
    decode_column,
    decode_dict_column,
    encode_array,
    encode_column,
)
from repro.radio.operators import Operator


def _roundtrip(spec: ColumnSpec, values: list):
    col = encode_column(spec, values)
    entry = col.footer_entry(offset=0)
    return col, entry, decode_column(entry, col.payload)


class TestSeededRandomRoundTrip:
    """Encode→decode equals the input value-for-value, every column kind."""

    def test_f8_exact_including_specials(self, rng):
        values = list(rng.normal(0.0, 1e6, size=500))
        values += [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-308, 1.5e308]
        col, entry, decoded = _roundtrip(ColumnSpec("x", "f8"), values)
        assert col.codec == "plain"
        # Bit-exact: NaN payloads and signed zeros included.
        assert (
            np.asarray(values, dtype="<f8").tobytes() == decoded.tobytes()
        )
        assert entry["stats"]["nulls"] == 1
        finite = [v for v in values if math.isfinite(v)]
        assert entry["stats"]["min"] == min(finite)
        assert entry["stats"]["max"] == max(finite)

    def test_i8_plain_random(self, rng):
        values = [int(v) for v in rng.integers(-(2**62), 2**62, size=400)]
        col, entry, decoded = _roundtrip(ColumnSpec("x", "i8"), values)
        assert col.codec == "plain"  # random values: runs don't pay off
        assert decoded.tolist() == values
        assert entry["stats"]["min"] == min(values)
        assert entry["stats"]["max"] == max(values)

    def test_i8_rle_slowly_changing(self, rng):
        # Long runs, like a test-id column: RLE must engage and round-trip.
        values = [int(v) for v in np.repeat(rng.integers(0, 50, size=20), 100)]
        col, entry, decoded = _roundtrip(ColumnSpec("x", "i8"), values)
        assert col.codec == "rle"
        assert len(col.payload) < 8 * len(values)
        assert decoded.tolist() == values

    def test_bool_roundtrip_both_codecs(self, rng):
        random_bits = [bool(b) for b in rng.integers(0, 2, size=300)]
        runs = [True] * 200 + [False] * 100 + [True] * 50
        for values in (random_bits, runs):
            _col, _entry, decoded = _roundtrip(ColumnSpec("x", "bool"), values)
            assert [bool(v) for v in decoded.tolist()] == values

    def test_dict_enum_roundtrip(self, rng):
        ops = list(Operator)
        values = [ops[i] for i in rng.integers(0, len(ops), size=250)]
        col = encode_column(ColumnSpec("op", "dict", Operator), values)
        entry = col.footer_entry(offset=0)
        assert col.width == 1  # 3 distinct values fit 1-byte codes
        assert decode_dict_column(entry, col.payload) == [
            v.name for v in values
        ]

    def test_dict_code_width_scales_with_cardinality(self):
        values = [f"cell-{i}" for i in range(300)]  # > 255 distinct
        col = encode_column(ColumnSpec("cell", "dict"), values)
        assert col.width == 2
        entry = col.footer_entry(offset=0)
        assert decode_dict_column(entry, col.payload) == values

    def test_dict_values_first_appearance_order(self):
        col = encode_column(ColumnSpec("s", "dict"), ["b", "a", "b", "c"])
        assert col.values == ("b", "a", "c")

    def test_empty_column_all_kinds(self):
        for kind in ("f8", "i8", "bool", "dict"):
            col = encode_column(ColumnSpec("x", kind), [])
            entry = col.footer_entry(offset=0)
            assert decode_column(entry, col.payload).size == 0
            assert entry["stats"]["min"] is None

    def test_encoding_deterministic(self, rng):
        values = [float(v) for v in rng.normal(size=100)]
        a = encode_column(ColumnSpec("x", "f8"), values)
        b = encode_column(ColumnSpec("x", "f8"), list(values))
        assert a.payload == b.payload
        assert a.footer_entry(0) == b.footer_entry(0)


class TestArrayEncoder:
    def test_dictionary_rederived_in_first_appearance_order(self):
        """Codes over a dictionary that is out of order, has an unused
        value and repeats a value encode exactly as their strings would."""
        spec = ColumnSpec("x", "dict")
        codes = np.array([1, 3, 1, 0], dtype=np.uint8)
        got = encode_array(spec, codes, ("b", "a", "unused", "b"))
        assert got == encode_column(spec, ["a", "b", "a", "b"])
        assert got.values == ("a", "b")

    @pytest.mark.parametrize("values", [
        tuple(f"v{i}" for i in range(9)),
        ("b", "a", "unused", "b", "c", "a"),
    ], ids=["distinct", "repeated-and-unused"])
    def test_renumbering_matches_the_strings_dictionary(self, values):
        """Codes renumbered from their run heads index the dictionary the
        column's strings would build, in first-appearance order."""
        from repro.store.columnar import _dictionary_codes, _renumbered

        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 50, 400):
            codes = rng.integers(0, len(values), n).repeat(rng.integers(1, 4, n))
            got_codes, got_values = _renumbered(codes, values)
            want_codes, want_values = _dictionary_codes([values[c] for c in codes])
            assert got_values == want_values
            assert got_codes.dtype == np.uint32
            assert got_codes.tolist() == want_codes.tolist()

    def test_kernel_shard_is_canonicalised_once(self, monkeypatch, tmp_path):
        """The campaign kernel's tables come out of ``from_codes`` in
        first-appearance order and marked so: writing the shard never
        takes the general first-appearance pass."""
        import repro.store.columnar as columnar
        from repro.campaign.runner import CampaignConfig, DriveCampaign
        from repro.store.columnar import TABLE_SCHEMAS
        from repro.store.format import write_dataset

        def refuse(codes, values):
            raise AssertionError("dictionary canonicalised a second time")

        monkeypatch.setattr(columnar, "_first_appearance", refuse)
        ds = DriveCampaign(CampaignConfig(
            seed=5, scale=0.004, include_apps=False, include_static=False
        )).run()
        for name in TABLE_SCHEMAS:
            assert ds.table(name).canonical, name
        write_dataset(ds, tmp_path / "shard.rcol")


class TestCorruption:
    """A short or mangled payload raises StoreError, never returns garbage."""

    @pytest.mark.parametrize("kind,values", [
        ("f8", [1.0, 2.0, 3.0]),
        ("i8", list(range(64))),
        ("bool", [True, False] * 40),
        ("dict", ["a", "b", "c", "a"] * 10),
    ])
    def test_truncated_plain_payload(self, kind, values):
        col = encode_column(ColumnSpec("x", kind), values)
        entry = col.footer_entry(offset=0)
        if col.codec != "plain":
            pytest.skip("codec chose RLE for this data")
        with pytest.raises(StoreError, match="truncated"):
            decode_column(entry, col.payload[:-1])

    def test_truncated_rle_payload(self):
        values = [7] * 500 + [9] * 500
        col = encode_column(ColumnSpec("x", "i8"), values)
        assert col.codec == "rle"
        entry = col.footer_entry(offset=0)
        with pytest.raises(StoreError, match="truncated"):
            decode_column(entry, col.payload[:-3])

    def test_rle_count_mismatch(self):
        values = [7] * 500 + [9] * 500
        col = encode_column(ColumnSpec("x", "i8"), values)
        entry = col.footer_entry(offset=0)
        entry["count"] = 999  # footer lies about the row count
        with pytest.raises(StoreError, match="corrupt"):
            decode_column(entry, col.payload)

    def test_dict_code_out_of_range(self):
        col = encode_column(ColumnSpec("x", "dict"), ["a", "b", "b", "a"])
        entry = col.footer_entry(offset=0)
        entry["values"] = ["a"]  # dictionary shorter than the codes claim
        with pytest.raises(StoreError, match="out of range"):
            decode_dict_column(entry, col.payload)

    def test_unknown_kind_rejected(self):
        col = encode_column(ColumnSpec("x", "i8"), [1, 2])
        entry = col.footer_entry(offset=0)
        entry["kind"] = "utf-floats"
        with pytest.raises(StoreError, match="unknown column kind"):
            decode_column(entry, col.payload)

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(StoreError, match="unknown column kind"):
            encode_column(ColumnSpec("x", "decimal"), [1])


class TestMemberChecks:
    """Dictionary members are checked once per distinct dictionary."""

    SPEC = ColumnSpec("operator", "dict", enum=Operator)

    def test_cached_dictionary_returns_equal_members(self):
        names = [op.name for op in Operator]
        first = self.SPEC.members(names)
        again = self.SPEC.members(tuple(names))
        assert first == again == list(Operator)
        again.append("mutated")  # a caller's list is its own
        assert self.SPEC.members(names) == list(Operator)

    @pytest.mark.parametrize("values,match", [
        (["VERIZON", "NOT_AN_OPERATOR"], "unknown Operator member"),
        (["VERIZON", 3], "must be strings"),
        (["VERIZON", ["unhashable"]], "must be strings"),
        ("VERIZON", "must be strings"),
    ])
    def test_bad_dictionary_raises_every_time(self, values, match):
        self.SPEC.members(["VERIZON"])
        for _ in range(2):
            with pytest.raises(StoreError, match=match):
                self.SPEC.members(values)

    def test_cache_is_bounded_by_values_held(self):
        from repro.store.columnar import _MembersCache

        cache = _MembersCache(max_values=5)
        cache.put(("a",), (1, 2))
        cache.put(("b",), (1, 2))
        cache.put(("c",), (1, 2))  # 6 values held: the oldest goes
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == cache.get(("c",)) == (1, 2)
        cache.put(("big",), tuple(range(6)))  # larger than the bound
        assert cache.get(("big",)) is None
        assert cache.get(("c",)) == (1, 2)
