"""Shared fixtures.

The expensive fixtures are session-scoped: one small-but-complete campaign
dataset (apps + static baselines included) shared by all analysis tests,
one bare-bones dataset for tests that only need throughput/RTT records, and
a catalog of small driving-only campaigns over several seeds for the
paper-shape tests that one small campaign decides by a handful of zones.
The ``RCOL_CORRUPTIONS`` helpers damage a columnar store file in the ways
the shard-cache tests expect the reader to reject (``RCOL_V2_CORRUPTIONS``
the same for a version 2 file).
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.geo.route import build_cross_country_route
from repro.store import Catalog
from repro.store import format as store_format


@pytest.fixture(scope="session")
def route():
    return build_cross_country_route()


@pytest.fixture(scope="session")
def campaign():
    """A small but complete campaign (apps + static), shared read-only."""
    c = DriveCampaign(CampaignConfig(seed=42, scale=0.035))
    c.run()
    return c


@pytest.fixture(scope="session")
def dataset(campaign):
    return campaign._dataset


@pytest.fixture(scope="session")
def bare_dataset():
    """Throughput/RTT-only dataset (no apps, no static) for faster tests."""
    c = DriveCampaign(
        CampaignConfig(seed=7, scale=0.008, include_apps=False, include_static=False)
    )
    return c.run()


#: Seeds of ``seed_catalog``, one partition each.
SEED_SWEEP = (42, 43, 44)


@pytest.fixture(scope="session")
def seed_catalog(tmp_path_factory):
    """Driving-only campaigns (scale 0.01) at every ``SEED_SWEEP`` seed, as
    one catalog: the analyses pool the seeds' samples, so a property is
    asserted over all of them rather than over one campaign's few zones."""
    catalog = Catalog(tmp_path_factory.mktemp("seed-catalog"))
    for seed in SEED_SWEEP:
        catalog.ingest(DriveCampaign(CampaignConfig(
            seed=seed, scale=0.01, include_apps=False, include_static=False
        )).run())
    yield catalog
    catalog.close()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# -- engine fixtures ---------------------------------------------------------

#: One shared engine configuration for the determinism / fault-tolerance
#: tests: small enough to run in a few seconds, large enough for several
#: shard windows.
ENGINE_CAMPAIGN = CampaignConfig(
    seed=42, scale=0.004, include_apps=False, include_static=False
)
ENGINE_WINDOW_KM = 600.0


def engine_dataset_bytes(ds, tmp_dir) -> bytes:
    """Canonical serialised form of a dataset (saves are byte-reproducible)."""
    from repro.campaign.persistence import save_dataset

    path = tmp_dir / "digest.jsonl.gz"
    save_dataset(ds, path)
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.fixture(scope="session")
def engine_baseline(tmp_path_factory):
    """Serial single-batch engine run of ENGINE_CAMPAIGN → (dataset, bytes)."""
    from repro.engine import EngineConfig, PlannerParams, run_engine

    ds, _report = run_engine(
        EngineConfig(
            campaign=ENGINE_CAMPAIGN,
            executor="serial",
            planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
        )
    )
    tmp = tmp_path_factory.mktemp("engine-baseline")
    return ds, engine_dataset_bytes(ds, tmp)


# -- store-file corruption helpers --------------------------------------------
#
# ``split_rcol``/``join_rcol`` and ``RCOL_V2_CORRUPTIONS`` edit the JSON
# footer of a version 2 file (see ``tests/store_v2.py``);
# ``split_rcol3``/``join_rcol3`` and ``RCOL_CORRUPTIONS`` edit the column
# directory of a file the current writer wrote.

_RCOL_TAIL = struct.Struct("<QI4s")


def split_rcol(path) -> tuple[bytearray, dict]:
    """``(magic + column bytes, parsed footer)`` of a version 2 store file."""
    data = path.read_bytes()
    offset, length, _ = _RCOL_TAIL.unpack(data[-_RCOL_TAIL.size:])
    return bytearray(data[:offset]), json.loads(data[offset: offset + length])


def join_rcol(path, body: bytes, footer: dict) -> None:
    """Reassemble a version 2 file whose tail agrees with body and footer."""
    raw = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        bytes(body) + raw + _RCOL_TAIL.pack(len(body), len(raw), b"RCOL")
    )


def split_rcol3(path) -> tuple[bytearray, np.ndarray, list[str], dict]:
    """``(magic + column bytes, directory rows, strings, meta)`` of a
    format 3 store file; the rows are a writable copy."""
    data = path.read_bytes()
    data_end, n_dir, n_str, n_meta, _ = store_format._TAIL.unpack(
        data[-store_format._TAIL.size:]
    )
    rows = np.frombuffer(
        data, store_format._DIRECTORY, n_dir // store_format._DIRECTORY.itemsize,
        data_end,
    ).copy()
    at = data_end + n_dir
    strings = store_format._unpack_strings(data[at: at + n_str])
    meta = json.loads(data[at + n_str: at + n_str + n_meta])
    return bytearray(data[:data_end]), rows, strings, meta


def join_rcol3(
    path, body: bytes, rows: np.ndarray, strings: list[str], meta: dict,
    string_bytes: bytes | None = None,
) -> None:
    """Reassemble a format 3 file whose tail frames its parts exactly."""
    directory = rows.tobytes()
    if string_bytes is None:
        string_bytes = store_format._pack_strings(strings)
    raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        bytes(body) + directory + string_bytes + raw
        + store_format._TAIL.pack(
            len(body), len(directory), len(string_bytes), len(raw), b"RCL3"
        )
    )


def _first_column(footer: dict, kind: str, name: str | None = None) -> dict:
    """Footer entry of the first non-empty column of ``kind`` (and name)."""
    for table in footer["tables"].values():
        for col in table["columns"]:
            if col["kind"] == kind and col["count"] and name in (None, col["name"]):
                return col
    raise AssertionError(f"no non-empty {kind} column {name or ''} to corrupt")


def _first_row(
    rows: np.ndarray, strings: list[str], kind: str, name: str | None = None
) -> int:
    """Directory row of the first non-empty column of ``kind`` (and name)."""
    code = store_format.KINDS.index(kind)
    for i, row in enumerate(rows):
        if (
            row["kind"] == code and row["count"]
            and name in (None, strings[row["name"]])
        ):
            return i
    raise AssertionError(f"no non-empty {kind} column {name or ''} to corrupt")


def _bad_magic(path) -> None:
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTRCOL!"
    path.write_bytes(bytes(data))


def _truncate_payload_v2(path) -> None:
    """Drop the last byte of one f8 column; the footer stays consistent."""
    body, footer = split_rcol(path)
    col = _first_column(footer, "f8")
    end = col["offset"] + col["nbytes"]
    del body[end - 1]
    for table in footer["tables"].values():
        for other in table["columns"]:
            if other["offset"] >= end:
                other["offset"] -= 1
    col["nbytes"] -= 1
    join_rcol(path, body, footer)


def _garbage_footer_v2(path) -> None:
    """Overwrite the footer bytes in place; the tail still points at them."""
    data = bytearray(path.read_bytes())
    offset, length, _ = _RCOL_TAIL.unpack(data[-_RCOL_TAIL.size:])
    data[offset: offset + length] = b"\xff" * length
    path.write_bytes(bytes(data))


def _dict_code_out_of_range_v2(path) -> None:
    """Point the first code of an operator column past its dictionary."""
    body, footer = split_rcol(path)
    col = _first_column(footer, "dict", "operator")
    assert col["width"] == 1
    # An RLE stream starts with a u4 run length, then the first code.
    first = col["offset"] + (4 if col["codec"] == "rle" else 0)
    body[first] = len(col["values"])
    join_rcol(path, body, footer)


def _unknown_enum_member_v2(path) -> None:
    body, footer = split_rcol(path)
    col = _first_column(footer, "dict", "operator")
    col["values"][0] = "NOT_AN_OPERATOR"
    join_rcol(path, body, footer)


#: Ways to corrupt one version 2 ``.rcol`` file, each of which the reader
#: must reject with a ``StoreError``.
RCOL_V2_CORRUPTIONS = {
    "truncated_payload": _truncate_payload_v2,
    "bad_magic": _bad_magic,
    "garbage_footer": _garbage_footer_v2,
    "dict_code_out_of_range": _dict_code_out_of_range_v2,
    "unknown_enum_member": _unknown_enum_member_v2,
}


def _edit_rows(edit):
    """A corruption that edits the directory rows of a format 3 file."""
    def corrupt(path) -> None:
        body, rows, strings, meta = split_rcol3(path)
        edit(body, rows, strings)
        join_rcol3(path, body, rows, strings, meta)
    corrupt.__doc__ = edit.__doc__
    return corrupt


@_edit_rows
def _truncate_payload(body, rows, strings) -> None:
    """Drop the last byte of one f8 column; the directory stays framed."""
    i = _first_row(rows, strings, "f8")
    end = int(rows["offset"][i] + rows["nbytes"][i])
    del body[end - 1]
    rows["offset"][rows["offset"] >= end] -= 1
    rows["nbytes"][i] -= 1


def _garbage_directory(path) -> None:
    """Overwrite the column directory in place; the tail still frames it."""
    data = bytearray(path.read_bytes())
    data_end, n_dir, *_ = store_format._TAIL.unpack(
        data[-store_format._TAIL.size:]
    )
    data[data_end: data_end + n_dir] = b"\xff" * n_dir
    path.write_bytes(bytes(data))


@_edit_rows
def _dict_code_out_of_range(body, rows, strings) -> None:
    """Point the first code of an operator column past its dictionary."""
    i = _first_row(rows, strings, "dict", "operator")
    assert rows["width"][i] == 1
    # An RLE stream starts with a u4 run length, then the first code.
    first = int(rows["offset"][i]) + (4 if rows["codec"][i] else 0)
    body[first] = int(rows["n_values"][i])


@_edit_rows
def _unknown_enum_member(body, rows, strings) -> None:
    i = _first_row(rows, strings, "dict", "operator")
    strings[rows["values_at"][i]] = "NOT_AN_OPERATOR"


@_edit_rows
def _span_past_data_section(body, rows, strings) -> None:
    """A column's bytes start at the end of the data section."""
    rows["offset"][_first_row(rows, strings, "f8")] = len(body)


@_edit_rows
def _string_index_past_strings(body, rows, strings) -> None:
    rows["name"][0] = len(strings)


@_edit_rows
def _unknown_kind_code(body, rows, strings) -> None:
    rows["kind"][0] = len(store_format.KINDS)


@_edit_rows
def _unknown_codec_code(body, rows, strings) -> None:
    rows["codec"][0] = len(store_format.CODECS)


@_edit_rows
def _duplicate_column_name(body, rows, strings) -> None:
    """The second column of the first table takes the first one's name."""
    assert rows["table"][0] == rows["table"][1]
    rows["name"][1] = rows["name"][0]


def _directory_length_disagrees_with_tail(path) -> None:
    """The tail moves one byte from the string section to the directory,
    so the parts still add up to the file size."""
    data = bytearray(path.read_bytes())
    tail = store_format._TAIL
    data_end, n_dir, n_str, n_meta, magic = tail.unpack(data[-tail.size:])
    data[-tail.size:] = tail.pack(data_end, n_dir + 1, n_str - 1, n_meta, magic)
    path.write_bytes(bytes(data))


def _invalid_utf8_string(path) -> None:
    """The last byte of the string section (inside the last string) is
    0xff, which no UTF-8 text holds."""
    body, rows, strings, meta = split_rcol3(path)
    packed = store_format._pack_strings(strings)
    join_rcol3(path, body, rows, strings, meta, string_bytes=packed[:-1] + b"\xff")


#: Ways to corrupt one ``.rcol`` file as the current writer writes it,
#: each of which the reader must reject with a ``StoreError``.
RCOL_CORRUPTIONS = {
    "truncated_payload": _truncate_payload,
    "bad_magic": _bad_magic,
    "garbage_footer": _garbage_directory,
    "dict_code_out_of_range": _dict_code_out_of_range,
    "unknown_enum_member": _unknown_enum_member,
    "span_past_data_section": _span_past_data_section,
    "string_index_past_strings": _string_index_past_strings,
    "unknown_kind_code": _unknown_kind_code,
    "unknown_codec_code": _unknown_codec_code,
    "duplicate_column_name": _duplicate_column_name,
    "directory_length_disagrees_with_tail": _directory_length_disagrees_with_tail,
    "invalid_utf8_string": _invalid_utf8_string,
}
