"""Shared fixtures.

The expensive fixtures are session-scoped: one small-but-complete campaign
dataset (apps + static baselines included) shared by all analysis tests,
one bare-bones dataset for tests that only need throughput/RTT records, and
a catalog of small driving-only campaigns over several seeds for the
paper-shape tests that one small campaign decides by a handful of zones.
The ``RCOL_CORRUPTIONS`` helpers damage a columnar store file in the ways
the shard-cache tests expect the reader to reject.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.geo.route import build_cross_country_route
from repro.store import Catalog


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

_RCOL_TAIL = struct.Struct("<QI4s")


def split_rcol(path) -> tuple[bytearray, dict]:
    """``(magic + column bytes, parsed footer)`` of a store file."""
    data = path.read_bytes()
    offset, length, _ = _RCOL_TAIL.unpack(data[-_RCOL_TAIL.size:])
    return bytearray(data[:offset]), json.loads(data[offset: offset + length])


def join_rcol(path, body: bytes, footer: dict) -> None:
    """Reassemble a store file whose tail agrees with ``body`` and footer."""
    raw = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        bytes(body) + raw + _RCOL_TAIL.pack(len(body), len(raw), b"RCOL")
    )


def _first_column(footer: dict, kind: str, name: str | None = None) -> dict:
    """Footer entry of the first non-empty column of ``kind`` (and name)."""
    for table in footer["tables"].values():
        for col in table["columns"]:
            if col["kind"] == kind and col["count"] and name in (None, col["name"]):
                return col
    raise AssertionError(f"no non-empty {kind} column {name or ''} to corrupt")


def _truncate_payload(path) -> None:
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


def _bad_magic(path) -> None:
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTRCOL!"
    path.write_bytes(bytes(data))


def _garbage_footer(path) -> None:
    """Overwrite the footer bytes in place; the tail still points at them."""
    data = bytearray(path.read_bytes())
    offset, length, _ = _RCOL_TAIL.unpack(data[-_RCOL_TAIL.size:])
    data[offset: offset + length] = b"\xff" * length
    path.write_bytes(bytes(data))


def _dict_code_out_of_range(path) -> None:
    """Point the first code of an operator column past its dictionary."""
    body, footer = split_rcol(path)
    col = _first_column(footer, "dict", "operator")
    assert col["width"] == 1
    # An RLE stream starts with a u4 run length, then the first code.
    first = col["offset"] + (4 if col["codec"] == "rle" else 0)
    body[first] = len(col["values"])
    join_rcol(path, body, footer)


def _unknown_enum_member(path) -> None:
    body, footer = split_rcol(path)
    col = _first_column(footer, "dict", "operator")
    col["values"][0] = "NOT_AN_OPERATOR"
    join_rcol(path, body, footer)


#: Ways to corrupt one ``.rcol`` file, each of which the reader must reject
#: with a ``StoreError``.
RCOL_CORRUPTIONS = {
    "truncated_payload": _truncate_payload,
    "bad_magic": _bad_magic,
    "garbage_footer": _garbage_footer,
    "dict_code_out_of_range": _dict_code_out_of_range,
    "unknown_enum_member": _unknown_enum_member,
}
