"""Dataset persistence: save/load a :class:`DriveDataset` to disk.

The paper's dataset is published as files [8]; an adopted open-source
release needs the same.  We serialise to gzipped JSON-lines — one record per
line, one section header per record family — which is diffable, streamable,
and keeps enum round-trips explicit.

Saves are **atomic** (written to a sibling temp file, then ``os.replace``'d
into place) so an interrupted save can never leave a truncated gzip behind,
and **byte-reproducible** (the gzip mtime field is pinned to zero) so equal
datasets serialise to equal bytes — both properties the engine's shard
checkpoints and determinism tests rely on.

Two on-disk backends share this API: the row-oriented gzipped JSON-lines
format here, and the columnar ``.rcol`` store format (:mod:`repro.store`)
optimised for analytical queries.  :func:`save_dataset` picks by the
``format=`` argument (``"auto"`` keys on the ``.rcol`` suffix);
:func:`load_dataset` sniffs the file's magic bytes, so callers never need
to know which backend wrote a file.  Both round-trip every record value
exactly, and a dataset read back from either saves to the same bytes.

JSON-lines stays the default here (the archival interchange format), but it
is not what the engine's shard cache and checkpoints store: those entries
are ``data.rcol`` columnar files (:mod:`repro.engine.checkpoint`), because
the columnar reader rebuilds a shard column by column, about twice as fast
as parsing one JSON line per record, at about twice the disk footprint.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import pathlib

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
from repro.errors import LogFormatError
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology

__all__ = ["save_dataset", "load_dataset", "FORMAT_VERSION"]

FORMAT_VERSION = 1

_OP = {op.name: op for op in Operator}
_TECH = {t.name: t for t in RadioTechnology}
_REGION = {r.name: r for r in RegionType}
_TZ = {tz.name: tz for tz in Timezone}
_KIND = {k.name: k for k in ServerKind}
_TEST_TYPE = {t.name: t for t in TestType}


def _cell_id_to_str(cid: CellId) -> str:
    return f"{cid.operator.name}:{cid.technology.name}:{cid.sequence}"


def _cell_id_from_str(text: str) -> CellId:
    op_name, tech_name, seq = text.split(":")
    return CellId(_OP[op_name], _TECH[tech_name], int(seq))


# -- per-record-family encoders/decoders --------------------------------------


def _tput_to_obj(s: ThroughputSample) -> dict:
    return {
        "tid": s.test_id, "op": s.operator.name, "dir": s.direction,
        "t": s.time_s, "m": s.mark_m, "v": s.speed_mph,
        "reg": s.region.name, "tz": s.timezone.name, "tech": s.tech.name,
        "rsrp": s.rsrp_dbm, "mcs": s.mcs, "bler": s.bler, "ca": s.n_ccs,
        "tput": s.tput_mbps, "srv": s.server_kind.name,
        "ho": s.ho_count, "st": s.static,
    }


def _tput_from_obj(o: dict) -> ThroughputSample:
    return ThroughputSample(
        test_id=o["tid"], operator=_OP[o["op"]], direction=o["dir"],
        time_s=o["t"], mark_m=o["m"], speed_mph=o["v"],
        region=_REGION[o["reg"]], timezone=_TZ[o["tz"]], tech=_TECH[o["tech"]],
        rsrp_dbm=o["rsrp"], mcs=o["mcs"], bler=o["bler"], n_ccs=o["ca"],
        tput_mbps=o["tput"], server_kind=_KIND[o["srv"]],
        ho_count=o["ho"], static=o["st"],
    )


def _rtt_to_obj(s: RttSample) -> dict:
    return {
        "tid": s.test_id, "op": s.operator.name, "t": s.time_s, "m": s.mark_m,
        "v": s.speed_mph, "reg": s.region.name, "tz": s.timezone.name,
        "tech": s.tech.name, "rtt": s.rtt_ms, "srv": s.server_kind.name,
        "st": s.static,
    }


def _rtt_from_obj(o: dict) -> RttSample:
    return RttSample(
        test_id=o["tid"], operator=_OP[o["op"]], time_s=o["t"], mark_m=o["m"],
        speed_mph=o["v"], region=_REGION[o["reg"]], timezone=_TZ[o["tz"]],
        tech=_TECH[o["tech"]], rtt_ms=o["rtt"], server_kind=_KIND[o["srv"]],
        static=o["st"],
    )


def _test_to_obj(t: TestRecord) -> dict:
    return {
        "tid": t.test_id, "type": t.test_type.name, "op": t.operator.name,
        "t0": t.start_time_s, "t1": t.end_time_s,
        "m0": t.start_mark_m, "m1": t.end_mark_m,
        "srv": t.server_kind.name, "st": t.static,
    }


def _test_from_obj(o: dict) -> TestRecord:
    return TestRecord(
        test_id=o["tid"], test_type=_TEST_TYPE[o["type"]], operator=_OP[o["op"]],
        start_time_s=o["t0"], end_time_s=o["t1"],
        start_mark_m=o["m0"], end_mark_m=o["m1"],
        server_kind=_KIND[o["srv"]], static=o["st"],
    )


def _ho_to_obj(h: HandoverRecord) -> dict:
    e = h.event
    return {
        "tid": h.test_id, "dir": h.direction, "op": e.operator.name,
        "t": e.time_s, "m": e.mark_m, "dur": e.duration_ms,
        "fc": _cell_id_to_str(e.from_cell), "tc": _cell_id_to_str(e.to_cell),
        "ft": e.from_tech.name, "tt": e.to_tech.name,
    }


def _ho_from_obj(o: dict) -> HandoverRecord:
    return HandoverRecord(
        test_id=o["tid"], direction=o["dir"],
        event=HandoverEvent(
            operator=_OP[o["op"]], time_s=o["t"], mark_m=o["m"],
            duration_ms=o["dur"],
            from_cell=_cell_id_from_str(o["fc"]), to_cell=_cell_id_from_str(o["tc"]),
            from_tech=_TECH[o["ft"]], to_tech=_TECH[o["tt"]],
        ),
    )


def _passive_to_obj(p: PassiveCoverageSegment) -> dict:
    return {
        "op": p.operator.name, "m0": p.start_m, "m1": p.end_m,
        "tech": p.tech.name, "tz": p.timezone.name, "reg": p.region.name,
    }


def _passive_from_obj(o: dict) -> PassiveCoverageSegment:
    return PassiveCoverageSegment(
        operator=_OP[o["op"]], start_m=o["m0"], end_m=o["m1"],
        tech=_TECH[o["tech"]], timezone=_TZ[o["tz"]], region=_REGION[o["reg"]],
    )


def _offload_to_obj(r: OffloadRunResult) -> dict:
    return {
        "app": r.app.name, "tid": r.test_id, "op": r.operator.name,
        "srv": r.server_kind.name, "comp": r.compression,
        "mean": r.mean_e2e_ms, "med": r.median_e2e_ms, "fps": r.offload_fps,
        "map": r.map_score, "ho": r.ho_count, "hs": r.frac_hs5g,
        "st": r.static, "mb": r.uplink_megabits,
    }


def _offload_from_obj(o: dict) -> OffloadRunResult:
    return OffloadRunResult(
        app=_TEST_TYPE[o["app"]], test_id=o["tid"], operator=_OP[o["op"]],
        server_kind=_KIND[o["srv"]], compression=o["comp"],
        mean_e2e_ms=o["mean"], median_e2e_ms=o["med"], offload_fps=o["fps"],
        map_score=o["map"], ho_count=o["ho"], frac_hs5g=o["hs"],
        static=o["st"], uplink_megabits=o["mb"],
    )


def _video_to_obj(r: VideoRunResult) -> dict:
    return {
        "tid": r.test_id, "op": r.operator.name, "srv": r.server_kind.name,
        "qoe": r.qoe, "br": r.avg_bitrate_mbps, "rb": r.rebuffer_ratio,
        "ho": r.ho_count, "hs": r.frac_hs5g, "st": r.static,
        "mb": r.downlink_megabits,
    }


def _video_from_obj(o: dict) -> VideoRunResult:
    return VideoRunResult(
        test_id=o["tid"], operator=_OP[o["op"]], server_kind=_KIND[o["srv"]],
        qoe=o["qoe"], avg_bitrate_mbps=o["br"], rebuffer_ratio=o["rb"],
        ho_count=o["ho"], frac_hs5g=o["hs"], static=o["st"],
        downlink_megabits=o["mb"],
    )


def _gaming_to_obj(r: GamingRunResult) -> dict:
    return {
        "tid": r.test_id, "op": r.operator.name, "srv": r.server_kind.name,
        "br": r.avg_bitrate_mbps, "lat": r.median_latency_ms,
        "p95": r.p95_latency_ms, "drop": r.frame_drop_rate,
        "ho": r.ho_count, "hs": r.frac_hs5g, "st": r.static,
        "mb": r.downlink_megabits,
    }


def _gaming_from_obj(o: dict) -> GamingRunResult:
    return GamingRunResult(
        test_id=o["tid"], operator=_OP[o["op"]], server_kind=_KIND[o["srv"]],
        avg_bitrate_mbps=o["br"], median_latency_ms=o["lat"],
        p95_latency_ms=o["p95"], frame_drop_rate=o["drop"],
        ho_count=o["ho"], frac_hs5g=o["hs"], static=o["st"],
        downlink_megabits=o["mb"],
    )


_SECTIONS = {
    "tput": ("throughput_samples", _tput_to_obj, _tput_from_obj),
    "rtt": ("rtt_samples", _rtt_to_obj, _rtt_from_obj),
    "test": ("tests", _test_to_obj, _test_from_obj),
    "ho": ("handovers", _ho_to_obj, _ho_from_obj),
    "passive": ("passive_coverage", _passive_to_obj, _passive_from_obj),
    "offload": ("offload_runs", _offload_to_obj, _offload_from_obj),
    "video": ("video_runs", _video_to_obj, _video_from_obj),
    "gaming": ("gaming_runs", _gaming_to_obj, _gaming_from_obj),
}


def save_dataset(
    dataset: DriveDataset,
    path: str | pathlib.Path,
    *,
    format: str = "auto",
) -> None:
    """Write a dataset to disk, atomically.

    ``format`` selects the backend: ``"jsonl"`` for gzipped JSON-lines,
    ``"columnar"`` for the :mod:`repro.store` columnar format, or ``"auto"``
    (the default), which writes columnar when ``path`` ends in ``.rcol``
    and JSON-lines otherwise.

    The file appears at ``path`` only once fully written and flushed:
    writes go to a unique ``.tmp`` sibling which is then ``os.replace``'d
    over the destination (atomic on POSIX).  A crash mid-save leaves any
    previous file at ``path`` untouched.
    """
    path = pathlib.Path(path)
    if format not in ("auto", "jsonl", "columnar"):
        raise ValueError(
            f"unknown dataset format {format!r}; use 'auto', 'jsonl', "
            "or 'columnar'"
        )
    if format == "columnar" or (
        format == "auto" and path.suffix == ".rcol"
    ):
        from repro.store.format import write_dataset

        write_dataset(dataset, path)
        return
    header = {
        "format": FORMAT_VERSION,
        "seed": dataset.seed,
        "scale": dataset.scale,
        "route_length_km": dataset.route_length_km,
        "passive_handover_counts": {
            op.name: n for op, n in dataset.passive_handover_counts.items()
        },
        "connected_cells": {op.name: n for op, n in dataset.connected_cells.items()},
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as raw:
            # mtime=0 and an empty FNAME pin the gzip header: identical
            # datasets produce identical bytes, enabling cheap equality
            # checks (the default embeds the temp file's name and mtime).
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                    fh.write(json.dumps({"kind": "header", **header}) + "\n")
                    for kind, (attr, encode, _decode) in _SECTIONS.items():
                        for record in getattr(dataset, attr):
                            fh.write(json.dumps({"kind": kind, **encode(record)}) + "\n")
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_dataset(path: str | pathlib.Path) -> DriveDataset:
    """Read a dataset written by :func:`save_dataset`, either backend.

    The backend is detected from the file's magic bytes, not its name, so
    renamed files still load.

    Raises
    ------
    LogFormatError
        On missing/invalid header or unknown record kinds/versions.
    StoreError
        On a truncated or corrupt columnar file.
    """
    path = pathlib.Path(path)
    from repro.store.format import is_store_file, read_dataset

    if is_store_file(path):
        return read_dataset(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        first = fh.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"not a dataset file: {path}") from exc
        if header.get("kind") != "header":
            raise LogFormatError("dataset file must start with a header record")
        if header.get("format") != FORMAT_VERSION:
            raise LogFormatError(
                f"unsupported dataset format {header.get('format')!r}"
            )
        dataset = DriveDataset(
            seed=header["seed"],
            scale=header["scale"],
            route_length_km=header["route_length_km"],
            passive_handover_counts={
                _OP[name]: n
                for name, n in header.get("passive_handover_counts", {}).items()
            },
            connected_cells={
                _OP[name]: n for name, n in header.get("connected_cells", {}).items()
            },
        )
        for line in fh:
            obj = json.loads(line)
            kind = obj.pop("kind", None)
            if kind not in _SECTIONS:
                raise LogFormatError(f"unknown record kind {kind!r}")
            attr, _encode, decode = _SECTIONS[kind]
            getattr(dataset, attr).append(decode(obj))
    return dataset
