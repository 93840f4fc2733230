"""Dataset save/load round trip."""

import gzip
import json
import pathlib

import pytest

from repro.campaign.persistence import FORMAT_VERSION, load_dataset, save_dataset
from repro.errors import LogFormatError
from repro.radio.operators import Operator


@pytest.fixture(scope="module")
def saved(bare_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("persist") / "dataset.jsonl.gz"
    save_dataset(bare_dataset, path)
    return path, bare_dataset


class TestRoundTrip:
    def test_header_metadata(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert loaded.seed == original.seed
        assert loaded.scale == original.scale
        assert loaded.route_length_km == original.route_length_km
        assert loaded.passive_handover_counts == original.passive_handover_counts
        assert loaded.connected_cells == original.connected_cells

    def test_record_counts(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert len(loaded.throughput_samples) == len(original.throughput_samples)
        assert len(loaded.rtt_samples) == len(original.rtt_samples)
        assert len(loaded.tests) == len(original.tests)
        assert len(loaded.handovers) == len(original.handovers)
        assert len(loaded.passive_coverage) == len(original.passive_coverage)

    def test_sample_equality(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert loaded.throughput_samples[0] == original.throughput_samples[0]
        assert loaded.rtt_samples[-1] == original.rtt_samples[-1]
        assert loaded.tests[3] == original.tests[3]
        if original.handovers:
            assert loaded.handovers[0] == original.handovers[0]

    def test_analyses_agree(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        import numpy as np

        for op in Operator:
            a = original.tput_values(operator=op, direction="downlink")
            b = loaded.tput_values(operator=op, direction="downlink")
            assert np.allclose(a, b)

    def test_summary_agrees(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert loaded.summary().handovers == original.summary().handovers


class TestAppRunsRoundTrip:
    def test_app_records_preserved(self, dataset, tmp_path):
        path = tmp_path / "full.jsonl.gz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded.offload_runs) == len(dataset.offload_runs)
        assert len(loaded.video_runs) == len(dataset.video_runs)
        assert len(loaded.gaming_runs) == len(dataset.gaming_runs)
        assert loaded.offload_runs[0] == dataset.offload_runs[0]
        assert loaded.video_runs[0] == dataset.video_runs[0]
        assert loaded.gaming_runs[0] == dataset.gaming_runs[0]


class TestAtomicSave:
    def test_byte_reproducible(self, bare_dataset, tmp_path):
        a = tmp_path / "a.jsonl.gz"
        b = tmp_path / "b.jsonl.gz"
        save_dataset(bare_dataset, a)
        save_dataset(bare_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_overwrite_is_atomic(self, bare_dataset, tmp_path, monkeypatch):
        """A crash mid-write must leave an existing file untouched."""
        path = tmp_path / "dataset.jsonl.gz"
        save_dataset(bare_dataset, path)
        good = path.read_bytes()

        import repro.campaign.persistence as persistence

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(persistence.os, "fsync", boom)
        with pytest.raises(OSError):
            save_dataset(bare_dataset, path)
        assert path.read_bytes() == good

    def test_no_temp_file_left_behind(self, bare_dataset, tmp_path, monkeypatch):
        path = tmp_path / "dataset.jsonl.gz"
        import repro.campaign.persistence as persistence

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(persistence.os, "fsync", boom)
        with pytest.raises(OSError):
            save_dataset(bare_dataset, path)
        assert list(tmp_path.iterdir()) == []


_GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.jsonl.gz"


def _golden_lines() -> list[dict]:
    with gzip.open(_GOLDEN, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _gz(lines: list) -> bytes:
    return gzip.compress(
        "".join(json.dumps(obj) + "\n" for obj in lines).encode(), mtime=0
    )


def _edit_first(kind: str, edit) -> bytes:
    """The golden file with the first ``kind`` record passed through ``edit``."""
    lines = _golden_lines()
    edit(next(obj for obj in lines if obj["kind"] == kind))
    return _gz(lines)


#: Malformed JSON-lines files, each of which must load as LogFormatError.
MALFORMED = {
    "plain_text": lambda: b"this is not gzip at all\n",
    "truncated_gzip": lambda: _GOLDEN.read_bytes()[: _GOLDEN.stat().st_size // 2],
    "unknown_enum_name": lambda: _edit_first("tput", lambda o: o.update(op="NOPE")),
    "record_missing_field": lambda: _edit_first("rtt", lambda o: o.pop("rtt")),
    "header_missing_seed": lambda: _edit_first("header", lambda o: o.pop("seed")),
    "bad_record_json": lambda: gzip.compress(
        gzip.decompress(_GOLDEN.read_bytes()) + b"{not json\n", mtime=0
    ),
    "header_array": lambda: _gz([[1, 2, 3]]),
    "bad_cell_id": lambda: _edit_first("ho", lambda o: o.update(fc="VERIZON:LTE")),
    "non_positive_handover_duration": lambda: _edit_first(
        "ho", lambda o: o.update(dur=0.0)
    ),
    "infinite_integer_field": lambda: _edit_first("tput", lambda o: o.update(tid=1e999)),
    "integer_field_out_of_range": lambda: _edit_first(
        "rtt", lambda o: o.update(tid=10**20)
    ),
    "header_counts_not_object": lambda: _edit_first(
        "header", lambda o: o.update(connected_cells=[["VERIZON", 1]])
    ),
}

#: Cases the decoder rejects by checking the JSON shape, with no cause.
_REJECTED_BY_SHAPE = {"header_array", "header_counts_not_object"}


class TestErrorHandling:
    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "junk.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("this is not json\n")
        with pytest.raises(LogFormatError):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"kind": "tput"}) + "\n")
        with pytest.raises(LogFormatError):
            load_dataset(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "future.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({
                "kind": "header", "format": FORMAT_VERSION + 1,
                "seed": 0, "scale": 1.0, "route_length_km": 1.0,
            }) + "\n")
        with pytest.raises(LogFormatError):
            load_dataset(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "badkind.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({
                "kind": "header", "format": FORMAT_VERSION,
                "seed": 0, "scale": 1.0, "route_length_km": 1.0,
            }) + "\n")
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(LogFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_raises_log_format_error(self, case, tmp_path):
        path = tmp_path / f"{case}.jsonl.gz"
        path.write_bytes(MALFORMED[case]())
        with pytest.raises(LogFormatError) as info:
            load_dataset(path)
        # A wrapped failure keeps its cause chained for diagnosis.
        if case not in _REJECTED_BY_SHAPE:
            assert info.value.__cause__ is not None

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nowhere.jsonl.gz")


class TestColumnarBackend:
    """save/load dispatch to the columnar store backend transparently."""

    def test_auto_format_by_suffix(self, bare_dataset, tmp_path):
        from repro.store import is_store_file

        path = tmp_path / "dataset.rcol"
        save_dataset(bare_dataset, path)
        assert is_store_file(path)
        back = load_dataset(path)
        assert back.throughput_samples == bare_dataset.throughput_samples
        assert back.passive_coverage == bare_dataset.passive_coverage

    def test_explicit_format_overrides_suffix(self, bare_dataset, tmp_path):
        from repro.store import is_store_file

        path = tmp_path / "dataset.jsonl.gz"
        save_dataset(bare_dataset, path, format="columnar")
        assert is_store_file(path)
        # load_dataset sniffs magic, not the suffix, so this still loads.
        back = load_dataset(path)
        assert back.rtt_samples == bare_dataset.rtt_samples

    def test_unknown_format_rejected(self, bare_dataset, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset format"):
            save_dataset(bare_dataset, tmp_path / "x", format="parquet")

    def test_both_backends_value_identical(self, bare_dataset, tmp_path):
        row_path = tmp_path / "row.jsonl.gz"
        col_path = tmp_path / "col.rcol"
        save_dataset(bare_dataset, row_path, format="jsonl")
        save_dataset(bare_dataset, col_path, format="columnar")
        assert load_dataset(row_path) == load_dataset(col_path)
