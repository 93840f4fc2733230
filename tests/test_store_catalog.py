"""Partition catalog: ingest, pruning, replace semantics, and the CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.campaign.persistence import save_dataset
from repro.errors import StoreError
from repro.radio.operators import Operator
from repro.store import Catalog, Eq, QueryStats, query
from repro.store.__main__ import main as store_main


@pytest.fixture(scope="module")
def seeded_datasets(bare_dataset):
    """Three distinguishable 'seeds' without running three campaigns."""
    out = {}
    for i, seed in enumerate((7, 8, 9)):
        ds = copy.deepcopy(bare_dataset)
        ds.seed = seed
        # Shift marks so per-partition mark_m stats separate cleanly.
        offset = float(i) * 10_000_000.0
        ds.throughput_samples = [
            type(s)(**{**_fields(s), "mark_m": s.mark_m + offset})
            for s in ds.throughput_samples
        ]
        out[seed] = ds
    return out


def _fields(record):
    return {
        name: getattr(record, name) for name in record.__dataclass_fields__
    }


@pytest.fixture()
def catalog(seeded_datasets, tmp_path):
    with Catalog(tmp_path / "store") as cat:
        for seed, ds in seeded_datasets.items():
            cat.ingest(ds)
        yield cat


class TestIngest:
    def test_partitions_sorted_and_counted(self, catalog, seeded_datasets):
        assert catalog.seeds == (7, 8, 9)
        assert catalog.rows("tput") == sum(
            len(ds.throughput_samples) for ds in seeded_datasets.values()
        )

    def test_manifest_survives_reopen(self, catalog, tmp_path):
        reopened = Catalog(catalog.root)
        assert reopened.seeds == catalog.seeds
        assert [p.path for p in reopened.partitions] == [
            p.path for p in catalog.partitions
        ]

    def test_replace_same_seed(self, catalog, seeded_datasets):
        n_before = len(catalog.partitions)
        catalog.ingest(seeded_datasets[8])
        assert len(catalog.partitions) == n_before

    def test_labels_partition_same_seed(self, catalog, seeded_datasets):
        catalog.ingest(seeded_datasets[8], label="rerun")
        assert len([p for p in catalog.partitions if p.seed == 8]) == 2
        with pytest.raises(StoreError, match="invalid partition label"):
            catalog.ingest(seeded_datasets[8], label="../escape")

    def test_ingest_file_roundtrips_row_format(
        self, seeded_datasets, tmp_path
    ):
        src = tmp_path / "seed7.jsonl.gz"
        save_dataset(seeded_datasets[7], src)
        with Catalog(tmp_path / "cat2") as cat:
            info = cat.ingest_file(src)
            assert info.seed == 7
            assert cat.rows("tput") == len(
                seeded_datasets[7].throughput_samples
            )

    def test_version_mismatch_rejected(self, catalog):
        manifest = catalog.root / "catalog.json"
        obj = json.loads(manifest.read_text())
        obj["format"] = 99
        manifest.write_text(json.dumps(obj))
        with pytest.raises(StoreError, match="unsupported catalog format"):
            Catalog(catalog.root)

    @pytest.mark.parametrize("edit", [
        lambda obj: [obj],
        lambda obj: {**obj, "partitions": [
            {k: v for k, v in p.items() if k != "path"}
            for p in obj["partitions"]
        ]},
        lambda obj: {**obj, "partitions": [["not", "an", "object"]]},
        lambda obj: {**obj, "partitions": [{**obj["partitions"][0], "seed": "x"}]},
    ], ids=["array", "partition_without_path", "partition_array", "bad_seed"])
    def test_malformed_manifest_rejected(self, catalog, edit, capsys):
        manifest = catalog.root / "catalog.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        with pytest.raises(StoreError, match="unreadable catalog manifest"):
            Catalog(catalog.root)
        assert store_main(["inspect", str(catalog.root)]) == 1
        assert "store command failed" in capsys.readouterr().err


class TestPruning:
    def test_seed_restriction_skips_partitions(self, catalog):
        qstats = QueryStats()
        query.count(catalog, "tput", (), seeds=(7,), qstats=qstats)
        assert qstats.partitions_scanned == 1
        assert qstats.partitions_total == 3

    def test_manifest_stats_prune_before_open(self, catalog, seeded_datasets):
        # Partition seed=7 holds marks < 1e7; 8 and 9 are shifted above.
        qstats = QueryStats()
        n = query.count(
            catalog, "tput",
            (query.Between("mark_m", lo=9_999_999.0),),
            qstats=qstats,
        )
        assert qstats.partitions_pruned >= 1
        assert n == 2 * len(seeded_datasets[8].throughput_samples)

    def test_impossible_predicate_reads_zero_partitions(self, catalog):
        qstats = QueryStats()
        n = query.count(
            catalog, "tput", (Eq("direction", "sideways"),), qstats=qstats
        )
        assert n == 0
        assert qstats.partitions_scanned == 0
        assert qstats.partitions_pruned == 3

    def test_aggregation_spans_partitions(self, catalog, seeded_datasets):
        got = query.total(
            catalog, "tput", "tput_mbps",
            (Eq("operator", Operator.VERIZON),),
        )
        want = sum(
            s.tput_mbps
            for ds in seeded_datasets.values()
            for s in ds.throughput_samples
            if s.operator is Operator.VERIZON
        )
        assert got == pytest.approx(want)


class TestCli:
    def test_ingest_inspect_query(self, seeded_datasets, tmp_path, capsys):
        files = []
        for seed, ds in seeded_datasets.items():
            path = tmp_path / f"seed{seed}.jsonl.gz"
            save_dataset(ds, path)
            files.append(str(path))
        store = str(tmp_path / "store")

        assert store_main(["ingest", store, *files]) == 0
        out = capsys.readouterr().out
        assert out.count("ingested") == 3

        assert store_main(["inspect", store]) == 0
        out = capsys.readouterr().out
        assert "3 partitions" in out and "seeds [7, 8, 9]" in out

        assert store_main([
            "query", store, "--table", "tput", "--column", "tput_mbps",
            "--where", "operator=VERIZON", "--where", "static=false",
            "--agg", "p50", "--explain",
        ]) == 0
        captured = capsys.readouterr()
        assert "pushdown:" in captured.err
        float(captured.out.strip())  # a single numeric result

    def test_cli_errors_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert store_main(["inspect", missing]) == 1
        assert "store command failed" in capsys.readouterr().err

        (tmp_path / "store").mkdir()
        assert store_main([
            "query", str(tmp_path / "store"), "--table", "tput",
            "--where", "operator===x", "--agg", "count",
        ]) == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_ingest_malformed_dataset_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl.gz"
        bad.write_bytes(b"plain text, not a dataset\n")
        assert store_main(["ingest", str(tmp_path / "store"), str(bad)]) == 1
        assert "store command failed" in capsys.readouterr().err
