"""Partition catalog: ingest, pruning, replace semantics, and the CLI."""

from __future__ import annotations

import copy
import hashlib
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

    def test_manifest_is_canonical_compact_json(self, catalog, seeded_datasets):
        manifest = catalog.root / "catalog.json"
        catalog.ingest(seeded_datasets[8], label="rerun")
        for _ in range(2):  # also after a replace, from a fresh catalog
            text = manifest.read_text()
            assert text == json.dumps(
                json.loads(text), sort_keys=True, separators=(",", ":")
            )
            with Catalog(catalog.root) as fresh:
                fresh.ingest(seeded_datasets[7])

    def test_indented_manifest_opens_and_is_rewritten_compact(
        self, catalog, seeded_datasets
    ):
        """A manifest of the earlier indented form reads the same, and the
        next ingest rewrites it compactly with equal content."""
        manifest = catalog.root / "catalog.json"
        content = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
        with Catalog(catalog.root) as old:
            assert old.partitions == catalog.partitions
            assert query.count(old, "tput", ()) == query.count(catalog, "tput", ())
            old.ingest(seeded_datasets[9])
        text = manifest.read_text()
        assert "\n" not in text
        assert json.loads(text) == content

    def test_ingest_encodes_only_its_own_entry(
        self, seeded_datasets, tmp_path, monkeypatch
    ):
        """Each ingest encodes the partition it writes and joins the kept
        encodings of the others, however many partitions the catalog holds."""
        from repro.store import catalog as catalog_module

        encoded = []
        encode = catalog_module._encode

        def counting(obj):
            if isinstance(obj, dict):
                encoded.append(obj["path"])
            return encode(obj)

        monkeypatch.setattr(catalog_module, "_encode", counting)
        ds = seeded_datasets[7]
        with Catalog(tmp_path / "store") as cat:
            for n in range(1, 7):
                encoded.clear()
                info = cat.ingest(ds, seed=n)
                assert encoded == [info.path]
            encoded.clear()
            info = cat.ingest(ds, seed=3)  # a replace, too
            assert encoded == [info.path]
        with Catalog(tmp_path / "store") as reopened:
            assert len(reopened.partitions) == 6
        assert (tmp_path / "store" / "catalog.json").read_text() == encode({
            "format": catalog_module.CATALOG_FORMAT_VERSION,
            "partitions": [p.to_obj() for p in reopened.partitions],
        })

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
        lambda obj: {**obj, "partitions": [
            {**obj["partitions"][0], "tables": {"tput": []}}
        ]},
        lambda obj: {**obj, "partitions": [
            {**obj["partitions"][0], "tables": {"tput": {"count": "x", "columns": {}}}}
        ]},
        lambda obj: {**obj, "partitions": [
            {**obj["partitions"][0], "source": 7, "sha256": "0" * 64}
        ]},
        lambda obj: {**obj, "partitions": [
            {**obj["partitions"][0], "source": "run", "sha256": ["0" * 64]}
        ]},
    ], ids=[
        "array", "partition_without_path", "partition_array", "bad_seed",
        "table_stats_array", "table_count_not_int", "source_not_string",
        "sha256_not_string",
    ])
    def test_malformed_manifest_rejected(self, catalog, edit, capsys):
        manifest = catalog.root / "catalog.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        with pytest.raises(StoreError, match="unreadable catalog manifest"):
            Catalog(catalog.root)
        assert store_main(["inspect", str(catalog.root)]) == 1
        assert "store command failed" in capsys.readouterr().err


def _file_state(path) -> tuple[int, int]:
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns


class TestSourcedIngest:
    """An ingest that names its source skips a partition it already holds
    when the file still hashes to the recorded digest, and writes otherwise."""

    def test_records_source_and_digest_of_written_bytes(
        self, seeded_datasets, tmp_path
    ):
        with Catalog(tmp_path / "store") as cat:
            info = cat.ingest(seeded_datasets[7], source="run-a")
        data = (tmp_path / "store" / info.path).read_bytes()
        assert info.source == "run-a"
        assert info.sha256 == hashlib.sha256(data).hexdigest()
        (entry,) = json.loads((tmp_path / "store" / "catalog.json").read_text())[
            "partitions"
        ]
        assert (entry["source"], entry["sha256"]) == ("run-a", info.sha256)
        with Catalog(tmp_path / "store") as reopened:
            assert reopened.partitions == (info,)

    def test_same_source_writes_nothing(self, seeded_datasets, tmp_path):
        root = tmp_path / "store"
        with Catalog(root) as cat:
            first = cat.ingest(seeded_datasets[7], source="run-a")
            before = _file_state(root / first.path), _file_state(root / "catalog.json")
            manifest = (root / "catalog.json").read_bytes()
            answers = _every_query_kind(cat)
            assert cat.ingest(seeded_datasets[7], source="run-a") is first
        with Catalog(root) as reopened:  # the digest is read back, too
            again = reopened.ingest(seeded_datasets[7], source="run-a")
            assert again == first
            assert (
                _file_state(root / first.path), _file_state(root / "catalog.json")
            ) == before
            assert (root / "catalog.json").read_bytes() == manifest
            assert _every_query_kind(reopened) == answers

    @pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
    def test_damaged_partition_is_rewritten(
        self, seeded_datasets, tmp_path, damage
    ):
        root = tmp_path / "store"
        with Catalog(root) as cat:
            info = cat.ingest(seeded_datasets[7], source="run-a")
        part = root / info.path
        cold = part.read_bytes()
        if damage == "flip":
            data = bytearray(cold)
            data[len(data) // 2] ^= 0x01
            part.write_bytes(bytes(data))
        elif damage == "truncate":
            part.write_bytes(cold[:-1])
        else:
            part.unlink()
        with Catalog(root) as cat:
            rewritten = cat.ingest(seeded_datasets[7], source="run-a")
        assert rewritten == info
        assert part.read_bytes() == cold

    def test_held_digest_still_sees_a_flipped_byte(
        self, seeded_datasets, tmp_path, monkeypatch
    ):
        """From its second check of a partition on, a process holds the
        digest beside the bytes it hashed: an unchanged file is compared,
        not hashed again, and a byte flipped in place (same size) is
        caught and rewritten."""
        from types import SimpleNamespace

        from repro.store import catalog as catalog_module

        root = tmp_path / "store"
        with Catalog(root) as cat:
            info = cat.ingest(seeded_datasets[7], source="run-a")
            for _ in range(2):
                assert cat.ingest(seeded_datasets[7], source="run-a") is info
            part = root / info.path
            cold = part.read_bytes()

            def no_hashing(*args):
                raise AssertionError("an unchanged partition was hashed again")

            with monkeypatch.context() as patch:
                patch.setattr(
                    catalog_module, "hashlib", SimpleNamespace(sha256=no_hashing)
                )
                assert cat.ingest(seeded_datasets[7], source="run-a") is info
            with open(part, "r+b") as fh:
                fh.seek(len(cold) // 2)
                fh.write(bytes([cold[len(cold) // 2] ^ 0x01]))
            assert part.read_bytes() != cold
            rewritten = cat.ingest(seeded_datasets[7], source="run-a")
        assert rewritten == info
        assert part.read_bytes() == cold

    def test_other_source_or_no_provenance_rewrites(
        self, seeded_datasets, tmp_path
    ):
        root = tmp_path / "store"
        with Catalog(root) as cat:
            plain = cat.ingest(seeded_datasets[7])
            state = _file_state(root / plain.path)
            sourced = cat.ingest(seeded_datasets[7], source="run-a")
            assert _file_state(root / plain.path) != state
            state = _file_state(root / plain.path)
            other = cat.ingest(seeded_datasets[7], source="run-b")
            assert _file_state(root / plain.path) != state
        assert (plain.source, plain.sha256) == (None, None)
        assert other.source == "run-b" and other.sha256 == sourced.sha256

    def test_plain_ingest_drops_provenance_and_hashes_nothing(
        self, seeded_datasets, tmp_path, monkeypatch
    ):
        from types import SimpleNamespace

        from repro.store import catalog as catalog_module

        root = tmp_path / "store"
        with Catalog(root) as cat:
            cat.ingest(seeded_datasets[7], source="run-a")

            def no_hashing(*args):
                raise AssertionError("a plain ingest hashed")

            monkeypatch.setattr(
                catalog_module, "hashlib", SimpleNamespace(sha256=no_hashing)
            )
            plain = cat.ingest(seeded_datasets[7])
        assert (plain.source, plain.sha256) == (None, None)
        (entry,) = json.loads((root / "catalog.json").read_text())["partitions"]
        assert "source" not in entry and "sha256" not in entry


def _every_query_kind(catalog) -> str:
    """One answer of every ``repro.store.query`` kind, with the pushdown
    counters, as one comparable string."""
    verizon = (Eq("operator", Operator.VERIZON),)
    qstats = QueryStats()
    answers = {
        "count": query.count(catalog, "tput", verizon, qstats=qstats),
        "count_pruned": query.count(
            catalog, "tput", (query.Between("mark_m", 0.0, 5e6),), qstats=qstats
        ),
        "count_seed": query.count(catalog, "tput", seeds=(8,), qstats=qstats),
        "select": query.select(catalog, "tput", "tput_mbps", verizon, qstats=qstats),
        "select_members": query.select(catalog, "tput", "tech", verizon),
        "select_columns": query.select_columns(
            catalog, "rtt", ("rtt_ms", "operator"), verizon
        ),
        "select_rows": query.select_rows(catalog, "test", ("test_id", "test_type")),
        "total": query.total(catalog, "tput", "tput_mbps", verizon, qstats=qstats),
        "mean": query.mean(catalog, "rtt", "rtt_ms", qstats=qstats),
        "percentile": query.percentile(
            catalog, "tput", "tput_mbps", [0.1, 0.5, 0.9], verizon, qstats=qstats
        ),
        "cdf": query.cdf(catalog, "rtt", "rtt_ms", qstats=qstats).sorted_values,
        "group_total": query.group_total(
            catalog, "passive", "tech", "length_m", qstats=qstats
        ),
        "partitions": [r.seed for r in query.partitions(catalog, seeds=(7, 9))],
        "qstats": (
            qstats.partitions_scanned, qstats.partitions_pruned,
            qstats.columns_decoded, qstats.bytes_decoded, qstats.rows_matched,
        ),
    }
    return repr({
        k: v.tolist() if hasattr(v, "tolist") else
        [x.tolist() for x in v] if k == "select_columns" else v
        for k, v in answers.items()
    })


class TestMixedVersions:
    """Partitions a version 2 build wrote answer queries next to ones the
    current writer wrote exactly as an all-version-2 catalog does."""

    @staticmethod
    def _catalog(root, datasets, v2_seeds):
        from tests.store_v2 import write_dataset_v2

        catalog = Catalog(root)
        for seed, ds in datasets.items():
            info = catalog.ingest(ds)
            if seed in v2_seeds:  # the partition as a version 2 build wrote it
                write_dataset_v2(ds, root / info.path)
        return catalog

    def test_every_query_kind_agrees(self, seeded_datasets, tmp_path):
        answers = {}
        for name, v2_seeds in (
            ("all-v2", (7, 8, 9)), ("mixed", (8,)), ("all-v3", ()),
        ):
            with self._catalog(tmp_path / name, seeded_datasets, v2_seeds) as cat:
                versions = [cat.open(p).format_version for p in cat.partitions]
                assert versions.count(2) == len(v2_seeds), versions
                answers[name] = _every_query_kind(cat)
        assert answers["mixed"] == answers["all-v2"]
        assert answers["all-v3"] == answers["all-v2"]

    def test_inspect_prints_each_format(self, seeded_datasets, tmp_path, capsys):
        root = tmp_path / "mixed"
        with self._catalog(root, seeded_datasets, (8,)) as cat:
            v2_path = root / next(p.path for p in cat.partitions if p.seed == 8)
        assert store_main(["inspect", str(root)]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if ".rcol" in line
        ]
        assert [line.endswith("format 2") for line in lines] == [False, True, False]
        assert all(line.endswith("format 3") for line in lines[::2])
        assert store_main(["inspect", str(v2_path)]) == 0
        assert capsys.readouterr().out.startswith("format 2 ")


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
