"""Differential testing: every statistic against its row-object oracle.

Each registered statistic is one function over the query kernels, and it
must give the value the straight loop over record objects gives
(:mod:`tests.row_oracle`) on every kind of source:

* a :class:`~repro.campaign.dataset.DriveDataset` built from records;
* one read back from a store file;
* a store file's :class:`~repro.store.format.DatasetReader`;
* a two-partition :class:`~repro.store.catalog.Catalog`, queried with
  ``seeds=`` one seed at a time.

Datasets are seeded-random (NaN/±inf floats, random enums, occasionally
empty tables).  One parametrized test covers the whole registry, so a new
statistic is enrolled automatically once its oracle is written.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.campaign.dataset import DriveDataset
from repro.store import Catalog
from repro.store.format import DatasetReader, read_dataset, write_dataset
from repro.sweep.stats import (
    evaluate_statistics,
    get_statistic,
    registered_statistics,
)
from tests import row_oracle
from tests.test_store_properties import _random_dataset

#: Seeds for the randomized differential datasets.  Three draws plus the
#: mostly-empty case below keep the runtime small while varying the enum
#: mix, NaN placement, and table sizes across cases.
CASE_SEEDS = (0, 1, 2)


def _same(got: float, want: float) -> bool:
    """Exactly equal, NaN equal to NaN."""
    return math.isnan(got) and math.isnan(want) or got == want


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """Per random dataset: the dataset (row oracle input) and the four
    sources as ``(label, source, seeds)``."""
    tmp = tmp_path_factory.mktemp("differential")
    built = [_random_dataset(random.Random(seed)) for seed in CASE_SEEDS]
    # Degenerate case: nearly everything empty, so statistics that divide
    # by a count exercise their NaN path through every source.
    built.append(
        _random_dataset(
            random.Random(99),
            empty_tables=frozenset(
                ("tput", "rtt", "ho", "passive", "offload", "video", "gaming")
            ),
        )
    )
    # Pair the datasets into two-partition catalogs with distinct seeds.
    for i in range(1, len(built), 2):
        if built[i].seed == built[i - 1].seed:
            built[i].seed += 1
    readers, catalogs, opened = [], [], []
    for i, dataset in enumerate(built):
        path = tmp / f"case-{i}.rcol"
        write_dataset(dataset, path)
        readers.append(DatasetReader(path))
        if i % 2 == 0:
            catalogs.append(Catalog(tmp / f"catalog-{i // 2}"))
        catalogs[-1].ingest(dataset)
        sources = [
            ("dataset", dataset, None),
            ("read-back dataset", read_dataset(path), None),
            ("reader", readers[-1], None),
            ("catalog", catalogs[-1], (dataset.seed,)),
        ]
        opened.append((dataset, sources))
    yield opened
    for reader in readers:
        reader.close()
    for catalog in catalogs:
        catalog.close()


def test_registry_coverage():
    """The differential sweep below must cover a real registry, not a stub."""
    names = registered_statistics()
    assert len(names) == 26
    assert list(names) == list(row_oracle.STATISTICS)


@pytest.mark.parametrize("name", registered_statistics())
def test_row_and_store_paths_agree(name, cases):
    stat = get_statistic(name)
    for i, (dataset, sources) in enumerate(cases):
        want = row_oracle.evaluate(dataset, name)
        for label, source, seeds in sources:
            got = stat.evaluate(source, seeds)
            assert _same(got, want), f"{name} on case {i}, {label}"


def test_batch_evaluation_matches_per_name(cases):
    """Evaluating the whole registry at once equals one-by-one evaluation."""
    dataset, sources = cases[0]
    want = row_oracle.statistics(dataset)
    for label, source, seeds in sources:
        got = evaluate_statistics(source, seeds=seeds)
        assert list(got) == list(want), label
        for name in want:
            assert _same(got[name], want[name]), f"{name} on {label}"


def test_unselected_seed_selects_nothing(cases):
    """``seeds=`` that excludes a reader's seed filters every statistic,
    the metadata totals included: all equal the oracle on an empty dataset."""
    dataset, sources = cases[0]
    empty = DriveDataset(
        seed=dataset.seed, scale=dataset.scale,
        route_length_km=dataset.route_length_km,
    )
    want = row_oracle.statistics(empty)
    assert want["unique_cells_total"] == want["passive_handovers_total"] == 0.0
    absent = dataset.seed + 1
    for label, source, _ in sources:
        assert absent not in getattr(source, "seeds", ()), label
        got = evaluate_statistics(source, seeds=(absent,))
        for name in want:
            assert _same(got[name], want[name]), f"{name} on {label}"
