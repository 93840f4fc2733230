"""Parity: every table and figure against its row twin.

Each function of the figure pipeline — Table 1, Table 2, Figs. 1, 4–16 and
the §8 extensions — runs on the query kernels of :mod:`repro.store.query`.
Its row twin in :mod:`tests.row_oracle` is the loop over record objects it
replaced.  The two must agree exactly (every float bit for bit, every
container type and dict order) on

* the session fixture and an engine-merged dataset, each also through a
  :class:`~repro.store.format.DatasetReader` of its ``.rcol`` file;
* the randomized datasets of :mod:`tests.test_parity_differential`
  (NaN/±inf floats, random enums, empty tables), built from records,
  through the same two sources and read back.

A function that raises must raise the same error on every source.  A last
test checks that the figure pipeline builds no record rows.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import math
import random
import struct
from unittest import mock

import numpy as np
import pytest

from repro.analysis import (
    apps,
    compare,
    correlation,
    coverage,
    geodiversity,
    handovers,
    longterm,
    multivariate,
    opdiversity,
    performance,
    recommendations,
)
from repro.campaign.dataset import RECORD_FAMILIES
from repro.campaign.runner import CampaignConfig
from repro.campaign.tests import TestType
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.net import multipath
from repro.net.multipath import MultipathScheduler
from repro.net.servers import ServerKind
from repro.policy import inference
from repro.radio.operators import Operator
from repro.reporting.figures import figure_series
from repro.store.columnar import ColumnTable
from repro.store.format import DatasetReader, read_dataset, write_dataset
from repro.xcal import export
from tests import row_oracle
from tests.test_parity_differential import CASE_SEEDS
from tests.test_store_properties import _random_dataset

OPS = tuple(Operator)
DIRS = ("downlink", "uplink")
BY_OP = [(op,) for op in OPS]
BY_OP_DIR = [(op, d) for op in OPS for d in DIRS]

#: Library function, its row twin, and the argument tuples (after the
#: source) each is called with.
FUNCTIONS = {
    "handover_durations": (
        handovers.handover_durations, row_oracle.handover_durations,
        [*BY_OP, *BY_OP_DIR],
    ),
    "handover_type_distribution": (
        handovers.handover_type_distribution,
        row_oracle.handover_type_distribution, [(), *BY_OP],
    ),
    "handover_impact": (
        handovers.handover_impact, row_oracle.handover_impact, BY_OP_DIR,
    ),
    "per_test_throughput_stats": (
        longterm.per_test_throughput_stats,
        row_oracle.per_test_throughput_stats, BY_OP_DIR,
    ),
    "per_test_rtt_stats": (
        longterm.per_test_rtt_stats, row_oracle.per_test_rtt_stats, BY_OP,
    ),
    "throughput_vs_hs5g_fraction": (
        longterm.throughput_vs_hs5g_fraction,
        row_oracle.throughput_vs_hs5g_fraction, BY_OP_DIR,
    ),
    "rtt_vs_hs5g_fraction": (
        longterm.rtt_vs_hs5g_fraction, row_oracle.rtt_vs_hs5g_fraction, BY_OP,
    ),
    "kpi_correlations": (
        correlation.kpi_correlations, row_oracle.kpi_correlations, BY_OP_DIR,
    ),
    "throughput_speed_scatter": (
        correlation.throughput_speed_scatter,
        row_oracle.throughput_speed_scatter, BY_OP_DIR,
    ),
    "rtt_speed_scatter": (
        correlation.rtt_speed_scatter, row_oracle.rtt_speed_scatter, BY_OP,
    ),
    "fit_throughput_model": (
        multivariate.fit_throughput_model, row_oracle.fit_throughput_model,
        BY_OP_DIR,
    ),
    "paired_throughput_differences": (
        opdiversity.paired_throughput_differences,
        row_oracle.paired_throughput_differences,
        [(a, b, d) for a, b in opdiversity.OPERATOR_PAIRS for d in DIRS],
    ),
    "multi_operator_gain": (
        opdiversity.multi_operator_gain, row_oracle.multi_operator_gain,
        [(d,) for d in DIRS],
    ),
    "simulate_multipath": (
        multipath.simulate_multipath, row_oracle.simulate_multipath,
        [(d, s) for d in DIRS for s in MultipathScheduler],
    ),
    "offload_app_report": (
        apps.offload_app_report, row_oracle.offload_app_report,
        [(op, app) for op in OPS for app in (TestType.AR, TestType.CAV)],
    ),
    "video_app_report": (
        apps.video_app_report, row_oracle.video_app_report, BY_OP,
    ),
    "gaming_app_report": (
        apps.gaming_app_report, row_oracle.gaming_app_report, BY_OP,
    ),
    "quantify_recommendations": (
        recommendations.quantify_recommendations,
        row_oracle.quantify_recommendations, [()],
    ),
    "route_technology_strip": (
        coverage.route_technology_strip, row_oracle.route_technology_strip,
        [(op, view) for op in OPS for view in ("passive", "active")],
    ),
    "estimate_idle_upgrade_rates": (
        inference.estimate_idle_upgrade_rates,
        row_oracle.estimate_idle_upgrade_rates, BY_OP,
    ),
    "estimate_ul_demotion_rate": (
        inference.estimate_ul_demotion_rate,
        row_oracle.estimate_ul_demotion_rate, BY_OP,
    ),
    "per_technology_throughput": (
        performance.per_technology_throughput,
        row_oracle.per_technology_throughput,
        [(op, d, k) for op, d in BY_OP_DIR for k in (None, *ServerKind)],
    ),
    "per_technology_rtt": (
        performance.per_technology_rtt, row_oracle.per_technology_rtt,
        [(op, k) for op in OPS for k in (None, *ServerKind)],
    ),
    "throughput_by_timezone": (
        geodiversity.throughput_by_timezone, row_oracle.throughput_by_timezone,
        BY_OP_DIR,
    ),
    "export_logs": (export.export_logs, row_oracle.export_logs, None),
}


#: Types whose ``repr`` is exact and tells them apart (``-0.0``, ``1`` vs
#: ``1.0``; every NaN reads ``nan``).
_SCALARS = (float, int, bool, str, type(None))


def canon(value):
    """A form of ``value`` whose ``==`` is exact equality: floats by their
    bits (any NaN equal to any NaN), arrays by dtype and bytes, and
    containers, dataclasses, dict order and types kept."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return ("object array", canon(value.tolist()))
        values = value.tolist() if value.dtype.kind == "f" else value.tobytes()
        return (value.dtype.str, value.shape, canon(values))
    if isinstance(value, np.generic):
        return (type(value).__name__, canon(value.item()))
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, tuple(
            (f.name, canon(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        ))
    if isinstance(value, dict):
        return ("dict", tuple((canon(k), canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        if all(type(v) in _SCALARS or isinstance(v, enum.Enum) for v in value):
            return repr(value)  # exact for these: floats repr round-trip
        return (type(value).__name__, tuple(canon(v) for v in value))
    return (type(value).__name__, value)


def outcome(fn, *args):
    """What a call gives: its canonical result, or the error it raises."""
    try:
        return canon(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raises", type(exc).__name__, str(exc))


@pytest.fixture(scope="module")
def engine_dataset():
    """An engine-merged dataset with apps and static tests (600 km
    windows: every figure has data).  Tests use shallow copies."""
    ds, _ = run_engine(EngineConfig(
        campaign=CampaignConfig(seed=7, scale=0.004),
        executor="serial",
        planner=PlannerParams(window_km=600.0),
    ))
    return ds


@pytest.fixture(scope="module")
def cases(tmp_path_factory, dataset, engine_dataset):
    """Per dataset: a label, the dataset the twins read, and the sources
    the library reads, as ``(label, source)``."""
    tmp = tmp_path_factory.mktemp("figure-parity")
    datasets = [
        ("fixture", dataset, "campaign dataset"),
        ("engine", copy.copy(engine_dataset), None),
        *(
            (f"random {seed}", _random_dataset(random.Random(seed)), "dataset")
            for seed in CASE_SEEDS
        ),
    ]
    out, readers = [], []
    for i, (label, ds, ds_label) in enumerate(datasets):
        path = tmp / f"case-{i}.rcol"
        write_dataset(ds, path)
        readers.append(DatasetReader(path))
        if ds_label is None:  # a copy of its own for the library
            sources = [("engine-merged dataset", copy.copy(engine_dataset))]
        else:
            sources = [(ds_label, ds)]
        sources.append(("reader", readers[-1]))
        if label.startswith("random"):  # cheap: read back too
            sources.append(("read-back dataset", read_dataset(path)))
        out.append((label, ds, sources))
    yield out
    for reader in readers:
        reader.close()


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_function_matches_row_twin(name, cases, route):
    fn, twin, argsets = FUNCTIONS[name]
    if argsets is None:  # export_logs, capped, as a full export is slow
        argsets = [(route, (TestType.RTT, TestType.DOWNLINK_THROUGHPUT), 30)]
    for label, ds, sources in cases:
        for args in argsets:
            want = outcome(twin, ds, *args)
            for source_label, source in sources:
                got = outcome(fn, source, *args)
                assert got == want, f"{name}{args} on {label}, {source_label}"


def test_compare_datasets_matches_row_twin(cases):
    datasets = [(label, ds, sources) for label, ds, sources in cases]
    for (label_a, a, sources_a), (label_b, b, sources_b) in zip(
        datasets, datasets[1:] + datasets[:1]
    ):
        want = outcome(row_oracle.compare_datasets, a, b)
        for (la, sa), (lb, sb) in zip(sources_a, sources_b):
            got = outcome(compare.compare_datasets, sa, sb)
            assert got == want, f"{label_a} ({la}) vs {label_b} ({lb})"


def test_table1_matches_row_twin(cases):
    """Table 1 and the byte totals: left folds in row order, also on the
    read-back dataset."""
    for label, ds, sources in cases:
        want = outcome(row_oracle.summary, ds)
        want_volume = outcome(row_oracle.data_volume_bytes, ds)
        for source_label, source in sources:
            if source_label == "reader":
                continue  # Table 1 is a dataset method
            assert outcome(source.summary) == want, (label, source_label)
            assert outcome(source.data_volume_bytes) == want_volume, (
                label, source_label,
            )


def test_figure_pipeline_builds_no_records(engine_dataset, route):
    """The figure and table pipeline reads every table of an
    engine-merged dataset as the columns it holds, and builds no record."""
    ds = copy.copy(engine_dataset)
    names = [family.table for family in RECORD_FAMILIES]
    for name in names:  # tables no record has been built from yet
        ds.set_table(copy.copy(ds.table(name)))
    tables = [ds.table(name) for name in names]
    with mock.patch.object(
        ColumnTable, "rows", side_effect=AssertionError("records built")
    ):
        figure_series(ds)
        correlation.correlation_table(ds)
        multivariate.multivariate_table(ds)
        recommendations.quantify_recommendations(ds)
        export.export_logs(ds, route)
        ds.summary()
    assert [ds.table(name) for name in names] == tables
