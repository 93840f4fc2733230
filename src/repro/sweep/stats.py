"""Paper statistics over replicated datasets: registry + bootstrap CIs.

The paper reports single-drive point estimates; a sweep replicates the
campaign across seeds and turns every headline number into a distribution.
This module holds the two halves of that aggregation:

* a **registry of paper statistics** — named scalar functionals (coverage
  fractions, throughput/RTT percentiles, handover rates, app QoE
  summaries), each tied to the figure/table it reproduces.  Each is one
  function ``fn(source, seeds)`` over the query kernels of
  :mod:`repro.store.query`, so the same implementation evaluates an
  in-memory :class:`~repro.campaign.dataset.DriveDataset`, a store file's
  :class:`~repro.store.format.DatasetReader` or a whole
  :class:`~repro.store.catalog.Catalog`, with ``seeds`` selecting
  partitions.  Downstream users can :func:`register_statistic` their own;
* a **seed-level aggregator** that evaluates each statistic once per seed
  and summarises the per-seed values as mean/median/std plus a
  **percentile-bootstrap confidence interval** on the mean (resampling
  seeds with replacement — the seed, not the sample, is the replication
  unit, so within-seed correlation never narrows the interval).

Statistics are evaluated defensively: a statistic that cannot be computed
on some seed's data (e.g. app QoE on an ``include_apps=False`` campaign)
yields ``NaN`` for that seed and is aggregated over the seeds that do have
it; statistics with no finite value anywhere are reported as skipped.

Bootstrap resampling is deterministic: the RNG is seeded from the statistic
name, so the same sweep always emits bit-identical intervals.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.analysis import coverage
from repro.analysis.handovers import handovers_per_mile
from repro.errors import ReproError, SweepError
from repro.radio.operators import Operator
from repro.store.query import Between, Eq, Source, count, partitions, percentile

__all__ = [
    "PaperStatistic",
    "StatisticSummary",
    "bootstrap_ci",
    "evaluate_statistics",
    "get_statistic",
    "register_statistic",
    "registered_statistics",
    "summarize_statistic",
    "unregister_statistic",
]

#: Scalar functional of a query source: ``fn(source, seeds)``, where
#: ``seeds`` (``None``: all) selects the source's partitions.
StatisticFn = Callable[[Source, tuple[int, ...] | None], float]


@dataclass(frozen=True)
class PaperStatistic:
    """One registered statistic: a named scalar view of a query source."""

    name: str
    description: str
    unit: str
    fn: StatisticFn

    def evaluate(
        self, source: Source, seeds: tuple[int, ...] | None = None
    ) -> float:
        """Evaluate on a source's selected partitions; ``NaN`` when not
        computable there."""
        try:
            value = float(self.fn(source, seeds))
        except (ReproError, ValueError, ZeroDivisionError):
            return math.nan
        return value if math.isfinite(value) else math.nan


_REGISTRY: dict[str, PaperStatistic] = {}


def register_statistic(
    name: str, description: str, unit: str, fn: StatisticFn
) -> PaperStatistic:
    """Add a statistic to the registry; names must be unique."""
    if name in _REGISTRY:
        raise SweepError(f"statistic {name!r} already registered")
    stat = PaperStatistic(name=name, description=description, unit=unit, fn=fn)
    _REGISTRY[name] = stat
    return stat


def unregister_statistic(name: str) -> None:
    """Remove a statistic (mainly for tests adding temporary ones)."""
    _REGISTRY.pop(name, None)


def registered_statistics() -> tuple[str, ...]:
    """All registered statistic names, in registration order."""
    return tuple(_REGISTRY)


def get_statistic(name: str) -> PaperStatistic:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SweepError(
            f"unknown statistic {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def evaluate_statistics(
    source: Source,
    names: Iterable[str] | None = None,
    *,
    seeds: tuple[int, ...] | None = None,
) -> dict[str, float]:
    """Evaluate the named (default: all) statistics on a query source — a
    dataset, a store file's reader or a catalog — over the partitions
    ``seeds`` selects (default: all)."""
    chosen = registered_statistics() if names is None else tuple(names)
    return {name: get_statistic(name).evaluate(source, seeds) for name in chosen}


# Earlier names, kept for existing importers: the store evaluator is the
# one evaluator, and every statistic is evaluable on a store.
evaluate_statistics_from_store = evaluate_statistics


def store_supported_statistics() -> tuple[str, ...]:
    """Every registered statistic (each one runs on any query source)."""
    return registered_statistics()


# -- aggregation across seeds ------------------------------------------------


def _stat_rng(name: str) -> np.random.Generator:
    """Deterministic bootstrap RNG derived from the statistic name."""
    digest = hashlib.sha256(f"repro.sweep.stats:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def bootstrap_ci(
    values: np.ndarray,
    confidence: float = 0.95,
    n_boot: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile-bootstrap CI on the mean of ``values``.

    Resamples the values with replacement ``n_boot`` times and returns the
    ``(1±confidence)/2`` percentiles of the resampled means.  A single
    value carries no replication information, so the interval is
    ``(NaN, NaN)`` — a zero-width interval at the value would claim perfect
    certainty the data cannot support.
    """
    if not 0.0 < confidence < 1.0:
        raise SweepError(f"confidence must be in (0, 1), got {confidence}")
    if n_boot < 1:
        raise SweepError(f"n_boot must be >= 1, got {n_boot}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise SweepError("bootstrap requires a non-empty finite sample")
    if arr.size == 1:
        return math.nan, math.nan
    rng = rng or np.random.default_rng(0)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _round6(value: float) -> float | None:
    """JSON form of one summary float: ``None`` stands in for non-finite.

    ``json.dumps`` would otherwise emit bare ``NaN`` — a token strict JSON
    parsers reject — so single-seed summaries (``std``/CI are ``NaN`` by
    construction) would serialise to documents other tools cannot read.
    """
    return round(value, 6) if math.isfinite(value) else None


def _from_nullable(value) -> float:
    """Inverse of :func:`_round6`: ``None`` parses back to ``NaN``."""
    return math.nan if value is None else float(value)


@dataclass(frozen=True)
class StatisticSummary:
    """Cross-seed summary of one statistic, CI included.

    With a single contributing seed, ``std``/``ci_low``/``ci_high`` are
    ``NaN``: one replication cannot bound its own dispersion, and a
    zero-width interval would read as false certainty downstream.
    """

    name: str
    description: str
    unit: str
    confidence: float
    n_boot: int
    #: Seeds with a finite value, ascending, aligned with ``values``.
    seeds: tuple[int, ...]
    values: tuple[float, ...]
    mean: float
    median: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "unit": self.unit,
            "confidence": self.confidence,
            "n_boot": self.n_boot,
            "seeds": list(self.seeds),
            "values": [round(v, 6) for v in self.values],
            "mean": round(self.mean, 6),
            "median": round(self.median, 6),
            "std": _round6(self.std),
            "ci_low": _round6(self.ci_low),
            "ci_high": _round6(self.ci_high),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "StatisticSummary":
        """Parse the JSON form; unknown fields are ignored.

        The statistic's identity (name/seeds/values) and the interval are
        required; descriptive fields written by a newer schema version may
        be absent and fall back to defaults.
        """
        return cls(
            name=str(obj["name"]),
            description=str(obj.get("description", "")),
            unit=str(obj.get("unit", "")),
            confidence=float(obj.get("confidence", 0.95)),
            n_boot=int(obj.get("n_boot", 0)),
            seeds=tuple(int(s) for s in obj["seeds"]),
            values=tuple(float(v) for v in obj["values"]),
            mean=float(obj["mean"]),
            median=float(obj.get("median", obj["mean"])),
            std=_from_nullable(obj.get("std", 0.0)),
            ci_low=_from_nullable(obj["ci_low"]),
            ci_high=_from_nullable(obj["ci_high"]),
        )


def summarize_statistic(
    name: str,
    values_by_seed: Mapping[int, float],
    confidence: float = 0.95,
    n_boot: int = 1000,
) -> StatisticSummary | None:
    """Aggregate one statistic's per-seed values; ``None`` if none finite."""
    stat = get_statistic(name)
    pairs = sorted(
        (seed, value)
        for seed, value in values_by_seed.items()
        if math.isfinite(value)
    )
    if not pairs:
        return None
    seeds = tuple(seed for seed, _ in pairs)
    arr = np.asarray([value for _, value in pairs], dtype=float)
    lo, hi = bootstrap_ci(arr, confidence, n_boot, rng=_stat_rng(name))
    return StatisticSummary(
        name=name,
        description=stat.description,
        unit=stat.unit,
        confidence=confidence,
        n_boot=n_boot,
        seeds=seeds,
        values=tuple(float(v) for v in arr),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        std=float(arr.std(ddof=1)) if arr.size > 1 else math.nan,
        ci_low=lo,
        ci_high=hi,
    )


# -- built-in paper statistics ----------------------------------------------

_DRIVING = Eq("static", False)


def _quantile_of(table: str, column: str, q: float, *where) -> StatisticFn:
    """Statistic: the ``q`` quantile of ``column`` over matching rows."""
    return lambda source, seeds: percentile(
        source, table, column, q, where, seeds=seeds
    )


def _below_5mbps(source: Source, seeds) -> float:
    driving_dl = (Eq("direction", "downlink"), _DRIVING)
    total = count(source, "tput", driving_dl, seeds=seeds)
    if total == 0:
        return math.nan
    below = Between("tput_mbps", hi=5.0, hi_inclusive=False)
    return count(source, "tput", (*driving_dl, below), seeds=seeds) / total


def _counter_total(counter: str) -> StatisticFn:
    """Statistic: a per-operator dataset counter summed over operators and
    over the selected partitions."""
    return lambda source, seeds: float(sum(
        sum(getattr(part, counter).values())
        for part in partitions(source, seeds=seeds)
    ))


def _register_builtins() -> None:
    for op in Operator:
        code = op.code
        of_op = Eq("operator", op)

        register_statistic(
            f"coverage_5g_share_{code}",
            f"{op.label} passive 5G coverage share of route miles (Fig. 1)",
            "fraction",
            lambda src, seeds, op=op: coverage.passive_coverage_shares(
                src, op, seeds=seeds
            ).share_5g,
        )
        register_statistic(
            f"coverage_hs5g_share_{code}",
            f"{op.label} high-speed 5G (midband+mmWave) share (Fig. 2a)",
            "fraction",
            lambda src, seeds, op=op: coverage.passive_coverage_shares(
                src, op, seeds=seeds
            ).share_high_speed_5g,
        )
        for direction in ("downlink", "uplink"):
            register_statistic(
                f"driving_{direction[0]}l_median_mbps_{code}",
                f"{op.label} driving {direction} median over 500 ms samples "
                "(Fig. 3b)",
                "Mbps",
                _quantile_of(
                    "tput", "tput_mbps", 0.5,
                    of_op, Eq("direction", direction), _DRIVING,
                ),
            )
        register_statistic(
            f"driving_rtt_median_ms_{code}",
            f"{op.label} driving RTT median over ping samples (Fig. 3c)",
            "ms",
            _quantile_of("rtt", "rtt_ms", 0.5, of_op, _DRIVING),
        )
        register_statistic(
            f"handovers_per_mile_median_{code}",
            f"{op.label} median handovers per mile over DL tests (Fig. 11a)",
            "HO/mile",
            lambda src, seeds, op=op: handovers_per_mile(
                src, op, "downlink", seeds=seeds
            ).median,
        )

    register_statistic(
        "driving_dl_below_5mbps_fraction",
        "Fraction of driving DL samples below 5 Mbps, all operators (§5.1)",
        "fraction",
        _below_5mbps,
    )
    register_statistic(
        "driving_rtt_p95_ms",
        "95th percentile driving RTT, all operators (Fig. 3c tail)",
        "ms",
        _quantile_of("rtt", "rtt_ms", 0.95, _DRIVING),
    )
    register_statistic(
        "unique_cells_total",
        "Distinct cells connected across all operators (Table 1)",
        "cells",
        _counter_total("connected_cells"),
    )
    register_statistic(
        "passive_handovers_total",
        "Trip-wide passive handover count across operators (Table 1)",
        "handovers",
        _counter_total("passive_handover_counts"),
    )
    register_statistic(
        "ar_e2e_median_ms",
        "Median AR offloading end-to-end latency while driving (Fig. 13)",
        "ms",
        _quantile_of("offload", "median_e2e_ms", 0.5, Eq("app", "AR"), _DRIVING),
    )
    register_statistic(
        "cav_e2e_median_ms",
        "Median CAV offloading end-to-end latency while driving (Fig. 14)",
        "ms",
        _quantile_of("offload", "median_e2e_ms", 0.5, Eq("app", "CAV"), _DRIVING),
    )
    register_statistic(
        "video_qoe_median",
        "Median 360° video QoE while driving (Fig. 15)",
        "QoE",
        _quantile_of("video", "qoe", 0.5, _DRIVING),
    )
    register_statistic(
        "gaming_bitrate_median_mbps",
        "Median cloud-gaming bitrate while driving (Fig. 16)",
        "Mbps",
        _quantile_of("gaming", "avg_bitrate_mbps", 0.5, _DRIVING),
    )


_register_builtins()
