"""Benchmark fixtures: shared campaign, bench recorder, baseline gating.

The dataset is generated once per session at ``scale=0.12`` — roughly one
eighth of the paper's back-to-back test schedule, still covering the full
LA→Boston route, all four timezones, all ten static city baselines, and all
seven test types.

Every benchmark routes its timings through the session :class:`BenchRecorder`
(the ``bench`` fixture), which

* collects them as :class:`repro.bench.BenchResult` entries and writes one
  machine-readable ``benchmarks/_reports/BENCH_benchmarks.json`` at session
  end, next to the human-readable ``_reports/*.txt`` tables;
* replaces the old absolute thresholds with **baseline-relative gates**: when
  ``benchmarks/BENCH_baseline.json`` has an entry of the same name *and* the
  environment fingerprints match, the measured min may exceed the baseline's
  by at most a generous budget.  No baseline entry, or a different machine,
  means record-only — numbers are still written, never compared across
  incomparable environments.  Self-relative assertions (parallel speedup,
  traced/untraced factor, pushdown-vs-row) stay in the tests themselves.

Refresh the baseline with ``python -m repro.bench run`` plus a benchmark
session on the reference machine (see DESIGN.md).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench import BenchReport, BenchResult, environment_fingerprint
from repro.campaign.runner import CampaignConfig, DriveCampaign

REPORT_DIR = pathlib.Path(__file__).parent / "_reports"
BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_baseline.json"

#: Campaign scale used for all benchmarks.
BENCH_SCALE = 0.12
BENCH_SEED = 42

#: Baseline-relative budget: a benchmark may be at most this much slower
#: than the committed baseline before its gate fails.  Deliberately
#: generous — these gates catch order-of-magnitude rot (a hot path going
#: quadratic), not percent-level noise; ``python -m repro.bench gate``
#: applies the tighter budgets.
GATE_BUDGET = 2.0


class BenchRecorder:
    """Collects benchmark timings and gates them against the baseline."""

    def __init__(self) -> None:
        self.results: dict[str, BenchResult] = {}
        self.environment = environment_fingerprint()
        self._baseline: BenchReport | None = None
        if BASELINE_PATH.is_file():
            self._baseline = BenchReport.load(BASELINE_PATH)

    def record(
        self,
        name: str,
        timings_s,
        warmup: int = 0,
        counters: dict | None = None,
    ) -> BenchResult:
        """Store one benchmark's timing vector (seconds per repeat)."""
        result = BenchResult(
            name=name,
            warmup=warmup,
            repeats=len(timings_s),
            timings_s=tuple(float(t) for t in timings_s),
            counters=dict(counters or {}),
        )
        self.results[name] = result
        return result

    def comparable(self) -> bool:
        """Baseline present and measured on a matching environment."""
        return (
            self._baseline is not None
            and self._baseline.environment == self.environment
        )

    def gate(self, name: str, budget: float = GATE_BUDGET) -> None:
        """Assert ``name`` did not regress past ``budget`` vs the baseline.

        Record-only (no assertion) when there is no baseline, the
        environments differ, or the baseline has no entry of this name.
        """
        if not self.comparable():
            return
        base = self._baseline.results.get(name)
        if base is None:
            return
        current = self.results[name]
        ratio = current.min_s / base.min_s if base.min_s > 0 else 1.0
        assert ratio <= 1.0 + budget, (
            f"{name} regressed: {current.min_s * 1e3:.2f} ms vs baseline "
            f"{base.min_s * 1e3:.2f} ms ({ratio:.2f}x > {1 + budget:.2f}x)"
        )

    def save(self, path: pathlib.Path) -> None:
        report = BenchReport(
            suite="benchmarks",
            environment=self.environment,
            results=self.results,
        )
        path.parent.mkdir(exist_ok=True)
        report.save(path)


@pytest.fixture(scope="session")
def bench():
    recorder = BenchRecorder()
    yield recorder
    if recorder.results:
        recorder.save(REPORT_DIR / "BENCH_benchmarks.json")


@pytest.fixture(scope="session")
def campaign():
    c = DriveCampaign(CampaignConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    c.run()
    return c


@pytest.fixture(scope="session")
def dataset(campaign):
    return campaign._dataset


@pytest.fixture(scope="session")
def route(campaign):
    return campaign.route


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under ``benchmarks/_reports``."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(banner)


@pytest.fixture()
def report():
    return emit
