"""Engine fault tolerance: retries, hard worker deaths, checkpoint resume.

Every recovery path must converge on the byte-identical dataset of a clean
run — fault tolerance may cost time, never correctness.
"""

import gzip
import json
from dataclasses import replace

import pytest

from tests.conftest import (
    ENGINE_CAMPAIGN,
    ENGINE_WINDOW_KM,
    RCOL_CORRUPTIONS,
    engine_dataset_bytes,
)
from repro.campaign.runner import CampaignConfig
from repro.engine import (
    EngineConfig,
    FaultSpec,
    PlannerParams,
    run_campaigns,
    run_engine,
)
from repro.engine.checkpoint import ShardCache, config_fingerprint
from repro.engine.planner import plan_campaign
from repro.errors import EngineError
from repro.geo.route import build_cross_country_route
from repro.obs.report import load_summary, validate_trace
from repro.obs.trace import iter_trace, reset_tracers

PLANNER = PlannerParams(window_km=ENGINE_WINDOW_KM)


def engine_config(**overrides):
    return EngineConfig(campaign=ENGINE_CAMPAIGN, planner=PLANNER, **overrides)


class TestRetries:
    def test_transient_fault_recovers(self, engine_baseline, tmp_path):
        _, base = engine_baseline
        ds, report = run_engine(
            engine_config(
                executor="serial",
                max_retries=2,
                inject_faults={1: FaultSpec(times=2, kind="raise")},
            )
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.total_retries >= 2

    def test_transient_fault_recovers_process(self, engine_baseline, tmp_path):
        """Soft (raised) worker faults must be retried under the pool too —
        not just hard deaths: a raise must never abort the whole run while
        retry budget remains."""
        _, base = engine_baseline
        ds, report = run_engine(
            engine_config(
                executor="process",
                workers=2,
                max_retries=2,
                inject_faults={1: FaultSpec(times=2, kind="raise")},
            )
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.total_retries >= 2
        if report.executor == "process":  # platform may lack process pools
            assert report.pool_rebuilds == 0

    def test_budget_exhaustion_raises(self):
        with pytest.raises(EngineError) as excinfo:
            run_engine(
                engine_config(
                    executor="serial",
                    max_retries=1,
                    inject_faults={2: FaultSpec(times=5, kind="raise")},
                )
            )
        assert excinfo.value.shard_index == 2

    def test_invalid_fault_spec(self):
        with pytest.raises(EngineError):
            FaultSpec(kind="segfault")
        with pytest.raises(EngineError):
            FaultSpec(times=0)


class TestWorkerDeath:
    def test_pool_rebuilt_after_hard_crash(self, engine_baseline, tmp_path):
        """A worker killed mid-shard (os._exit) must not poison the run."""
        _, base = engine_baseline
        ds, report = run_engine(
            engine_config(
                executor="process",
                workers=2,
                max_retries=2,
                inject_faults={2: FaultSpec(times=1, kind="exit")},
            )
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        if report.executor == "process":  # platform may lack process pools
            assert report.pool_rebuilds >= 1

    def test_exit_fault_degrades_to_raise_in_process(self, engine_baseline, tmp_path):
        """Under the serial executor the kill becomes a retryable raise."""
        _, base = engine_baseline
        ds, report = run_engine(
            engine_config(
                executor="serial",
                max_retries=1,
                inject_faults={0: FaultSpec(times=1, kind="exit")},
            )
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.total_retries >= 1


def checkpoint_cache(ckpt, campaign=ENGINE_CAMPAIGN, planner=PLANNER):
    """``(ShardCache over ckpt, fingerprint, every shard index)`` of a run."""
    route = build_cross_country_route()
    plan = plan_campaign(campaign, route, planner)
    indices = [w.index for w in plan.windows]
    return ShardCache(ckpt), config_fingerprint(campaign, plan, route), indices


def checkpointed(ckpt, campaign=ENGINE_CAMPAIGN, planner=PLANNER) -> set[int]:
    """Shard indices the checkpoint directory can replay for a run."""
    cache, fingerprint, indices = checkpoint_cache(ckpt, campaign, planner)
    return set(cache.load_many(fingerprint, campaign.seed, indices))


class TestCheckpointResume:
    """A checkpoint directory is a :class:`ShardCache`; these tests read it
    only through the cache API, never through its file layout."""

    def test_resume_after_failed_run(self, engine_baseline, tmp_path):
        _, base = engine_baseline
        ckpt = tmp_path / "ckpt"

        # First run dies on shard 3 with no retry budget, leaving windows
        # 0-2 checkpointed.
        with pytest.raises(EngineError):
            run_engine(
                engine_config(
                    executor="serial",
                    checkpoint_dir=str(ckpt),
                    max_retries=0,
                    inject_faults={3: FaultSpec(times=1, kind="raise")},
                )
            )
        stored = checkpointed(ckpt)
        assert {0, 1, 2} <= stored
        assert 3 not in stored

        # Second run resumes from the checkpoints and completes cleanly.
        ds, report = run_engine(
            engine_config(executor="serial", checkpoint_dir=str(ckpt))
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == len(stored)
        assert report.cache_hits < len(report.shards)

        # Third run is served fully from checkpoints.
        ds, report = run_engine(
            engine_config(executor="serial", checkpoint_dir=str(ckpt))
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == len(report.shards)

    def test_empty_checkpoint_dir_replays_nothing(self, tmp_path):
        assert checkpointed(tmp_path / "never-written") == set()
        assert checkpointed(tmp_path) == set()

    def test_foreign_fingerprint_ignored(self, engine_baseline, tmp_path):
        _, base = engine_baseline
        ckpt = tmp_path / "ckpt"
        other = CampaignConfig(
            seed=ENGINE_CAMPAIGN.seed + 1,
            scale=ENGINE_CAMPAIGN.scale,
            include_apps=False,
            include_static=False,
        )
        run_engine(
            EngineConfig(
                campaign=other, planner=PLANNER,
                executor="serial", checkpoint_dir=str(ckpt),
            )
        )
        # The directory holds the other seed's shards, and none of ours.
        assert checkpointed(ckpt, campaign=other)
        assert checkpointed(ckpt) == set()
        # Same directory, different seed: every shard must be recomputed
        # and the result must match the clean baseline.
        ds, report = run_engine(
            engine_config(executor="serial", checkpoint_dir=str(ckpt))
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == 0

    def test_changed_planner_window_invalidates(self, engine_baseline, tmp_path):
        """A different window decomposition changes the fingerprint, so
        checkpoints from the old decomposition must not be resumed — a
        window boundary shift silently reused would corrupt the merge."""
        _, base = engine_baseline
        ckpt = tmp_path / "ckpt"
        coarse = PlannerParams(window_km=ENGINE_WINDOW_KM * 2)
        run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                planner=coarse,
                executor="serial",
                checkpoint_dir=str(ckpt),
            )
        )
        assert checkpointed(ckpt, planner=coarse)
        assert checkpointed(ckpt) == set()
        ds, report = run_engine(
            engine_config(executor="serial", checkpoint_dir=str(ckpt))
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == 0

    def test_corrupt_checkpoint_recomputed(self, engine_baseline, tmp_path):
        _, base = engine_baseline
        ckpt = tmp_path / "ckpt"
        run_engine(engine_config(executor="serial", checkpoint_dir=str(ckpt)))

        cache, fingerprint, _ = checkpoint_cache(ckpt)

        def entry(index):
            return cache.entry_dir(
                cache.key(fingerprint, index, ENGINE_CAMPAIGN.seed)
            )

        (entry(1) / cache.DATA_NAME).write_bytes(b"not a gzip stream")
        with gzip.open(entry(2) / cache.DATA_NAME, "wb") as fh:
            fh.write(b'{"kind": "header"')  # truncated JSON
        (entry(0) / cache.META_NAME).write_text(
            json.dumps({"fingerprint": "bogus"})
        )
        assert not {0, 1, 2} & checkpointed(ckpt)

        ds, report = run_engine(
            engine_config(executor="serial", checkpoint_dir=str(ckpt))
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == len(report.shards) - 3

    def test_corrupt_store_files_recomputed(self, engine_baseline, tmp_path):
        """Damaged ``.rcol`` entries (a different kind on every other
        shard) are misses; the rerun recomputes those shards and nothing
        else.  Every kind is a miss in ``tests/test_sweep_cache.py``."""
        _, base = engine_baseline
        ckpt = tmp_path / "ckpt"
        run_engine(engine_config(executor="serial", checkpoint_dir=str(ckpt)))
        cache, fingerprint, indices = checkpoint_cache(ckpt)
        # The clean shards show that nothing else is recomputed.
        damaged = dict(zip(indices[::2], sorted(RCOL_CORRUPTIONS)))
        for index, corruption in damaged.items():
            RCOL_CORRUPTIONS[corruption](
                cache.entry_dir(
                    cache.key(fingerprint, index, ENGINE_CAMPAIGN.seed)
                )
                / cache.DATA_NAME
            )
        assert not set(damaged) & checkpointed(ckpt)

        ds, report = run_engine(
            engine_config(executor="serial", checkpoint_dir=str(ckpt))
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == len(report.shards) - len(damaged)
        assert set(damaged) <= checkpointed(ckpt)

    def test_checkpoints_survive_mid_batch_failure(self, tmp_path):
        """Shards checkpoint as they finish, not at batch completion."""
        ckpt = tmp_path / "ckpt"
        # One batch holds all windows; the fault hits the last one, so all
        # earlier windows of the *same batch* must already be on disk.
        with pytest.raises(EngineError):
            run_engine(
                engine_config(
                    executor="serial",
                    shards=1,
                    checkpoint_dir=str(ckpt),
                    max_retries=0,
                    inject_faults={9: FaultSpec(times=1, kind="raise")},
                )
            )
        stored = checkpointed(ckpt)
        assert 8 in stored
        assert 9 not in stored

    def test_shard_store_keeps_finished_shards_of_a_failed_batch(
        self, engine_baseline, tmp_path
    ):
        """The worker that computes a shard writes its entry, so a shared
        store (a sweep's cache) keeps every shard a failed batch finished,
        and a rerun computes only the one that failed."""
        _, base = engine_baseline
        store = tmp_path / "store"
        config = engine_config(executor="serial", shards=1, max_retries=0)
        with pytest.raises(EngineError):
            run_campaigns(
                [replace(config, inject_faults={9: FaultSpec()})],
                shard_store=ShardCache(store),
            )
        assert checkpointed(store) == set(range(9))

        (run,), _ = run_campaigns([config], shard_store=ShardCache(store))
        assert (run.report.cache_hits, run.report.cache_misses) == (9, 1)
        assert [s.index for s in run.report.shards if not s.from_cache] == [9]
        assert engine_dataset_bytes(run.dataset, tmp_path) == base


class TestResumeMetricsParity:
    """A resumed traced run must report the same shard-level metrics as an
    uninterrupted one.

    Regression: replayed checkpoint shards used to be dropped from the
    ``EngineReport.metrics`` merge (and their sidecars carried no snapshot
    to merge), so ``engine.shards_computed`` / ``engine.records_generated``
    under-counted after a resume.  Sidecars now persist the snapshot of the
    computation that produced each shard, and the merge folds every shard
    exactly once.
    """

    @pytest.fixture(autouse=True)
    def _fresh_tracers(self):
        yield
        reset_tracers()

    def test_resumed_run_matches_clean_run_metrics(self, tmp_path):
        _, clean = run_engine(
            engine_config(
                executor="serial", trace_path=str(tmp_path / "clean.jsonl")
            )
        )
        ckpt = tmp_path / "ckpt"
        with pytest.raises(EngineError):
            run_engine(
                engine_config(
                    executor="serial",
                    checkpoint_dir=str(ckpt),
                    max_retries=0,
                    inject_faults={3: FaultSpec(times=1, kind="raise")},
                    trace_path=str(tmp_path / "interrupted.jsonl"),
                )
            )
        _, resumed = run_engine(
            engine_config(
                executor="serial",
                checkpoint_dir=str(ckpt),
                trace_path=str(tmp_path / "resumed.jsonl"),
            )
        )
        assert resumed.cache_hits > 0  # the resume actually replayed
        clean_counters = clean.metrics["counters"]
        resumed_counters = resumed.metrics["counters"]
        for key in ("engine.shards_computed", "engine.records_generated"):
            assert resumed_counters[key] == clean_counters[key], key
        # Each shard's wall time entered the histogram exactly once.
        assert (
            resumed.metrics["histograms"]["engine.shard_s"]["count"]
            == clean.metrics["histograms"]["engine.shard_s"]["count"]
        )

    def test_fully_checkpointed_run_matches_clean_run_metrics(self, tmp_path):
        """Even a run served 100% from checkpoints reports full totals."""
        ckpt = tmp_path / "ckpt"
        _, clean = run_engine(
            engine_config(
                executor="serial",
                checkpoint_dir=str(ckpt),
                trace_path=str(tmp_path / "clean.jsonl"),
            )
        )
        _, replayed = run_engine(
            engine_config(
                executor="serial",
                checkpoint_dir=str(ckpt),
                trace_path=str(tmp_path / "replayed.jsonl"),
            )
        )
        assert replayed.cache_hits == len(replayed.shards)
        assert (
            replayed.metrics["counters"]["engine.shards_computed"]
            == clean.metrics["counters"]["engine.shards_computed"]
        )


class TestTraceIntegrity:
    """Traces written during faulty runs must stay structurally sound.

    Crash tolerance is the trace format's hardest promise: workers that
    raise close their span with ``status="error"``, workers that die
    mid-span contribute nothing, and either way the file parses line by
    line with balanced durations — and its retry accounting agrees with
    the :class:`EngineReport` of the same run.
    """

    @pytest.fixture(autouse=True)
    def _fresh_tracers(self):
        yield
        reset_tracers()

    @staticmethod
    def shard_spans(trace, status):
        return [
            r for r in iter_trace(trace)
            if r["kind"] == "span"
            and r["name"] == "engine.shard"
            and r["status"] == status
        ]

    def test_raise_faults_leave_balanced_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _, report = run_engine(
            engine_config(
                executor="serial",
                max_retries=2,
                inject_faults={1: FaultSpec(times=2, kind="raise")},
                trace_path=str(trace),
            )
        )
        assert validate_trace(trace) == []
        # Every failed attempt closed its span as an error; the error-span
        # count and the report's retry counter are two views of one number.
        assert len(self.shard_spans(trace, "error")) == report.total_retries
        assert len(self.shard_spans(trace, "ok")) == len(report.shards)

        summary = load_summary(trace)
        (root,) = [r for r in summary.roots if r.name == "engine.run"]
        assert root.status == "ok"
        # The traced run duration IS the report's wall time (same float).
        assert root.dur_s == report.total_wall_s

    def test_killed_worker_leaves_parseable_trace(self, tmp_path):
        """os._exit mid-span: the dying worker's span is simply absent.

        The crash hits the first window, while the other worker is early in
        its own shard.  A shard that finishes just as a pool breaks writes
        its "ok" span but loses its result and is computed again, so a
        shard may have more "ok" spans than one.  What the engine
        guarantees: the attempt whose result the report kept wrote an "ok"
        span, and no "ok" span is of a later attempt or an unreported shard.
        """
        trace = tmp_path / "trace.jsonl"
        _, report = run_engine(
            engine_config(
                executor="process",
                workers=2,
                max_retries=2,
                inject_faults={0: FaultSpec(times=1, kind="exit")},
                trace_path=str(trace),
            )
        )
        # Parseable and balanced despite a worker dying with the trace
        # file open — a torn line here would fail iter_trace.
        assert validate_trace(trace) == []
        retries = {shard.index: shard.retries for shard in report.shards}
        ok = {
            (span["attrs"]["index"], span["attrs"]["attempt"])
            for span in self.shard_spans(trace, "ok")
        }
        assert set(retries.items()) <= ok
        assert all(index in retries and attempt <= retries[index] for index, attempt in ok)
        summary = load_summary(trace)
        (root,) = [r for r in summary.roots if r.name == "engine.run"]
        assert root.status == "ok"

    def test_failed_run_closes_root_span_as_error(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(EngineError):
            run_engine(
                engine_config(
                    executor="serial",
                    max_retries=0,
                    inject_faults={2: FaultSpec(times=5, kind="raise")},
                    trace_path=str(trace),
                )
            )
        assert validate_trace(trace) == []
        summary = load_summary(trace)
        (root,) = [r for r in summary.roots if r.name == "engine.run"]
        assert root.status == "error"
        assert len(self.shard_spans(trace, "error")) == 1


class TestPoolProbe:
    def test_probe_is_memoized(self, monkeypatch):
        """The availability probe spawns a real pool, so it must run at
        most once per process no matter how many engine runs ask."""
        import repro.engine as engine

        calls = []

        class CountingPool:
            def __init__(self, max_workers=None):
                calls.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                class Done:
                    @staticmethod
                    def result():
                        return fn(*args)

                return Done()

        monkeypatch.setattr(engine, "_POOL_PROBE_OK", None)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        assert engine.process_pool_usable() is True
        assert engine.process_pool_usable() is True
        assert len(calls) == 1

    def test_cached_verdict_skips_probe(self, monkeypatch):
        import repro.engine as engine

        def explode(*a, **k):
            raise AssertionError("probe pool constructed despite cached verdict")

        monkeypatch.setattr(engine, "_POOL_PROBE_OK", False)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", explode)
        assert engine.process_pool_usable() is False
