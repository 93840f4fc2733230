"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base class to handle any failure originating here rather than a
built-in raised by our internals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class RouteError(ReproError):
    """A route could not be constructed or a position query was invalid."""


class DeploymentError(ReproError):
    """A radio deployment model could not be built or queried."""


class LogFormatError(ReproError):
    """A log record or file did not match the expected format."""


class SyncError(ReproError):
    """App-layer and XCAL logs could not be matched/synchronised."""


class CampaignError(ReproError):
    """The drive campaign could not be scheduled or executed."""


class AnalysisError(ReproError):
    """An analysis was asked to run on unsuitable or empty data."""


class SweepError(ReproError):
    """A multi-seed replication sweep was misconfigured or failed.

    Raised for invalid sweep configurations (empty or duplicate seed lists,
    unknown statistic names) and for aggregation failures; per-shard
    execution failures inside a sweep surface as :class:`EngineError`.
    """


class StoreError(ReproError):
    """A columnar store file or catalog is invalid, truncated, or misused.

    Raised when a store file fails its magic/version/directory checks, a
    column chunk's byte length disagrees with its directory row (truncation or
    corruption can never decode to garbage rows), or a query references an
    unknown table, column, or predicate value type.
    """


class BenchError(ReproError):
    """A benchmark run, report, or baseline comparison is invalid.

    Raised for unknown benchmark names, malformed or schema-incompatible
    ``BENCH_*.json`` documents, and invalid regression budgets.  A *measured
    regression* is not an error — it is a gate failure, reported as data.
    """


class EngineError(ReproError):
    """The sharded execution engine failed to plan, run, or merge a campaign.

    Raised when a shard exhausts its retry budget, a checkpoint is corrupt in
    a way that cannot be recovered by recomputation, or the merged dataset
    fails validation.  Carries the failing shard's index when one is known.
    """

    def __init__(self, message: str, shard_index: int | None = None) -> None:
        super().__init__(message)
        self.shard_index = shard_index
