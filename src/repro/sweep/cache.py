"""The content-addressed shard cache, as seen from sweeps.

:class:`ShardCache` lives in :mod:`repro.engine.checkpoint`, beside the
shard identity it is keyed on, because it is also the engine's checkpoint
format; this module re-exports it under its long-standing sweep path.
"""

from repro.engine.checkpoint import CacheStats, ShardCache

__all__ = ["CacheStats", "ShardCache"]
