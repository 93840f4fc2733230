"""Deterministic random-number plumbing.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator`.  To make an entire campaign reproducible from
a single integer seed while keeping components statistically independent, we
spawn *named substreams* from a root seed using ``numpy``'s ``SeedSequence``
machinery: the same (seed, name) pair always yields the same stream,
regardless of the order in which substreams are requested.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BufferedUniforms", "RngFactory", "default_rng", "choose_weighted", "clamp", "peek_uniforms",
]


def clamp(value: float, lo: float, hi: float) -> float:
    """Pure-Python scalar clip (much faster than :func:`numpy.clip` on
    scalars, which dominates tick-loop profiles otherwise)."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def choose_weighted(rng: np.random.Generator, items: list, weights: list[float]):
    """Draw one item with the given (not necessarily normalised) weights.

    A single ``rng.random()`` draw against the cumulative distribution —
    ~30× faster than ``rng.choice(..., p=...)`` for the short lists used in
    the deployment and policy layers.
    """
    total = 0.0
    for w in weights:
        total += w
    u = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if u < acc:
            return item
    return items[-1]


#: Uniforms drawn per refill of a :class:`BufferedUniforms`.
_BLOCK = 256


class BufferedUniforms:
    """A generator's uniforms, drawn in blocks and handed out one at a
    time by :meth:`random`: the same values, in the same order, as calling
    ``rng.random()`` each time (a block draw of ``n`` values equals ``n``
    scalar draws), at a fraction of a scalar draw's cost.

    The generator runs ahead of what has been handed out, so it must have
    no other consumer.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.random = self._values(rng).__next__

    @staticmethod
    def _values(rng: np.random.Generator):
        while True:
            yield from rng.random(_BLOCK).tolist()


def peek_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` uniforms of ``rng``, leaving it where it was.

    A caller that reads a variable number of them (the count depends on
    their values) draws that many with ``rng.random(k)`` afterwards, and
    the stream gives later draws what scalar draws would have left it.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    values = rng.random(n)
    bit_generator.state = state
    return values


def _name_to_key(name: str) -> int:
    """Map a substream name to a stable 32-bit spawn key."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class RngFactory:
    """Factory of named, independent random substreams.

    Parameters
    ----------
    seed:
        Root seed for the whole factory.  Two factories with the same seed
        produce identical substreams for identical names.

    Examples
    --------
    >>> f = RngFactory(seed=7)
    >>> a = f.stream("channel").standard_normal()
    >>> b = RngFactory(seed=7).stream("channel").standard_normal()
    >>> a == b
    True
    """

    seed: int
    _cache: dict[str, np.random.Generator] = field(
        default_factory=dict, repr=False, compare=False
    )

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for substream ``name`` (cached per factory).

        Repeated calls with the same name on the same factory return the
        *same* generator object, so draws continue rather than restart.
        """
        if name not in self._cache:
            seq = np.random.SeedSequence([self.seed, _name_to_key(name)])
            self._cache[name] = np.random.Generator(np.random.PCG64(seq))
        return self._cache[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, restarting its sequence."""
        seq = np.random.SeedSequence([self.seed, _name_to_key(name)])
        gen = np.random.Generator(np.random.PCG64(seq))
        self._cache[name] = gen
        return gen

    def child(self, name: str) -> "RngFactory":
        """Derive a child factory whose streams are independent of ours."""
        return RngFactory(seed=(self.seed * 1000003 + _name_to_key(name)) % (2**63))

    def shard(self, index: int) -> "RngFactory":
        """Derive the canonical per-shard child factory.

        The sharded execution engine gives every route shard its own factory
        so that a shard's draws depend only on ``(root seed, shard index)`` —
        never on how many workers run, in what order shards complete, or how
        shards are batched onto workers.  That is what makes the merged
        dataset bit-identical for any executor configuration.
        """
        if index < 0:
            raise ValueError(f"shard index must be non-negative, got {index}")
        return self.child(f"shard-{index:06d}")


def default_rng(seed: int = 0) -> RngFactory:
    """Convenience constructor mirroring :func:`numpy.random.default_rng`."""
    return RngFactory(seed=seed)
