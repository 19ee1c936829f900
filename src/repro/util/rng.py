"""Reproducible random-number streams for SPMD programs.

A massively parallel Monte Carlo run needs one *statistically
independent* stream per processor (and per replica, per Trotter thread,
...).  Re-seeding ``numpy`` ad hoc with ``seed + rank`` produces
overlapping or correlated streams; the supported mechanism is NumPy's
:class:`~numpy.random.SeedSequence` spawning, which derives
collision-free child entropy for any tree of workers.

:class:`SeedSequenceFactory` wraps that mechanism with a stable,
hashable addressing scheme so a rank program can ask for "the stream of
rank 7 of run 42" and get the same stream on every backend (threads,
multiprocessing, or a future real-MPI port) and every
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# By name, not as ``np.random.X`` at call time: NumPy loads numpy.random on
# first attribute access, which for an mp run would be after the fork, in
# every rank of every run (DESIGN.md, "Import surface").
from numpy.random import PCG64, Generator, SeedSequence

__all__ = ["SeedSequenceFactory", "RankStream", "spawn_streams"]


@dataclass(frozen=True)
class RankStream:
    """A labelled random stream owned by one logical worker.

    Attributes
    ----------
    rank:
        Logical owner id (MPI-style rank, replica index, ...).
    generator:
        The underlying :class:`numpy.random.Generator`.  Deliberately
        exposed: hot loops should pull vectorized samples directly.
    """

    rank: int
    generator: Generator = field(compare=False)

    # Convenience pass-throughs used throughout the QMC kernels. Keeping
    # them thin ensures there is exactly one source of randomness per rank.
    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform variates on [0, 1)."""
        return self.generator.random(size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers on [low, high)."""
        return self.generator.integers(low, high, size=size)

    def choice(self, n: int) -> int:
        """A single uniform index on [0, n)."""
        return int(self.generator.integers(0, n))

    def exponential(self, scale: float = 1.0, size=None):
        """Exponential variates (used by event-driven update schedules)."""
        return self.generator.exponential(scale, size)


class SeedSequenceFactory:
    """Derive independent, reproducible child streams from one root seed.

    The factory is cheap to construct and stateless between calls: the
    stream for a given address ``(kind, index)`` is a pure function of
    ``(root_seed, kind, index)``.  Two factories with the same root seed
    hand out identical streams; distinct addresses never collide (NumPy
    ``SeedSequence`` guarantees this by design).

    ``kind`` namespaces the tree: rank programs, measurement shufflers
    and replica threads draw from disjoint subtrees even when their
    integer indices coincide.
    """

    #: Registered stream namespaces.  Using a fixed table (rather than
    #: hashing arbitrary strings) keeps cross-platform reproducibility
    #: independent of PYTHONHASHSEED.
    KINDS = {
        "rank": 0,
        "replica": 1,
        "walker": 2,
        "measurement": 3,
        "tempering": 4,
        "scratch": 5,
        # The shared sweep uniforms of the strip and block drivers: one
        # stream per run, index 0, that every rank builds once and skips
        # ahead through (sweep k from position k * per-sweep count, a
        # block rank to its own rows) -- the same numbers on every rank,
        # the source of rank-count-independent trajectories.  Key 7 is
        # left unused: it addressed a generator per strip sweep, and
        # reusing it would make an old run's numbers look current.
        "sweep": 8,
    }

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        if root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        self.root_seed = int(root_seed)

    def __repr__(self) -> str:
        return f"SeedSequenceFactory(root_seed={self.root_seed})"

    def seed_sequence(self, kind: str, index: int) -> SeedSequence:
        """The raw child :class:`~numpy.random.SeedSequence` for an address."""
        try:
            kind_key = self.KINDS[kind]
        except KeyError:
            raise ValueError(
                f"unknown stream kind {kind!r}; expected one of {sorted(self.KINDS)}"
            ) from None
        if index < 0:
            raise ValueError("stream index must be non-negative")
        # spawn_key addressing: (kind, index) under the root entropy.
        return SeedSequence(entropy=self.root_seed, spawn_key=(kind_key, index))

    def stream(self, kind: str, index: int) -> RankStream:
        """A :class:`RankStream` for the given address."""
        ss = self.seed_sequence(kind, index)
        return RankStream(rank=index, generator=Generator(PCG64(ss)))

    def rank_stream(self, rank: int) -> RankStream:
        """Shorthand for ``stream('rank', rank)``."""
        return self.stream("rank", rank)


def spawn_streams(root_seed: int, n: int, kind: str = "rank") -> list[RankStream]:
    """Spawn ``n`` independent labelled streams under one root seed."""
    factory = SeedSequenceFactory(root_seed)
    return [factory.stream(kind, i) for i in range(n)]
