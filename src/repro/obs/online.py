"""Online (streaming) statistical estimators for run-health diagnostics.

The batch analysis in :mod:`repro.stats` answers "what is the error of
this finished series"; production monitoring needs the same answers
*while the series is still growing*, in O(1) amortized work per sample
and O(log N) memory.  Three estimators live here, each validated by the
test suite to agree with its batch counterpart on the same series:

* :class:`Welford` -- numerically stable running mean/variance
  (Welford's algorithm), matching ``numpy.mean``/``numpy.var(ddof=1)``.
* :class:`StreamingBinning` -- the logarithmic binning (blocking)
  ladder of :func:`repro.stats.binning.binning_levels`, maintained
  incrementally: level ``l`` accumulates raw-value sums into blocks of
  ``2**l`` samples and runs a Welford over the completed block means,
  so the per-level errors reproduce the batch ladder (same block
  means, same tail discard, same ``ddof=1``) up to float-summation
  order.  The ladder is *read* -- plateau error, ``tau_int``,
  convergence -- by the functions of :mod:`repro.stats.binning` that
  :class:`~repro.stats.binning.BinningAnalysis` uses.
* :func:`gelman_rubin` / :func:`gelman_rubin_from_moments` -- the
  cross-replica potential scale reduction factor R-hat.  The moments
  form consumes the chains' streaming ``(count, mean, variance)``
  triples (:class:`Welford`), and agrees with the flat pooled
  computation over the stacked chains.

Everything here is pure arithmetic on the fed values: no RNG, no
clock reads, no shared state -- the bit-identity discipline the health
engine relies on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.stats.binning import binning_tau_int, ladder_converged, plateau_error

__all__ = [
    "Welford",
    "StreamingBinning",
    "gelman_rubin",
    "gelman_rubin_from_moments",
]


class Welford:
    """Running count/mean/variance via Welford's update (ddof=1)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 with fewer than two samples."""
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def std_error(self) -> float:
        """Naive standard error of the mean, ``std / sqrt(count)``."""
        return self.std / math.sqrt(self.count) if self.count else 0.0

    def moments(self) -> tuple[int, float, float]:
        """``(count, mean, variance)`` -- what replica leaders pool."""
        return self.count, self.mean, self.variance


class _BinLevel:
    """One rung of the streaming binning ladder: blocks of ``2**level``.

    ``pending_sum``/``pending_n`` accumulate the raw-value sum of the
    block under construction (the streaming image of the batch tail
    discard: an incomplete block never contributes); completed block
    means feed ``stats``.
    """

    __slots__ = ("block", "pending_sum", "pending_n", "stats")

    def __init__(self, block: int) -> None:
        self.block = block
        self.pending_sum = 0.0
        self.pending_n = 0
        self.stats = Welford()


class StreamingBinning:
    """Streaming logarithmic binning analysis of one scalar series.

    Feeds like an accumulator::

        sb = StreamingBinning()
        for x in series:
            sb.push(x)
        sb.error, sb.tau_int, sb.levels(), sb.is_converged()

    and reproduces :class:`repro.stats.binning.BinningAnalysis` on the
    same series: levels are the power-of-two block sizes leaving at
    least ``min_blocks`` completed blocks, each level's error is the
    ``ddof=1`` standard error of its block means, and the tail of the
    series that fills no complete block is discarded exactly as the
    batch reshape does.  Block means are formed as ``block_sum /
    block`` from propagated raw sums, not as pairwise means of means,
    so they match the batch values to float-summation order.
    """

    def __init__(self, min_blocks: int = 8) -> None:
        if min_blocks < 2:
            raise ValueError("min_blocks must be >= 2")
        self.min_blocks = int(min_blocks)
        self._levels: list[_BinLevel] = [_BinLevel(1)]

    def push(self, value: float) -> None:
        """Feed one sample; O(1) amortized (O(log N) on power-of-two counts)."""
        carry = float(value)
        idx = 0
        while True:
            # Grow the ladder lazily: a new rung appears the first time
            # a block sum of the previous rung completes.
            if idx == len(self._levels):
                self._levels.append(_BinLevel(self._levels[-1].block * 2))
            level = self._levels[idx]
            level.pending_sum += carry
            level.pending_n += 1
            if level.pending_n < (2 if idx else 1):
                return
            block_sum = level.pending_sum
            level.stats.push(block_sum / level.block)
            level.pending_sum = 0.0
            level.pending_n = 0
            carry = block_sum
            idx += 1

    # -- batch-compatible views -----------------------------------------
    @property
    def count(self) -> int:
        """Number of samples fed so far."""
        return self._levels[0].stats.count

    @property
    def mean(self) -> float:
        return self._levels[0].stats.mean

    def levels(self) -> list[tuple[int, float]]:
        """The ``(block_size, error)`` ladder, batch-compatible.

        Exactly the levels :func:`~repro.stats.binning.binning_levels`
        would emit: every power-of-two block size with at least
        ``min_blocks`` completed blocks.
        """
        out = []
        for level in self._levels:
            if level.stats.count < self.min_blocks:
                break
            out.append((level.block, level.stats.std_error))
        return out

    @property
    def naive_error(self) -> float:
        """Level-0 (uncorrelated) standard error of the mean."""
        return self._levels[0].stats.std_error

    # The three readings below are repro.stats.binning's, on this ladder.
    @property
    def error(self) -> float:
        """Plateau (largest usable block) error estimate."""
        return plateau_error(self.levels(), self.naive_error)

    @property
    def tau_int(self) -> float:
        """Binning estimate ``0.5 * (error/naive_error)**2``."""
        return binning_tau_int(self.error, self.naive_error)

    def is_converged(self, rtol: float = 0.15) -> bool:
        """Whether the last two ladder levels agree within ``rtol``."""
        return ladder_converged(self.levels(), rtol)

    def summary(self) -> dict:
        """JSON-able snapshot of the analysis (what health events embed)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "naive_error": self.naive_error,
            "error": self.error,
            "tau_int": self.tau_int,
            "n_levels": len(self.levels()),
            "converged": self.is_converged(),
        }


def gelman_rubin_from_moments(
    counts, means, variances
) -> float:
    """R-hat from per-chain ``(count, mean, variance)`` triples.

    The standard (non-split) Gelman--Rubin potential scale reduction
    factor for ``R`` chains of ``n`` samples each::

        W     = mean of the within-chain variances
        B / n = variance (ddof=1) of the chain means
        var+  = (n - 1)/n * W + B/n
        R-hat = sqrt(var+ / W)

    Chains must have equal lengths ``n >= 2`` (the replica-ensemble
    case: every replica measures on the same schedule).  Degenerate
    inputs follow the convention R-hat = 1.0 when both W and B vanish
    (identical constant chains) and ``inf`` when W vanishes but the
    chain means disagree.
    """
    counts = [int(c) for c in counts]
    means = [float(m) for m in means]
    variances = [float(v) for v in variances]
    r = len(counts)
    if not (r == len(means) == len(variances)):
        raise ValueError("counts/means/variances must have equal length")
    if r < 2:
        raise ValueError("R-hat needs at least two chains")
    n = counts[0]
    if any(c != n for c in counts):
        raise ValueError(f"R-hat needs equal-length chains, got {counts}")
    if n < 2:
        raise ValueError("R-hat needs at least two samples per chain")
    w = sum(variances) / r
    mean_of_means = sum(means) / r
    b_over_n = sum((m - mean_of_means) ** 2 for m in means) / (r - 1)
    if w <= 0.0:
        return 1.0 if b_over_n <= 0.0 else math.inf
    var_plus = (n - 1) / n * w + b_over_n
    return math.sqrt(var_plus / w)


def gelman_rubin(chains) -> float:
    """R-hat of equal-length 1-D chains (flat pooled reference form).

    ``chains`` is a sequence of 1-D arrays; longer chains are truncated
    to the shortest so the moments match what streaming replicas with a
    shared schedule would pool.
    """
    arrays = [np.asarray(c, dtype=float).ravel() for c in chains]
    if len(arrays) < 2:
        raise ValueError("R-hat needs at least two chains")
    n = min(a.size for a in arrays)
    arrays = [a[:n] for a in arrays]
    return gelman_rubin_from_moments(
        [n] * len(arrays),
        [float(a.mean()) for a in arrays],
        [float(a.var(ddof=1)) for a in arrays],
    )
