"""Binning (blocking) analysis for correlated Monte Carlo time series.

Markov-chain samples are correlated, so the naive error
``sigma / sqrt(M)`` underestimates the true statistical error by a
factor ``sqrt(2 * tau_int)``.  Binning groups the series into blocks of
growing length; once blocks are longer than the autocorrelation time
the block means are effectively independent and the naive error of the
*block means* converges (plateaus) to the true error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["binning_levels", "binned_error", "BinningAnalysis"]


def _block_means(x: np.ndarray, block: int) -> np.ndarray:
    """Means of consecutive length-``block`` blocks (tail discarded)."""
    n = (len(x) // block) * block
    if n == 0:
        raise ValueError(f"series of length {len(x)} too short for block size {block}")
    return x[:n].reshape(-1, block).mean(axis=1)


def binning_levels(series: np.ndarray, min_blocks: int = 8) -> list[tuple[int, float]]:
    """Naive standard error of block means for block sizes 1, 2, 4, ...

    Returns ``[(block_size, error), ...]`` for every power-of-two block
    size that leaves at least ``min_blocks`` blocks.  The plateau of the
    error sequence is the true statistical error of the mean.
    """
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 2 * min_blocks:
        raise ValueError(
            f"need at least {2 * min_blocks} samples for a binning analysis, got {x.size}"
        )
    levels = []
    block = 1
    while x.size // block >= min_blocks:
        means = _block_means(x, block)
        m = means.size
        err = float(means.std(ddof=1) / math.sqrt(m))
        levels.append((block, err))
        block *= 2
    return levels


# How a ``[(block_size, error), ...]`` ladder is read, said once: by the
# batch analysis below and by :class:`repro.obs.online.StreamingBinning`.


def plateau_error(levels: list[tuple[int, float]], naive_error: float) -> float:
    """A ladder's error estimate: its largest usable block's
    (``naive_error`` while no level has enough blocks yet)."""
    return levels[-1][1] if levels else naive_error


def binning_tau_int(error: float, naive_error: float) -> float:
    """Implied integrated autocorrelation time; 0.5, the uncorrelated
    value, by convention for a constant series."""
    return 0.5 * (error / naive_error) ** 2 if naive_error > 0 else 0.5


def ladder_converged(levels: list[tuple[int, float]], rtol: float = 0.15) -> bool:
    """Whether the last two binning levels agree within ``rtol``.

    A non-converged ladder means the series is shorter than ~100
    autocorrelation times and the quoted error is a lower bound.
    """
    if len(levels) < 2:
        return False
    (_, e1), (_, e2) = levels[-2], levels[-1]
    if e2 == 0:
        return e1 == 0
    return abs(e2 - e1) / e2 <= rtol


def binned_error(series: np.ndarray, min_blocks: int = 8) -> float:
    """Plateau estimate of the statistical error of ``mean(series)``.

    Uses the largest usable block size.  For an uncorrelated series this
    coincides (up to noise) with ``std/sqrt(M)``; for correlated series
    it is larger by ``sqrt(2 tau_int)``.
    """
    levels = binning_levels(series, min_blocks=min_blocks)
    return plateau_error(levels, levels[0][1])


@dataclass
class BinningAnalysis:
    """Full binning analysis of one scalar time series.

    Attributes
    ----------
    mean:
        Sample mean of the series.
    naive_error:
        ``std/sqrt(M)`` ignoring correlations (binning level 0).
    error:
        Plateau (largest-block) error estimate.
    tau_int:
        Implied integrated autocorrelation time,
        ``0.5 * (error/naive_error)**2``; equals 0.5 for an
        uncorrelated series by convention.
    levels:
        The raw ``(block_size, error)`` ladder.
    """

    mean: float
    naive_error: float
    error: float
    tau_int: float
    levels: list[tuple[int, float]]

    @classmethod
    def from_series(cls, series: np.ndarray, min_blocks: int = 8) -> "BinningAnalysis":
        x = np.asarray(series, dtype=float).ravel()
        levels = binning_levels(x, min_blocks=min_blocks)
        naive = levels[0][1]
        err = plateau_error(levels, naive)
        return cls(
            mean=float(x.mean()),
            naive_error=naive,
            error=err,
            tau_int=binning_tau_int(err, naive),
            levels=levels,
        )

    def is_converged(self, rtol: float = 0.15) -> bool:
        """:func:`ladder_converged` of this ladder."""
        return ladder_converged(self.levels, rtol)
