"""Energy histograms with a fixed binning grid.

A shared grid is what lets histograms from different temperature
threads be combined by WHAM: bin ``k`` means the same energy interval
in every thread.  The class stores raw counts (integers) plus the
number of sweeps, so normalization choices stay explicit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EnergyHistogram"]


class EnergyHistogram:
    """Histogram of a scalar observable on a uniform bin grid.

    Parameters
    ----------
    e_min, e_max:
        Inclusive range covered by the grid.  Samples outside the range
        raise by default (they indicate a mis-sized grid) unless
        ``clip=True``.
    n_bins:
        Number of uniform bins.
    """

    def __init__(self, e_min: float, e_max: float, n_bins: int, clip: bool = False):
        if not e_max > e_min:
            raise ValueError(f"need e_max > e_min, got [{e_min}, {e_max}]")
        if n_bins < 1:
            raise ValueError("need at least one bin")
        self.e_min = float(e_min)
        self.e_max = float(e_max)
        self.n_bins = int(n_bins)
        self.clip = bool(clip)
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.n_samples = 0

    # -- grid geometry -------------------------------------------------
    @property
    def bin_width(self) -> float:
        return (self.e_max - self.e_min) / self.n_bins

    @property
    def bin_centers(self) -> np.ndarray:
        return self.e_min + (np.arange(self.n_bins) + 0.5) * self.bin_width

    def bin_index(self, energy: np.ndarray | float) -> np.ndarray:
        """Bin indices for the given energies (vectorized)."""
        e = np.atleast_1d(np.asarray(energy, dtype=float))
        idx = np.floor((e - self.e_min) / self.bin_width).astype(np.int64)
        # The right edge belongs to the last bin.
        idx[e == self.e_max] = self.n_bins - 1
        out_of_range = (idx < 0) | (idx >= self.n_bins)
        if np.any(out_of_range):
            if not self.clip:
                bad = e[out_of_range][0]
                raise ValueError(
                    f"sample {bad} outside histogram range [{self.e_min}, {self.e_max}]"
                )
            idx = np.clip(idx, 0, self.n_bins - 1)
        return idx

    # -- accumulation ----------------------------------------------------
    def add(self, energy: np.ndarray | float) -> None:
        """Accumulate one sample or an array of samples."""
        idx = self.bin_index(energy)
        np.add.at(self.counts, idx, 1)
        self.n_samples += idx.size

    def __repr__(self) -> str:
        return (
            f"EnergyHistogram([{self.e_min}, {self.e_max}], n_bins={self.n_bins}, "
            f"n_samples={self.n_samples})"
        )
