"""FFT fast paths for translation-averaged correlation functions.

The measurement loops of the samplers repeatedly need

    C(k) = mean( x * roll(x, -k, axis) )        for k = 0 .. max_lag,

the circular autocorrelation along one axis averaged over everything
else.  Computed lag-by-lag with ``np.roll`` this is O(extent * volume);
the Wiener--Khinchin form below gets all lags from a single real FFT in
O(volume log extent), exact to floating-point roundoff.  Periodic
geometries use this path; open-boundary estimators keep their explicit
loops (the truncated sums are not circular convolutions).
"""

from __future__ import annotations

import numpy as np
from numpy import fft

__all__ = ["mean_circular_correlation"]


def mean_circular_correlation(
    x: np.ndarray, axis: int, max_lag: int
) -> np.ndarray:
    """``out[k] = np.mean(x * np.roll(x, -k, axis=axis))`` for k = 0..max_lag.

    One rfft/irfft pair along ``axis`` replaces the per-lag roll loop;
    the remaining axes are averaged over.  ``max_lag`` may be at most
    the extent of ``axis`` (lags wrap circularly).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[axis]
    if not 0 <= max_lag <= n:
        raise ValueError(f"max_lag {max_lag} outside 0..{n}")
    f = fft.rfft(x, axis=axis)
    # Wiener--Khinchin: irfft(F conj(F))[k] = sum_i x[i] x[(i+k) % n].
    s = fft.irfft(f * np.conj(f), n=n, axis=axis)
    s = np.moveaxis(s, axis, 0)[: max_lag + 1]
    return s.reshape(s.shape[0], -1).sum(axis=1) / x.size
