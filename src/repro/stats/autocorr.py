"""Autocorrelation function and integrated autocorrelation time.

The integrated autocorrelation time ``tau_int`` measures how many
sweeps separate effectively independent measurements; the effective
statistics of a length-``M`` series is ``M / (2 tau_int)``.  Comparing
``tau_int`` between samplers (local Metropolis vs parallel tempering)
is the standard efficiency metric and is what benchmark F7 reports.
"""

from __future__ import annotations

import numpy as np
from numpy import fft

__all__ = ["autocorrelation_function", "integrated_autocorr_time"]


def autocorrelation_function(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Normalized autocorrelation ``A(t)`` for lags ``0..max_lag``.

    Computed via FFT in O(M log M).  ``A(0) == 1`` by construction; a
    constant series (zero variance) returns ``A(t>0) == 0`` rather than
    dividing by zero.
    """
    x = np.asarray(series, dtype=float).ravel()
    m = x.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    if max_lag is None:
        max_lag = m // 4
    max_lag = min(max_lag, m - 1)
    x = x - x.mean()
    # FFT-based autocovariance with zero padding to avoid circular wrap.
    nfft = 1 << (2 * m - 1).bit_length()
    f = fft.rfft(x, nfft)
    acov = fft.irfft(f * np.conjugate(f), nfft)[: max_lag + 1]
    acov /= np.arange(m, m - max_lag - 1, -1)  # unbiased normalization
    if acov[0] <= 0:
        out = np.zeros(max_lag + 1)
        out[0] = 1.0
        return out
    return acov / acov[0]


def integrated_autocorr_time(
    series: np.ndarray, c: float = 6.0, max_lag: int | None = None
) -> float:
    """Integrated autocorrelation time with automatic windowing.

    Uses the standard self-consistent window (Sokal): sum ``A(t)`` up to
    the smallest ``W`` with ``W >= c * tau_int(W)``.  Returns a value
    ``>= 0.5``; an uncorrelated series gives ``~0.5`` (so that
    ``M_eff = M / (2 tau) = M``).
    """
    a = autocorrelation_function(series, max_lag=max_lag)
    tau = 0.5
    for w in range(1, len(a)):
        tau = 0.5 + float(np.sum(a[1 : w + 1]))
        if w >= c * tau:
            break
    return max(tau, 0.5)
