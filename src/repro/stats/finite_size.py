"""Finite-size scaling: Binder cumulant, susceptibility, U4 crossings.

The Binder cumulant ``U4(T, L) = 1 - <m^4> / (3 <m^2>^2)`` is
scale-invariant at a critical point: curves for different lattice sizes
cross at ``T_c`` (up to corrections to scaling).  Locating that
crossing was the standard era technique for extracting critical
temperatures from Monte Carlo data, and is what benchmark F12 exercises
on the 2-D Ising model against Onsager's exact ``T_c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinderCurve", "binder_cumulant", "crossing_temperature", "susceptibility"]


def binder_cumulant(magnetizations: np.ndarray) -> float:
    """``U4 = 1 - <m^4>/(3 <m^2>^2)`` of a magnetization series.

    Limits: 2/3 in a perfectly ordered phase (|m| constant), 0 for a
    Gaussian-disordered phase.
    """
    m = np.asarray(magnetizations, dtype=float)
    if m.size < 2:
        raise ValueError("need at least two measurements")
    m2 = float(np.mean(m**2))
    if m2 == 0:
        return 0.0
    m4 = float(np.mean(m**4))
    return 1.0 - m4 / (3.0 * m2 * m2)


def susceptibility(magnetizations: np.ndarray, beta: float, n_sites: int) -> float:
    """Fluctuation susceptibility ``beta (<M^2> - <M>^2) / N`` of a
    total-magnetization series."""
    m = np.asarray(magnetizations, dtype=float)
    return float(beta * (np.mean(m**2) - np.mean(m) ** 2) / n_sites)


@dataclass(frozen=True)
class BinderCurve:
    """U4 versus temperature for one lattice size."""

    size: int
    temperatures: np.ndarray
    u4: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.temperatures, dtype=float)
        u = np.asarray(self.u4, dtype=float)
        if t.shape != u.shape or t.ndim != 1:
            raise ValueError("temperatures and u4 must be equal-length 1-D arrays")
        if t.size < 2:
            raise ValueError("need at least two temperatures")
        if np.any(np.diff(t) <= 0):
            raise ValueError("temperatures must be strictly increasing")

    def interpolate(self, t: float) -> float:
        """Linear interpolation of U4 at temperature ``t`` (in range)."""
        t_arr = np.asarray(self.temperatures, dtype=float)
        if not t_arr[0] <= t <= t_arr[-1]:
            raise ValueError(f"t={t} outside scanned range [{t_arr[0]}, {t_arr[-1]}]")
        return float(np.interp(t, t_arr, self.u4))


def crossing_temperature(a: BinderCurve, b: BinderCurve) -> float:
    """Temperature where two Binder curves cross (linear interpolation).

    Requires the difference ``U4_a - U4_b`` to change sign exactly once
    on the common grid -- the normal situation when the scan brackets
    ``T_c`` and statistical noise is under control.  Raises otherwise
    (ambiguous data should not silently yield a number).
    """
    if a.size == b.size:
        raise ValueError("crossing needs two different lattice sizes")
    t = np.asarray(a.temperatures, dtype=float)
    if not np.array_equal(t, np.asarray(b.temperatures, dtype=float)):
        raise ValueError("curves must share one temperature grid")
    diff = np.asarray(a.u4, dtype=float) - np.asarray(b.u4, dtype=float)
    signs = np.sign(diff)
    nonzero = signs != 0
    changes = np.nonzero(np.diff(signs[nonzero]) != 0)[0]
    if changes.size == 0:
        raise ValueError("curves do not cross on the scanned grid")
    if changes.size > 1:
        raise ValueError(
            f"curves cross {changes.size} times (noisy data); refine the scan"
        )
    idx_nonzero = np.nonzero(nonzero)[0]
    k = idx_nonzero[changes[0]]
    k2 = idx_nonzero[changes[0] + 1]
    # Linear root of diff between t[k] and t[k2].
    t1, t2 = t[k], t[k2]
    d1, d2 = diff[k], diff[k2]
    return float(t1 - d1 * (t2 - t1) / (d2 - d1))
