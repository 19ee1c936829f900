"""The threshold table that prices an Ising flip by a count.

A site's Metropolis decision ``log u < -2 s (kx n_x + ky n_y + kt n_t)``
depends on its spin ``s`` and its three neighbour sums ``n_a``, each in
{-2, 0, 2}, only through the count ``code = s (25 n_x + 5 n_y + n_t) +
62``, an int8 in [0, 124] whose base-5 digits are the three ``s n_a +
2``.  :func:`ising_thresholds` tabulates the right-hand side once per
coupling triple, ``thr[code]``; the ``block_color`` op of every backend
reads it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ising_thresholds"]


@lru_cache(maxsize=16)
def _thresholds(kx: float, ky: float, kt: float) -> np.ndarray:
    code = np.arange(125)
    sx, sy, st = code // 25 - 2, code // 5 % 5 - 2, code % 5 - 2
    # The order the float op summed the field in: x, then y, then t.
    field = kx * sx
    field = field + ky * sy
    field = field + kt * st
    thr = -2.0 * field
    thr.flags.writeable = False
    return thr


def ising_thresholds(kx: float, ky: float, kt: float) -> np.ndarray:
    """The 125 flip thresholds of couplings ``(kx, ky, kt)``: ``thr[code]``
    is ``-2 s (kx n_x + ky n_y + kt n_t)`` for every site of count
    ``code`` (module docstring), bit for bit the product the float field
    gave -- ``s`` flips the sign of each term exactly.  Memoized and
    read-only: the ranks of a process share it."""
    return _thresholds(float(kx), float(ky), float(kt))
