"""Gather tables that run a periodic chain through the strip ops.

The serial chain sampler is the P=1, no-ghost case of the strip
driver: the same ``strip_corner`` / ``strip_column`` ops update it,
with the periodic wrap folded into the flat indices instead of living
in ghost columns.  The tables are static per geometry, so
:class:`~repro.qmc.worldline.WorldlineChainQmc` builds them once at
construction; the ``wl1d_*`` registry ops rebuild them per call and
exist only as compatibility adapters.  The row layout built here
(K = 4 plaquettes a move, the shared :data:`CORNER_XMASK`, bond
columns ``c - 1`` / ``c`` as the two column halves) is the chain's
instance of the contract in DESIGN.md "Kernel registry"; the
square-lattice sampler builds its K = 8 instance itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CORNER_XMASK", "column_tables", "corner_tables", "wl1d_adapters"]

#: XOR masks turning a neighbor-plaquette code into its post-flip
#: value.  A corner move flips the four spins (i, t), (i, t1),
#: (i+1, t), (i+1, t1); in the code ``s00 + 2 s10 + 4 s01 + 8 s11``
#: of the neighbors -- rows ordered (i-1, t), (i+1, t), (i, tm1),
#: (i, t1) -- those spins occupy bits {1,3}, {0,2}, {2,3}, {0,1}.
CORNER_XMASK = np.array([[10], [5], [12], [3]], dtype=np.int8)


def corner_tables(n_sites: int, n_slices: int, i: np.ndarray, t: np.ndarray):
    """``(i00, i10, i01, i11, flip)`` for corner moves at bonds ``i``,
    intervals ``t``: ``(4, n)`` indices into ``spins.reshape(-1)``.

    Rows follow the scalar reference's weight-product order (see
    :data:`CORNER_XMASK`), which fixes the floating-point result.
    """
    L, T = n_sites, n_slices
    ip1, t1 = (i + 1) % L, (t + 1) % T
    lb = np.stack([(i - 1) % L, ip1, i, i])
    pt = np.stack([t, t, (t - 1) % T, t1])
    lb1, pt1 = (lb + 1) % L, (pt + 1) % T
    flip = np.stack([i * T + t, i * T + t1, ip1 * T + t, ip1 * T + t1])
    return lb * T + pt, lb1 * T + pt, lb * T + pt1, lb1 * T + pt1, flip


def column_tables(n_sites: int, n_slices: int, cols: np.ndarray):
    """``(c00, c10, c01, c11)`` of shape ``(2, n_cols, T/2)``: the shaded
    plaquettes of bond columns ``cols - 1`` and ``cols``, whose codes a
    column flip XORs with 10 and 5 respectively."""
    L, T = n_sites, n_slices
    b = np.stack([(cols - 1) % L, cols])[:, :, None]
    b1 = (b + 1) % L
    ts = b % 2 + np.arange(0, T, 2, dtype=np.intp)  # bond b is shaded at t = b (mod 2)
    ts1 = (ts + 1) % T
    return b * T + ts, b1 * T + ts, b * T + ts1, b1 * T + ts1


def wl1d_adapters(strip_corner, strip_column):
    """The ``wl1d_corner`` / ``wl1d_column`` ops of a backend, expressed
    through its strip ops (tables rebuilt on every call)."""

    def wl1d_corner(spins, weights, i, t, u) -> int:
        """Corner flips at bonds ``i``, intervals ``t`` (one independence
        class); ``u`` is the caller's uniform draw, one per move."""
        *gather, flip = corner_tables(*spins.shape, i, t)
        return strip_corner(
            spins.reshape(-1), weights, *gather, CORNER_XMASK, flip, u
        )

    def wl1d_column(spins, logw, cols, log_u) -> int:
        """Straight-column flips at sites ``cols`` (already filtered to
        straight world lines); ``log_u = log(max(u, 1e-300))``."""
        tables = column_tables(*spins.shape, cols)
        return strip_column(spins, logw, cols, *tables, log_u)[1]

    return wl1d_corner, wl1d_column
