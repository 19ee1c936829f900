"""Gather and weight tables that run a chain through the strip ops.

The serial chain sampler is the P=1, no-ghost case of the strip
driver: the same ``strip_corner`` / ``strip_column`` ops update it,
with the periodic wrap folded into the flat indices instead of living
in ghost columns.  The tables are static per geometry, so
:class:`~repro.qmc.worldline.WorldlineChainQmc` builds them once at
construction (:func:`chain_rows`, any length, open or periodic); the
``wl1d_*`` registry ops rebuild the index tables per call and exist
only as compatibility adapters.

A corner move reads K = 4 neighbor plaquettes under one shared XOR
mask (:data:`CORNER_XMASK`), so its 16 environment spins are *packed*:
:func:`corner_tables` lays them out as one ``(n, 16)`` gather whose
bits form a 16-bit environment code, and :func:`corner_products` holds
the weight product before and after the flip for every code.  This is
the chain's instance of the row contract in DESIGN.md "Kernel
registry".  Moves that read fewer plaquettes -- an open chain's end
bonds, the square lattice's doubled pairs -- are unpacked rows with
per-move masks (:func:`unpacked_rows`), as are the square-lattice
sampler's K = 8 moves (32 environment bits have no table).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "CORNER_XMASK",
    "chain_rows",
    "column_log_weights",
    "column_tables",
    "corner_products",
    "corner_tables",
    "unpacked_rows",
    "wl1d_adapters",
]

#: XOR masks turning a neighbor-plaquette code into its post-flip
#: value.  A corner move flips the four spins (i, t), (i, t1),
#: (i+1, t), (i+1, t1); in the code ``s00 + 2 s10 + 4 s01 + 8 s11``
#: of the neighbors -- rows ordered (i-1, t), (i+1, t), (i, tm1),
#: (i, t1) -- those spins occupy bits {1,3}, {0,2}, {2,3}, {0,1}.
CORNER_XMASK = np.array([[10], [5], [12], [3]], dtype=np.int8)

#: Code permutations of a column flip: a plaquette whose right-hand
#: corners the column holds goes ``h -> h ^ 10``, a left-hand one
#: ``h -> h ^ 5`` (row 0 is the identity, the pre-flip table).
_COLUMN_XCODES = np.arange(16) ^ np.array([[0], [10], [5]])


@lru_cache(maxsize=8)
def _corner_products(weights: bytes):
    w = np.frombuffer(weights)
    codes = np.arange(16)
    tables = []
    for masks in (np.zeros_like(CORNER_XMASK), CORNER_XMASK):
        w0, w1, w2, w3 = w[codes ^ masks]
        # ((w0 w1) w2) w3 on axes [k3, k2, k1, k0]: the scalar
        # reference's product order, which fixes every float.
        p = (((w0 * w1[:, None]) * w2[:, None, None]) * w3[:, None, None, None])
        tables.append(p.reshape(-1))
    p_old, p_new = tables
    p_new[p_new <= 0.0] = -1.0
    for p in tables:
        p.flags.writeable = False
    return p_old, p_new


def corner_products(weights: np.ndarray):
    """``(P_old, P_new)``: for each of the 65,536 environment codes
    ``e`` of :func:`corner_tables` (plaquette ``k``'s code is ``(e >>
    4k) & 15``), the neighbors' weight product ``((w0 w1) w2) w3``
    before the corner flip and after it (codes XORed with
    :data:`CORNER_XMASK`).  ``P_new`` stores -1.0 where the product is
    not positive: ``u * P_old[e] < P_new[e]`` alone is then the accept
    rule, since its left side is never negative.

    Memoized on the weights' bytes: every chain, team and strip rank of
    a process shares one read-only pair (1 MB, built in well under a
    millisecond).
    """
    return _corner_products(np.ascontiguousarray(weights, dtype=np.float64).tobytes())


def column_log_weights(weights: np.ndarray) -> np.ndarray:
    """``(3, 16)`` log weights for the column op: ``logw[h]``,
    ``logw[h ^ 10]``, ``logw[h ^ 5]`` (``-inf`` on illegal codes)."""
    logw = np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)
    return logw[_COLUMN_XCODES]


def corner_tables(n_sites: int, n_slices: int, i: np.ndarray, t: np.ndarray):
    """``(env, flip)`` for corner moves at bonds ``i``, intervals ``t``,
    as indices into ``spins.reshape(-1)``: ``env`` is ``(n, 16)`` with
    column ``4k + c`` the corner ``c`` (s00, s10, s01, s11) of neighbor
    plaquette ``k``, ``flip`` the ``(4, n)`` cells an accepted move
    flips.

    Plaquettes follow the order of :data:`CORNER_XMASK`, which
    :func:`corner_products` multiplies in.
    """
    corners, flip = _corner_moves(n_sites, n_slices, i, t)
    # C order matters: a gather inherits the memory order of its index.
    return np.ascontiguousarray(corners.transpose(1, 0, 2).reshape(16, -1).T), flip


def _corner_moves(L: int, T: int, i: np.ndarray, t: np.ndarray):
    """``(corners, flip)`` of corner moves at bonds ``i``, intervals
    ``t``: ``corners[c, k]`` the flat index of corner ``c`` of neighbor
    plaquette ``k`` (in :data:`CORNER_XMASK`'s order), and the ``(4, n)``
    cells a move flips."""
    ip1, t1 = (i + 1) % L, (t + 1) % T
    lb = np.stack([(i - 1) % L, ip1, i, i])
    pt = np.stack([t, t, (t - 1) % T, t1])
    lb1, pt1 = (lb + 1) % L, (pt + 1) % T
    corners = np.stack([lb * T + pt, lb1 * T + pt, lb * T + pt1, lb1 * T + pt1])
    return corners, np.stack([i * T + t, i * T + t1, ip1 * T + t, ip1 * T + t1])


def unpacked_rows(corners: np.ndarray, keep: np.ndarray, flip: np.ndarray) -> list:
    """Unpacked ``strip_corner`` rows ``((i00, i10, i01, i11, xmask),
    flip)`` of moves that read the plaquette slots ``corners`` -- ``(4,
    K, n)`` flat corner indices in weight-product order, slot ``k`` of
    move ``m`` read where ``keep[k, m]`` -- and flip the ``(F, n)``
    cells ``flip``: one row per number of slots read, each move's read
    slots in their order, moves in theirs.

    A move's XOR masks are read off its own flip cells -- the corners
    whose cells it flips -- never from a formula: on small lattices one
    site can fill several corners of one plaquette.
    """
    n_read = keep.sum(axis=0)
    rows = []
    for k in sorted(set(n_read.tolist())):
        sel = np.flatnonzero(n_read == k)
        slots = np.argsort(~keep[:, sel], axis=0, kind="stable")[:k]
        c = np.take_along_axis(corners[:, :, sel], slots[None], axis=1)
        f = np.ascontiguousarray(flip[:, sel])
        flipped = np.zeros(c.shape, dtype=bool)  # (4 corners, k, n)
        for cell in f:
            flipped |= c == cell
        xmask = (flipped << np.arange(4)[:, None, None]).sum(axis=0)
        rows.append(((*c, xmask.astype(np.int8)), f))
    return rows


def chain_rows(n_sites: int, n_slices: int, periodic: bool, weights: np.ndarray):
    """``(corner_rows, column_rows)``: a chain's whole move set as
    ``strip_corner`` rows ``(weights, gather, flip)`` and
    ``strip_column`` rows ``(logw, sites, gather)``, in the one order a
    sweep takes them.

    Corner rows follow the eight stride-4 classes -- (bond a, interval
    b) grids with (a + b) odd, in (a, b) order -- and column rows the
    two site parities.  With a periodic ``L % 4 == T % 4 == 0`` every
    class is one conflict-free packed row.  Elsewhere moves of a class
    may share plaquettes, which only the per-move loops, taking them in
    row order, can run.  An open chain's end bonds read three neighbor
    plaquettes (two on ``L = 2``, where a periodic chain's two bonds
    also join the same pair), so their corner moves are unpacked rows;
    its end sites' columns read their one bond, each a row of its own
    whose gather repeats that bond in the other half, where ``logw``
    keeps the pre-flip weights.
    """
    L, T = n_sites, n_slices
    n_bonds = L if periodic else L - 1
    packed, logw = corner_products(weights), column_log_weights(weights)
    corner_rows = []
    for a, b in ((a, b) for a in range(4) for b in range(4) if (a + b) % 2):
        gi, gt = np.meshgrid(
            np.arange(a, n_bonds, 4, dtype=np.intp),
            np.arange(b, T, 4, dtype=np.intp),
            indexing="ij",
        )
        i, t = gi.ravel(), gt.ravel()
        keep = np.ones((4, i.size), dtype=bool)  # neighbors (i-1, t), (i+1, t), ...
        if periodic:
            keep[1] = L > 2
        else:
            keep[0], keep[1] = i > 0, i < n_bonds - 1
        inner = keep.all(axis=0)
        if inner.any():
            corner_rows.append((packed, *corner_tables(L, T, i[inner], t[inner])))
        if not inner.all():
            corners, flip = _corner_moves(L, T, i[~inner], t[~inner])
            corner_rows += [(weights, *row) for row in unpacked_rows(
                corners, keep[:, ~inner], flip)]
    column_rows = []
    for p in (0, 1):
        sites = np.arange(p, L, 2, dtype=np.intp)
        if periodic:
            column_rows.append((logw, sites, column_tables(L, T, sites)))
            continue
        inner = sites[(sites > 0) & (sites < L - 1)]
        column_rows.append((logw, inner, column_tables(L, T, inner)))
        for site in sites[(sites == 0) | (sites == L - 1)]:
            gather = column_tables(L, T, site[None])
            own = int(site == 0)  # site 0 is its bond's left site: half 1
            gather[:, 1 - own] = gather[:, own]
            row_logw = logw.copy()
            row_logw[2 - own] = logw[0]
            column_rows.append((row_logw, site[None], gather))
    return corner_rows, column_rows


def column_tables(n_sites: int, n_slices: int, cols: np.ndarray) -> np.ndarray:
    """``(4, 2, n_cols, T/2)`` gather of the shaded plaquettes' corners
    (s00, s10, s01, s11 first) of bond columns ``cols - 1`` and
    ``cols``, whose codes a column flip XORs with 10 and 5 respectively."""
    L, T = n_sites, n_slices
    b = np.stack([(cols - 1) % L, cols])[:, :, None]
    b1 = (b + 1) % L
    ts = b % 2 + np.arange(0, T, 2, dtype=np.intp)  # bond b is shaded at t = b (mod 2)
    ts1 = (ts + 1) % T
    return np.stack([b * T + ts, b1 * T + ts, b * T + ts1, b1 * T + ts1])


def wl1d_adapters(strip_corner, strip_column):
    """The ``wl1d_corner`` / ``wl1d_column`` ops of a backend, expressed
    through its strip ops (index tables rebuilt on every call, weight
    products memoized)."""

    def wl1d_corner(spins, weights, i, t, u) -> int:
        """Corner flips at bonds ``i``, intervals ``t`` (one independence
        class); ``u`` is the caller's uniform draw, one per move."""
        env, flip = corner_tables(*spins.shape, i, t)
        return strip_corner(
            spins.reshape(-1), corner_products(weights), env, flip, u
        )

    def wl1d_column(spins, logw, cols, log_u) -> int:
        """Straight-column flips at sites ``cols`` (already filtered to
        straight world lines); ``log_u = log(max(u, 1e-300))``."""
        return strip_column(
            spins, logw[_COLUMN_XCODES], cols,
            column_tables(*spins.shape, cols),
            np.ones(cols.size, dtype=bool), log_u,
        )

    return wl1d_corner, wl1d_column
