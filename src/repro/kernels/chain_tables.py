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

A straight column's flip is priced by a count.  Every shaded plaquette
the column touches holds two of its (equal) spins, and world-line
conservation makes the other two -- one neighbor column's, at the same
two slices -- equal as well: the plaquette is diagonal, parallel (code
0 or 15) or antiparallel (5 or 10), and the flip swaps the two.  With
``n_anti`` of its ``n_adj`` plaquettes antiparallel the exact log
ratio is ``(n_adj - 2 n_anti) D``, ``D = ln W_anti - ln W_par``, so a
column row is ``(thr, sites, nbr)``: :func:`column_thresholds` holds
that ratio for every count and :func:`column_neighbors` the one
neighbor spin of each plaquette.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "CORNER_COLORS",
    "CORNER_XMASK",
    "chain_rows",
    "column_neighbors",
    "column_thresholds",
    "corner_products",
    "corner_tables",
    "plaquette_codes",
    "shaded_corners",
    "unpacked_rows",
    "wl1d_adapters",
]

#: XOR masks turning a neighbor-plaquette code into its post-flip
#: value.  A corner move flips the four spins (i, t), (i, t1),
#: (i+1, t), (i+1, t1); in the code ``s00 + 2 s10 + 4 s01 + 8 s11``
#: of the neighbors -- rows ordered (i-1, t), (i+1, t), (i, tm1),
#: (i, t1) -- those spins occupy bits {1,3}, {0,2}, {2,3}, {0,1}.
CORNER_XMASK = np.array([[10], [5], [12], [3]], dtype=np.int8)

#: The chain sweep's corner colors, in sweep order: each joins the
#: stride-4 class (bond a, interval b) with (a + 2, b + 2), whose moves
#: never interact (:func:`chain_rows`).  Four colors is the fewest the
#: corner moves admit: their interaction graph is a king's graph.
CORNER_COLORS = (
    ((0, 1), (2, 3)), ((0, 3), (2, 1)), ((1, 0), (3, 2)), ((1, 2), (3, 0)),
)

_CODE_MULTIPLIER = np.uint32(0x01020408)


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


def column_thresholds(weights: np.ndarray, n_adj: int) -> np.ndarray:
    """``thr[k] = (n_adj - 2 k) D`` for ``k = 0 .. n_adj``: the log
    ratio of flipping a straight column that touches ``n_adj`` shaded
    plaquettes, ``k`` of them antiparallel (``D = ln W[5] - ln W[0]``).

    The count prices the flip exactly only if the diagonal weights are
    symmetric and positive -- ``W[0] == W[15]``, ``W[5] == W[10]`` --
    so any other table is a ``ValueError``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w[0] != w[15] or w[5] != w[10] or min(w[0], w[5]) <= 0.0:
        raise ValueError(
            "column thresholds need a plaquette weight table with W[0] == "
            f"W[15] > 0 and W[5] == W[10] > 0; got W[0]={w[0]!r}, "
            f"W[15]={w[15]!r}, W[5]={w[5]!r}, W[10]={w[10]!r}"
        )
    return (n_adj - 2 * np.arange(n_adj + 1)) * (np.log(w[5]) - np.log(w[0]))


def column_neighbors(n_sites: int, n_slices: int, cols: np.ndarray) -> np.ndarray:
    """``(n_cols, T)`` flat index of the neighbor spin of each shaded
    plaquette that columns ``cols`` touch, one row a column, one entry
    an interval ``t``: bond ``c - 1`` is shaded at ``t = c - 1 (mod
    2)`` and bond ``c`` at ``t = c``, so the neighbor is site ``c - 1``
    or ``c + 1`` (modulo ``n_sites``) at slice ``t``."""
    t = np.arange(n_slices, dtype=np.intp)
    side = 1 - 2 * ((t - cols[:, None]) % 2)
    return (cols[:, None] + side) % n_sites * n_slices + t


def shaded_corners(n_sites: int, n_slices: int, bonds: np.ndarray) -> np.ndarray:
    """``(n, 4)`` flat indices of the corners (s00, s10, s01, s11) of
    the shaded plaquettes of ``bonds`` -- bond ``b`` is shaded at ``t =
    b (mod 2)`` -- bond-major, slices ascending: the rows
    :func:`plaquette_codes` reads."""
    L, T = n_sites, n_slices
    b = np.repeat(bonds, T // 2)
    t = (bonds[:, None] % 2 + np.arange(0, T, 2, dtype=np.intp)).ravel()
    b1, t1 = (b + 1) % L, (t + 1) % T
    return np.stack([b * T + t, b1 * T + t, b * T + t1, b1 * T + t1], axis=1)


def plaquette_codes(flat: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Codes ``s00 + 2 s10 + 4 s01 + 8 s11`` of the plaquettes whose
    ``(n, 4)`` corner indices into the 0/1 int8 spins ``flat`` are
    ``corners``, in row order.

    One gather: a row's four spin bytes read as one little-endian word
    ``v`` are ``s00 + s10 << 8 + s01 << 16 + s11 << 24``, and ``v *
    0x01020408`` (wrapping uint32) sums the code into its top byte --
    each lower byte of the product holds at most 15, so none carries.
    """
    words = flat[corners].view("<u4")[:, 0]
    return (words * _CODE_MULTIPLIER) >> 24


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
    ``strip_column`` rows ``(thr, sites, nbr)``, in the one order a
    sweep takes them.

    Corner rows follow the four colors of :data:`CORNER_COLORS`, each
    two stride-4 classes -- (bond a, interval b) grids with (a + b)
    odd -- in the order listed, and column rows the two site parities.
    A corner move at (i, t) writes sites {i, i+1} at slices {t, t+1}
    and reads sites i-1 .. i+2 at {t, t+1} and {i, i+1} at t-1 .. t+2,
    so two moves interact iff they are (±1, ±1), (±2, 0) or (0, ±2)
    apart: classes (2, 2) apart never do.  With a periodic ``L % 4 == T % 4 ==
    0`` every color is therefore one conflict-free packed row.
    Elsewhere moves of a color may share plaquettes, which only the
    per-move loops, taking them in row order, can run.  An open chain's
    end bonds read three neighbor plaquettes (two on ``L = 2``, where a
    periodic chain's two bonds also join the same pair), so their corner
    moves are unpacked rows; its end sites touch the T/2 plaquettes of
    their one bond, so they follow their parity's inner columns as a row
    of their own.
    """
    L, T = n_sites, n_slices
    n_bonds = L if periodic else L - 1
    packed = corner_products(weights)
    corner_rows = []
    for color in CORNER_COLORS:
        grids = [
            np.meshgrid(np.arange(a, n_bonds, 4, dtype=np.intp),
                        np.arange(b, T, 4, dtype=np.intp), indexing="ij")
            for a, b in color
        ]
        i = np.concatenate([gi.ravel() for gi, _ in grids])
        t = np.concatenate([gt.ravel() for _, gt in grids])
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
    thr = column_thresholds(weights, T)
    column_rows = []
    for p in (0, 1):
        sites = np.arange(p, L, 2, dtype=np.intp)
        if periodic:
            column_rows.append((thr, sites, column_neighbors(L, T, sites)))
            continue
        end = (sites == 0) | (sites == L - 1)
        inner, ends = sites[~end], sites[end]
        column_rows.append((thr, inner, column_neighbors(L, T, inner)))
        if ends.size:
            # Site 0 touches bond 0 at t = 0 (mod 2), site L-1 bond L-2
            # at t = L - 2: the intervals where its neighbor is in the chain.
            t = np.arange(T)
            own = (t - ends[:, None]) % 2 == (ends[:, None] > 0)
            nbr = column_neighbors(L, T, ends)[own].reshape(ends.size, T // 2)
            column_rows.append((column_thresholds(weights, T // 2), ends, nbr))
    return corner_rows, column_rows


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
        straight world lines) of a periodic chain priced from the 16
        plaquette log weights ``logw``; ``log_u = log(max(u, 1e-300))``."""
        L, T = spins.shape
        return strip_column(
            spins, column_thresholds(np.exp(logw), T), cols,
            column_neighbors(L, T, cols), np.ones(cols.size, dtype=bool), log_u,
        )

    return wl1d_corner, wl1d_column
