"""Vectorized NumPy kernel ops -- the bit-identity reference backend.

One body per kind of checkerboard update: ``strip_corner`` /
``strip_column`` flip world-line plaquette windows and straight columns
for every world-line caller (the chain and square-lattice samplers and
the strip driver differ only in the index tables they pass),
``block_color`` / ``ising_color`` are the Ising Metropolis colors (the
first priced by a count looked up in a threshold table, the second by
a float field).
Each op:

* receives the spin storage plus *precomputed* gather tables for one
  independence class (and, where a move's whole environment fits 16
  bits, precomputed weight products to look its price up in),
* receives the uniforms (or their logs) already drawn by the caller --
  no RNG and no transcendental math happens inside an op, so every
  backend consumes the identical stream and compares against the
  identical ``np.log`` values (a straight column's flip is priced by a
  lookup in a log-ratio table built once from the weights),
* mutates the spins in place for the accepted moves (``ising_color``
  returns the new spin array instead, preserving the historical
  ``np.where`` copy semantics of the serial Ising sampler),
* returns acceptance counts for the caller's telemetry.

The floating-point evaluation order of these bodies is the contract
other backends must reproduce exactly; see the "Kernel registry"
section of DESIGN.md.  Kernels are the bottom layer: this module
imports nothing from the samplers.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.chain_tables import wl1d_adapters

__all__ = ["OPS"]


def ising_color(spins, couplings, mask, log_u):
    """One checkerboard color of the serial periodic Ising sweep.

    Returns ``(new_spins, n_accepted)`` -- the serial sampler
    historically rebinds ``self.spins`` to the ``np.where`` result
    rather than mutating in place.
    """
    field = np.zeros(spins.shape)
    for axis in range(spins.ndim):
        field += couplings[axis] * (
            np.roll(spins, 1, axis=axis) + np.roll(spins, -1, axis=axis)
        )
    accept = mask & (log_u < -2.0 * spins * field)
    return np.where(accept, -spins, spins), int(np.count_nonzero(accept))


def strip_corner(flat, weights, gather, flip, uu):
    """Batched plaquette-window flips of one independence class (XOR
    code trick: a flipped neighbor is a code bit flipped, so nothing is
    flipped and regathered to price a move).

    ``flat`` is the (ghosted) spin array flattened, ``flip`` the (F, n)
    cells an accepted move flips, ``uu`` one uniform per move.  A ``(R,
    n / R)`` ``uu`` says the row is R chains' moves, chain-major; the
    op then returns the R per-chain counts instead of the total.  The K
    shaded plaquettes a move reads come in one of two forms:

    * packed (K = 4 under the shared ``CORNER_XMASK``: the chain and
      the strip driver) -- ``gather`` is the ``(n, 16)`` environment
      table of :func:`~repro.kernels.chain_tables.corner_tables` and
      ``weights`` the ``(P_old, P_new)`` pair of ``corner_products``:
      one lookup prices the move, and ``P_new``'s -1.0 sentinel
      rejects the illegal ones;
    * unpacked (the square lattice's K = 8) -- ``gather`` is ``(i00,
      i10, i01, i11, xmask)``, (K, n) flat corner indices in
      weight-product order with their per-move post-flip XOR masks, and
      ``weights`` the 16 plaquette weights.
    """
    chains = uu.shape[0] if uu.ndim == 2 else 0
    if chains:
        uu = uu.reshape(-1)
    if isinstance(gather, tuple):
        i00, i10, i01, i11, xmask = gather
        codes = (
            flat[i00] + (flat[i10] << 1) + (flat[i01] << 2) + (flat[i11] << 3)
        )
        old = np.multiply.reduce(weights[codes], axis=0)
        new = np.multiply.reduce(weights[codes ^ xmask], axis=0)
        accept = (new > 0.0) & (uu * old < new)
    else:
        p_old, p_new = weights
        # Bit 4k + c of e = corner c of plaquette k, on any host: little
        # bit order within a byte, little byte order across the two.
        e = np.packbits(flat[gather], bitorder="little").view("<u2")
        e = e.astype(np.intp)  # once here, not inside each lookup
        accept = uu * p_old[e] < p_new[e]
    flat[flip.compress(accept, axis=1)] ^= 1
    if chains:
        return accept.reshape(chains, -1).sum(axis=1)
    return int(np.count_nonzero(accept))


def strip_column(loc, thr, lc, nbr, straight, log_uu):
    """Batched straight-column flips of rows ``lc`` of ``loc``.

    ``nbr`` is the ``(n_cols, n_adj)`` flat index of the neighbor spin
    of each shaded plaquette a column touches
    (:func:`~repro.kernels.chain_tables.column_neighbors`) and ``thr``
    the ``n_adj + 1`` log ratios of
    :func:`~repro.kernels.chain_tables.column_thresholds`: a straight
    column with ``k`` neighbor spins unlike its own flips iff ``log_uu <
    thr[k]``.  ``straight`` is the caller's mask of the columns whose
    world line is straight (the counts and ``log_uu`` slots of bent
    columns are ignored).  Returns the number accepted -- per chain for
    an ``(R, n / R)`` ``log_uu``, as in :func:`strip_corner`.
    """
    chains = log_uu.shape[0] if log_uu.ndim == 2 else 0
    if chains:
        log_uu = log_uu.reshape(-1)
    anti = (loc.reshape(-1)[nbr] != loc[lc, :1]).sum(axis=1)
    accept = straight & (log_uu < thr.take(anti))
    loc[lc[accept]] ^= 1
    if chains:
        return accept.reshape(chains, -1).sum(axis=1)
    return int(np.count_nonzero(accept))


def block_color(g, thr, mask, log_u, rim) -> int:
    """One checkerboard color of the block driver's ghosted sweep.

    ``g`` is the rank's frame of spins; the sites of ``mask`` in the box
    of its shape at the frame's centre flip iff ``log_u < thr[code]``,
    ``code`` the int8 count of :mod:`~repro.kernels.ising_tables` and
    ``thr`` its table.  Spatial neighbours come from the frame -- none
    along an axis the box fills, an extent-1 one -- and temporal ones
    wrap.  Flips by XOR (``s ^ -2`` negates +-1) and returns the
    accepted count of the box less ``rim`` planes a side of each
    spatial axis: the sites the rank owns.  The code of a masked-out
    site is never used, and a ``clip`` lookup keeps it inside the table
    whatever the frame holds there.  Every temporary is the call's own:
    the thread backend's ranks run this op concurrently.
    """
    nx, ny, nt = mask.shape
    ox, oy = (g.shape[0] - nx) // 2, (g.shape[1] - ny) // 2
    xs, ys = slice(ox, ox + nx), slice(oy, oy + ny)
    # Temporal sums over the whole frame, flat and contiguous: right but
    # at the two ends of each row, which the wrap planes then set.
    frame = np.empty(g.shape, np.int8) if nt > 1 else np.zeros(g.shape, np.int8)
    if nt > 1:
        flat = g.reshape(-1)
        np.add(flat[:-2], flat[2:], out=frame.reshape(-1)[1:-1])
        np.add(g[..., -1], g[..., 1], out=frame[..., 0])
        np.add(g[..., -2], g[..., 0], out=frame[..., -1])
    code = frame[xs, ys]
    if ox:
        n = g[ox - 1 : ox - 1 + nx, ys] + g[ox + 1 : ox + 1 + nx, ys]
        n *= 25
        code += n
    if oy:
        n = g[xs, oy - 1 : oy - 1 + ny] + g[xs, oy + 1 : oy + 1 + ny]
        n *= 5
        code += n
    spins = g[xs, ys]
    code *= spins
    code += 62
    accept = log_u < thr.take(code, mode="clip")
    accept &= mask
    spins ^= accept.view(np.int8) * -2  # a where= ufunc is slower
    rx, ry = rim
    return int(np.count_nonzero(accept[rx : nx - rx, ry : ny - ry]))


# Compatibility adapters: the chain sampler itself calls the strip ops
# over tables cached at construction.
wl1d_corner, wl1d_column = wl1d_adapters(strip_corner, strip_column)

OPS = {
    "wl1d_corner": wl1d_corner,
    "wl1d_column": wl1d_column,
    "ising_color": ising_color,
    "strip_corner": strip_corner,
    "strip_column": strip_column,
    "block_color": block_color,
}
