"""Per-move loop kernel ops: the ``scalar`` and ``numba`` backends.

One source, two op tables.  Each op fuses the gather -> evaluate ->
accept -> scatter of one conflict-free independence class into a single
loop over the class's moves -- the per-move statement of every
Metropolis rule whose batched statement is
:mod:`repro.kernels.numpy_backend`.  ``njit`` is numba's where numba is
importable and the identity decorator otherwise, and the module exports

* :data:`PY_OPS` -- the loops *interpreted* (a dispatcher's
  ``py_func``, or the plain function where nothing was compiled): the
  ``scalar`` backend, the per-move reference, runnable everywhere;
* :data:`OPS` -- the same loops under ``@njit(cache=True)``: the
  ``numba`` backend, available only where numba is.

As in the NumPy backend there is one world-line body pair,
``strip_corner`` / ``strip_column``, for the chain, the square lattice
and the strip driver.  Bit-identity with the NumPy backend rests on
three pillars (documented in DESIGN.md, enforced by
``tests/qmc/test_kernel_registry.py`` -- natively for ``scalar``, and
for the ``numba`` name over ``tests/qmc/fake_numba.py`` where numba is
not installed):

1. *No RNG, no transcendentals in kernels.*  Uniforms and their
   ``np.log`` values are drawn/computed by the caller with NumPy, so
   the compared numbers are identical bytes regardless of backend.
2. *Sequential per-move processing is exact.*  Moves within an
   independence class have disjoint read/write footprints by
   construction, so evaluate -> maybe-flip one move at a time
   produces the same accept decisions as NumPy's batched evaluation
   of the whole class.  (Off NumPy's grid -- open, odd and 2 x N
   world-line lattices -- a row's moves may share plaquettes; there
   only these loops run it, one move at a time in row order.)
3. *Products are sequential; columns and block sites are counts.*
   Plaquette-weight products are strictly sequential (matching
   ``prod``/``multiply.reduce``; packed K = 4 rows read them from the
   very tables the NumPy op indexes -- ``tests/qmc/test_chain_tables.py``
   holds those against the raster reference moves on every
   environment).  A straight column's flip is an integer count of its
   antiparallel neighbors looked up in the same log-ratio table, and a
   block site's flip an integer count of its neighbour sums looked up
   in the same threshold table, so there is no floating-point sum whose
   order could differ.

Dtype caveats: spins are int8 (bit flips via XOR; the Ising samplers
use +/-1 int8), gather tables are intp, weights/log-ratio tables float64.
The ops assume C-contiguous spin storage (true for every sampler) but
tolerate strided gather tables.

The registry imports this module only when ``scalar`` or ``numba`` is
what a name resolves to (``auto`` never picks ``scalar``), so without
numba a default run never loads it.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.chain_tables import wl1d_adapters

try:
    from numba import njit
except ImportError:  # no compiler: both tables run the loops interpreted
    def njit(**_options):
        return lambda fn: fn

__all__ = ["OPS", "PY_OPS"]


# -- classical Ising (serial, periodic) -------------------------------

@njit(cache=True)
def _ising_color3(s, kx, ky, kt, mask, log_u):
    lx, ly, lt = s.shape
    n_acc = 0
    for x in range(lx):
        xp = x + 1 if x + 1 < lx else 0
        xm = x - 1 if x >= 1 else lx - 1
        for y in range(ly):
            yp = y + 1 if y + 1 < ly else 0
            ym = y - 1 if y >= 1 else ly - 1
            for t in range(lt):
                if not mask[x, y, t]:
                    continue
                tp = t + 1 if t + 1 < lt else 0
                tm = t - 1 if t >= 1 else lt - 1
                sp = s[x, y, t]
                f = kx * (s[xm, y, t] + s[xp, y, t])
                f = f + ky * (s[x, ym, t] + s[x, yp, t])
                f = f + kt * (s[x, y, tm] + s[x, y, tp])
                if log_u[x, y, t] < (-2.0 * sp) * f:
                    s[x, y, t] = -sp
                    n_acc += 1
    return n_acc


# -- world-line plaquette flips (chain, square lattice, strip driver) --

# Each loop counts move m's acceptance in ``counts[m // per]``: one
# slot per chain of a row of R chains' moves, chain-major.

@njit(cache=True)
def _strip_corner_packed(flat, p_old, p_new, env, flip, uu, counts):
    per = uu.size // counts.size
    for m in range(uu.size):
        e = 0
        for b in range(16):
            e |= int(flat[env[m, b]]) << b
        if uu[m] * p_old[e] < p_new[e]:  # p_new is -1.0 on illegal moves
            for k in range(flip.shape[0]):
                flat[flip[k, m]] ^= 1
            counts[m // per] += 1


@njit(cache=True)
def _strip_corner(flat, weights, i00, i10, i01, i11, xmask, flip, uu, counts):
    per = uu.size // counts.size
    for m in range(uu.size):
        code = (
            flat[i00[0, m]] + (flat[i10[0, m]] << 1)
            + (flat[i01[0, m]] << 2) + (flat[i11[0, m]] << 3)
        )
        old = weights[code]
        new = weights[code ^ xmask[0, m]]
        for k in range(1, i00.shape[0]):
            code = (
                flat[i00[k, m]] + (flat[i10[k, m]] << 1)
                + (flat[i01[k, m]] << 2) + (flat[i11[k, m]] << 3)
            )
            old = old * weights[code]
            new = new * weights[code ^ xmask[k, m]]
        if new > 0.0 and uu[m] * old < new:
            for k in range(flip.shape[0]):
                flat[flip[k, m]] ^= 1
            counts[m // per] += 1


@njit(cache=True)
def _strip_column(loc, thr, lc, nbr, straight, log_uu, counts):
    flat = loc.reshape(-1)
    n_slices = loc.shape[1]
    per = lc.size // counts.size
    for ci in range(lc.size):
        if not straight[ci]:
            continue
        row = lc[ci]
        spin = loc[row, 0]
        n_anti = 0
        for k in range(nbr.shape[1]):
            if flat[nbr[ci, k]] != spin:
                n_anti += 1
        if log_uu[ci] < thr[n_anti]:
            for t in range(n_slices):
                loc[row, t] ^= 1
            counts[ci // per] += 1


# -- block driver (2-D decomposition of the Ising film) ---------------

@njit(cache=True)
def _block_color(g, thr, mask, log_u, rx, ry):
    nx, ny, nt = mask.shape
    ox = (g.shape[0] - nx) // 2
    oy = (g.shape[1] - ny) // 2
    n_acc = 0
    for x in range(nx):
        for y in range(ny):
            owned = rx <= x < nx - rx and ry <= y < ny - ry
            for t in range(nt):
                if not mask[x, y, t]:
                    continue
                tp = t + 1 if t + 1 < nt else 0
                tm = t - 1 if t >= 1 else nt - 1
                sp = g[ox + x, oy + y, t]
                code = g[ox + x, oy + y, tp] + g[ox + x, oy + y, tm]
                if ox:
                    code += 25 * (g[ox + x - 1, oy + y, t] + g[ox + x + 1, oy + y, t])
                if oy:
                    code += 5 * (g[ox + x, oy + y - 1, t] + g[ox + x, oy + y + 1, t])
                if log_u[x, y, t] < thr[sp * code + 62]:
                    g[ox + x, oy + y, t] = sp ^ -2
                    if owned:
                        n_acc += 1
    return n_acc


# -- the two op tables over those loops -------------------------------

def _op_table(interpreted: bool) -> dict:
    """The registry ops over the loops above as compiled, or
    (``interpreted``) over the Python functions they were compiled from
    -- the same objects where ``njit`` is the identity."""
    ising3, corner_packed, corner, column, block = (
        getattr(fn, "py_func", fn) if interpreted else fn
        for fn in (_ising_color3, _strip_corner_packed, _strip_corner,
                   _strip_column, _block_color)
    )

    def ising_color(spins, couplings, mask, log_u):
        """Checkerboard color update, lifted to 3-D for a fixed-arity jit.

        Missing trailing axes get extent 1 with zero coupling; the extra
        ``+/-0.0`` field terms cannot change an accept decision because
        ``log_u < 0`` strictly.  Mutates ``spins`` in place (the returned
        array *is* ``spins``, matching the numpy op's rebind protocol).
        Lattices beyond 3-D fall back to the numpy op.
        """
        ndim = spins.ndim
        if ndim > 3 or not spins.flags.c_contiguous:
            from repro.kernels import numpy_backend

            return numpy_backend.ising_color(spins, couplings, mask, log_u)
        shape3 = spins.shape + (1,) * (3 - ndim)
        k3 = np.zeros(3)
        k3[:ndim] = np.asarray(couplings, dtype=np.float64)[:ndim]
        n_acc = ising3(
            spins.reshape(shape3), k3[0], k3[1], k3[2],
            np.ascontiguousarray(mask).reshape(shape3),
            np.ascontiguousarray(log_u).reshape(shape3),
        )
        return spins, n_acc

    # What the numpy ops return: the total, or the per-chain counts of
    # an (R, n / R) draw.
    def strip_corner(flat, weights, gather, flip, uu):
        counts = np.zeros(len(uu) if uu.ndim == 2 else 1, np.int64)
        if isinstance(gather, tuple):  # K = 8, per-move masks: unpacked
            corner(flat, weights, *gather, flip, uu.reshape(-1), counts)
        else:
            corner_packed(flat, *weights, gather, flip, uu.reshape(-1), counts)
        return counts if uu.ndim == 2 else int(counts[0])

    def strip_column(loc, thr, lc, nbr, straight, log_uu):
        counts = np.zeros(len(log_uu) if log_uu.ndim == 2 else 1, np.int64)
        column(loc, thr, lc, nbr, straight, log_uu.reshape(-1), counts)
        return counts if log_uu.ndim == 2 else int(counts[0])

    def block_color(g, thr, mask, log_u, rim) -> int:
        return int(block(g, thr, mask, log_u, rim[0], rim[1]))

    # Compatibility adapters: the chain sampler itself calls the strip
    # ops over tables cached at construction.
    wl1d_corner, wl1d_column = wl1d_adapters(strip_corner, strip_column)
    return {
        "wl1d_corner": wl1d_corner,
        "wl1d_column": wl1d_column,
        "ising_color": ising_color,
        "strip_corner": strip_corner,
        "strip_column": strip_column,
        "block_color": block_color,
    }


#: The ``numba`` backend: the loops as ``njit`` left them.
OPS = _op_table(interpreted=False)
#: The ``scalar`` backend: the loops interpreted.
PY_OPS = _op_table(interpreted=True)
