"""The table-driven sweeps decide every move like the raster references.

The sweeps of :class:`WorldlineChainQmc` and :class:`WorldlineSquareQmc`
run the strip ops over index tables built once at construction, on
every geometry.  Here each move of each table row is replayed alone,
from thermalised configurations, against the raster reference move of
``tests/qmc/raster_reference.py`` (``attempt_corner_flip`` /
``segment_flip_class`` / ``attempt_window_flip`` /
``attempt_column_flip``) fed the same uniform: both must take the same
decision and leave the same spins, and the row's XOR mask must turn
every gathered code into the code regathered after the flip (for the
chain's packed rows the mask is ``CORNER_XMASK``, folded into the
product tables the op reads).  The geometries include the ones only
the per-move loops run: open chains, ``L % 4 != 0``, odd M, and the
2 x N and 6 x 6 lattices.  A property test pins the chain geometry:
the tables tile the move set exactly once, one color of
``CORNER_COLORS`` after another, and no move of a batched row touches
a cell another move of that row flips.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.kernels.chain_tables import CORNER_COLORS, CORNER_XMASK
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.worldline import WorldlineChainQmc

from tests.conftest import ForcedStream
from tests.qmc.raster_reference import RasterChainQmc, RasterSquareQmc


def _chain(L, T, n_sweeps, periodic=True):
    return RasterChainQmc(
        XXZChainModel(n_sites=L, jz=0.7, periodic=periodic), beta=1.0, n_slices=T,
        seed=L * T + n_sweeps,
    )


def _square(lx, ly, T, n_sweeps):
    return RasterSquareQmc(
        XXZSquareModel(lx, ly, jz=0.7), beta=1.0, n_slices=T,
        seed=lx * ly * T + n_sweeps,
    )


def _chain_corner(q, flip):
    """The raster move behind one column of a chain corner row."""
    return ("attempt_corner_flip", *divmod(int(flip[0]), q.n_slices))


def _square_corner(q, flip):
    """... of a square-lattice row: sites i then j flipped over slices
    t1+1 .. t2, a segment move where one bond bounds the window, else a
    doubled pair's window move."""
    T, C = q.n_slices, q.N_COLORS
    (i, first), (j, t2) = divmod(int(flip[0]), T), divmod(int(flip[-1]), T)
    t1 = (first - 1) % T
    half = flip.size // 2
    np.testing.assert_array_equal(flip[:half] // T, i)
    np.testing.assert_array_equal(flip[half:] // T, j)
    if t1 % C == t2 % C:
        return "segment_flip_class", int(q.bond_of[i, t1 % C]), np.array([t1])
    return "attempt_window_flip", i, j, t1, t2


#: id -> (sampler factory, raster corner move, thermalisation sweeps)
CASES = {
    **{f"{n}-{T}-{L}": (functools.partial(_chain, L, T, n), _chain_corner, n)
       for n in (0, 25)
       for T, L in ((4, 4), (4, 8), (8, 4), (8, 8), (8, 10), (10, 8))},
    **{f"{n}-{T}-{L}-open": (
        functools.partial(_chain, L, T, n, periodic=False), _chain_corner, n)
       for n in (0, 25) for T, L in ((8, 6), (8, 8))},
    **{f"{n}-{lx}x{ly}x{T}": (
        functools.partial(_square, lx, ly, T, n), _square_corner, n)
       for n in (0, 25)
       for lx, ly, T in ((4, 4, 8), (8, 4, 16), (4, 4, 12),
                         (2, 2, 8), (2, 4, 8), (2, 4, 12), (6, 6, 8))},
}


def _raster_decision(q, start, u, move, *args):
    """One raster move from ``start`` whose only possible draw is ``u``."""
    q.spins = start.copy()
    q.stream = ForcedStream(u)
    before = q.n_accepted
    getattr(q, move)(*args)
    return q.n_accepted - before, q.spins


def _codes(flat, gather):
    s00, s10, s01, s11 = (flat[g] for g in gather)
    return s00 + (s10 << 1) + (s01 << 2) + (s11 << 3)


def _one_move(gather, m):
    """Move ``m`` of a corner row: ``(the row's gather cut down to it, its
    (K, 1) corner index tables, its XOR mask)``."""
    one = slice(m, m + 1)
    if isinstance(gather, tuple):  # unpacked: (i00, i10, i01, i11, xmask)
        *corners, xmask = (g[:, one] for g in gather)
        return (*corners, xmask), corners, xmask
    env = gather[one]  # packed: column 4k + c = corner c of plaquette k
    return env, list(env.reshape(4, 4).T[:, :, None]), CORNER_XMASK


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_table_move_matches_the_scalar_reference(case):
    make, corner_move, n_sweeps = CASES[case]
    ops = kernels.get_ops("numpy")  # exact on any one-move row
    q = make()
    for _ in range(n_sweeps):
        q.sweep()
    start = q.spins.copy()
    rng = np.random.default_rng(7)
    n_corner_accepts = n_column_accepts = 0
    for weights, gather, flip in q._corner_tables:
        for m in range(flip.shape[1]):
            one = slice(m, m + 1)
            gather1, corners1, xmask1 = _one_move(gather, m)
            flipped = start.reshape(-1).copy()
            flipped[flip[:, m]] ^= 1
            np.testing.assert_array_equal(
                _codes(start.reshape(-1), corners1) ^ xmask1, _codes(flipped, corners1)
            )
            move = corner_move(q, flip[:, m])
            for u in rng.uniform(size=3):
                fused = start.copy()
                n_acc = ops["strip_corner"](
                    fused.reshape(-1), weights, gather1, flip[:, one], np.array([u]),
                )
                accepted, spins = _raster_decision(q, start, u, *move)
                assert n_acc == accepted, (move, u)
                np.testing.assert_array_equal(fused, spins)
                n_corner_accepts += n_acc
    lines = (start == start[:, :1]).all(axis=1)  # the sweep's straight detection
    for thr, cols, nbr in q._column_tables:
        assert nbr.shape == (cols.size, thr.size - 1)  # one neighbor a plaquette
        for c, site in enumerate(cols.tolist()):
            one = slice(c, c + 1)
            for u in rng.uniform(size=3):
                fused = start.copy()
                n_acc = ops["strip_column"](
                    fused, thr, cols[one], nbr[one], lines[cols[one]],
                    np.log(np.array([u])),
                )
                accepted, spins = _raster_decision(
                    q, start, u, "attempt_column_flip", site
                )
                assert lines[site] == (start[site].min() == start[site].max())
                assert n_acc == accepted, (site, u)
                np.testing.assert_array_equal(fused, spins)
                n_column_accepts += n_acc
    # The comparison is not vacuous: both move types fire somewhere.
    assert n_corner_accepts > 0
    if n_sweeps == 0:
        assert n_column_accepts > 0


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 24), T=st.integers(2, 12).map(lambda k: 2 * k),
       periodic=st.booleans())
def test_tables_tile_the_move_set_exactly_once(L, T, periodic):
    """On any chain, open or periodic, on the batched grid or off it."""
    L += periodic and L % 2  # periodic chains have an even length
    q = WorldlineChainQmc(XXZChainModel(n_sites=L, periodic=periodic), 1.0, T)
    if q.can_vectorize:
        for (_, cols, _), parity in zip(q._column_tables, (0, 1)):
            np.testing.assert_array_equal(cols, np.arange(parity, L, 2))
    corners = np.concatenate([flip[0] for *_, flip in q._corner_tables])
    assert corners.size == q._n_corner_moves
    i, t = np.divmod(np.arange(L * T), T)
    np.testing.assert_array_equal(
        np.sort(corners), np.flatnonzero(((i + t) % 2 == 1) & (i < q.n_bonds)))
    for _, cols, _ in q._column_tables:
        assert np.all(cols % 2 == cols[:1] % 2)  # one parity a row
    sites = np.concatenate([cols for _, cols, _ in q._column_tables])
    np.testing.assert_array_equal(np.sort(sites), np.arange(L))


@pytest.mark.parametrize("L,T,periodic", [
    *((L, T, True) for L in (4, 8, 12, 16) for T in (4, 8, 12, 16)),
    (12, 8, False), (10, 8, False),
])
def test_corner_rows_are_the_four_colors(L, T, periodic):
    """A chain sweep's corner rows are ``CORNER_COLORS`` in order, they
    tile the corner moves exactly once, and on the batched op's grid no
    move of a row reads or writes a cell another move of it flips --
    what lets the whole row be decided at once."""
    q = WorldlineChainQmc(XXZChainModel(n_sites=L, periodic=periodic), 1.0, T)
    assert q.can_vectorize == (periodic and L % 4 == 0 and T % 4 == 0)
    seen, colors = [], []
    for _, gather, flip in q._corner_tables:
        i, t = np.divmod(flip[0], T)  # the move's (bond, interval)
        classes = set(zip((i % 4).tolist(), (t % 4).tolist()))
        color = next(k for k, c in enumerate(CORNER_COLORS) if classes <= set(c))
        colors.append(color)
        seen.append(flip[0])
        if not q.can_vectorize:
            continue
        # on the grid every row is packed: ``gather`` is each move's reads
        moves = np.arange(flip.shape[1])[:, None]
        owner = np.full(L * T, -1)
        owner[flip.T] = moves
        assert np.count_nonzero(owner >= 0) == flip.size  # disjoint writes
        assert np.all((owner[gather] == -1) | (owner[gather] == moves))
    assert colors == sorted(colors)  # one color after another, in order
    if q.can_vectorize:
        assert colors == list(range(len(CORNER_COLORS)))  # one row a color
    corners = np.sort(np.concatenate(seen))
    i, t = np.divmod(np.arange(L * T), T)
    np.testing.assert_array_equal(
        corners, np.flatnonzero(((i + t) % 2 == 1) & (i < q.n_bonds)))
