"""The table-driven sweeps decide every move like the scalar references.

The vectorized sweeps of :class:`WorldlineChainQmc` and
:class:`WorldlineSquareQmc` run the strip ops over index tables built
once at construction.  Here each move of each table row is replayed
alone, from thermalised configurations, against the sampler's scalar
move (``attempt_corner_flip`` / ``segment_flip_class`` /
``attempt_column_flip``) fed the same uniform: both must take the same
decision and leave the same spins, and the row's XOR mask must turn
every gathered code into the code regathered after the flip (for the
chain's packed rows the mask is ``CORNER_XMASK``, folded into the
product tables the op reads).  A property test pins the chain
geometry: the tables tile the move set exactly once.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.kernels.chain_tables import CORNER_XMASK
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc

from tests.conftest import ForcedStream, square_corner_moves


def _chain(L, T, n_sweeps):
    return WorldlineChainQmc(
        XXZChainModel(n_sites=L, jz=0.7, periodic=True), beta=1.0, n_slices=T,
        seed=L * T + n_sweeps,
    )


def _square(lx, ly, T, n_sweeps):
    return WorldlineSquareQmc(
        XXZSquareModel(lx, ly, jz=0.7), beta=1.0, n_slices=T,
        seed=lx * ly * T + n_sweeps,
    )


def _chain_corner(q, flip):
    """The scalar move behind one column of a chain corner row."""
    return ("attempt_corner_flip", *divmod(int(flip[0]), q.n_slices))


def _square_corner(q, flip):
    """... of a square-lattice row."""
    bond, t0 = square_corner_moves(q, flip[:, None])
    return "segment_flip_class", int(bond[0]), t0


#: id -> (sampler factory, scalar corner move, thermalisation sweeps)
CASES = {
    **{f"{n}-{T}-{L}": (functools.partial(_chain, L, T, n), _chain_corner, n)
       for n in (0, 25) for T in (4, 8) for L in (4, 8)},
    **{f"{n}-{lx}x{ly}x{T}": (
        functools.partial(_square, lx, ly, T, n), _square_corner, n)
       for n in (0, 25) for lx, ly, T in ((4, 4, 8), (8, 4, 16), (4, 4, 12))},
}


def _scalar_decision(q, start, u, move, *args):
    """One scalar move from ``start`` whose only possible draw is ``u``."""
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
    ops = kernels.get_ops("numpy")
    q = make()
    for _ in range(n_sweeps):
        q.sweep("numpy")
    start = q.spins.copy()
    rng = np.random.default_rng(7)
    n_corner_accepts = n_column_accepts = 0
    for gather, flip in q._corner_tables:
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
                    fused.reshape(-1), q._corner_weights, gather1,
                    flip[:, one], np.array([u]),
                )
                accepted, spins = _scalar_decision(q, start, u, *move)
                assert n_acc == accepted, (move, u)
                np.testing.assert_array_equal(fused, spins)
                n_corner_accepts += n_acc
    lines = (start == start[:, :1]).all(axis=1)  # the sweep's straight detection
    for cols, gather in q._column_tables:
        for c, site in enumerate(cols.tolist()):
            one = slice(c, c + 1)
            for u in rng.uniform(size=3):
                fused = start.copy()
                n_acc = ops["strip_column"](
                    fused, q._logw, cols[one], gather[:, :, one], lines[cols[one]],
                    np.log(np.array([u])),
                )
                accepted, spins = _scalar_decision(
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


@settings(max_examples=20, deadline=None)
@given(L=st.integers(1, 6).map(lambda k: 4 * k), T=st.integers(1, 6).map(lambda k: 4 * k))
def test_tables_tile_the_move_set_exactly_once(L, T):
    q = WorldlineChainQmc(XXZChainModel(n_sites=L, periodic=True), 1.0, T)
    assert len(q._corner_tables) == 8
    corners = np.concatenate([flip[0] for _, flip in q._corner_tables])
    i, t = np.divmod(np.arange(L * T), T)
    np.testing.assert_array_equal(np.sort(corners), np.flatnonzero((i + t) % 2 == 1))
    for (cols, *_), parity in zip(q._column_tables, (0, 1)):
        np.testing.assert_array_equal(cols, np.arange(parity, L, 2))
    sites = np.concatenate([cols for cols, *_ in q._column_tables])
    np.testing.assert_array_equal(np.sort(sites), np.arange(L))
