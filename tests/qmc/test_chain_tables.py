"""The chain's packed corner rows and their weight-product tables.

A corner move reads 16 environment spins; ``strip_corner`` packs them
into one 16-bit code and prices the move with one lookup in each of
``corner_products``' two tables.  Pinned here:

* the tables against the raster reference, exhaustively -- every
  consistent environment, before and after the flip, bit for bit, and
  the -1.0 sentinel exactly on the moves the raster move self-rejects;
* the bit and byte order of the code, on a hand-written environment
  (a big-endian host, or a native ``uint16`` view, fails here instead
  of sampling wrong weights), and of the measurement's plaquette codes;
* the memoization (one read-only pair per weight table, shared by every
  sampler of a process, not rebuilt by the ``wl1d_*`` adapters);
* the sweep's draws: one for all corner colors plus one for the
  straight columns of every column class, leaving the generator where
  one draw per class with a straight column left it.
"""

import itertools

import numpy as np
import pytest

from repro import kernels
from repro.kernels import chain_tables
from repro.kernels.chain_tables import (
    CORNER_COLORS, CORNER_XMASK, corner_products, corner_tables, plaquette_codes,
)
from repro.models.hamiltonians import XXZChainModel
from repro.util.rng import SeedSequenceFactory
from tests.conftest import ForcedStream
from tests.qmc.fake_numba import numba_backend  # noqa: F401
from tests.qmc.raster_reference import RasterChainQmc

BACKENDS = ["numpy", "scalar", pytest.param("numba", marks=pytest.mark.needs_numba)]


def _chain(L=8, T=8, jz=1.0, jxy=1.0, beta=1.0, **kw):
    return RasterChainQmc(XXZChainModel(n_sites=L, jz=jz, jxy=jxy), beta, T, **kw)


# ----------------------------------------------------------------------
# (a) the tables against the raster reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jz,jxy", [(1.0, 1.0), (0.0, 1.0), (1.0, -1.0)])
def test_products_equal_the_scalar_weight_product_on_every_environment(jz, jxy):
    q = _chain(jz=jz, jxy=jxy)
    T = q.n_slices
    i, t = 2, 3  # an unshaded plaquette away from the wrap
    env, flip = corner_tables(q.L, T, np.array([i]), np.array([t]))
    cells = np.unique(env)
    assert cells.size == 12  # 16 corners, 12 distinct spins
    # the neighbors in the table's product order (CORNER_XMASK's)
    plaqs = [(i - 1, t), (i + 1, t), (i, t - 1), (i, t + 1)]
    p_old, p_new = corner_products(q.table.weights)
    flat = q.spins.reshape(-1)
    flat[:] = 0
    n_rejects = 0
    for bits in itertools.product((0, 1), repeat=12):
        flat[cells] = bits
        s = flat[env[0]].astype(np.int64)
        e = int(s @ (1 << np.arange(16)))
        w_old = q._weight_product(plaqs)
        flat[flip[:, 0]] ^= 1
        w_new = q._weight_product(plaqs)
        assert p_old[e] == w_old
        if w_new <= 0.0:  # the raster move rejects itself
            assert p_new[e] == -1.0
            n_rejects += 1
        else:
            assert p_new[e] == w_new
    assert 0 < n_rejects < 4096
    # nothing but the sentinel is non-positive, on inconsistent codes too
    assert np.all((p_new > 0.0) | (p_new == -1.0))
    assert np.all(p_old >= 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sentinel_rejects_whatever_the_uniform(backend):
    """``u * old < new`` alone decides: an illegal move (``P_new`` = -1)
    is rejected at u = 0, a legal one accepted there."""
    q = _chain(L=16, T=16, beta=2.0)
    op = kernels.get_ops(backend)["strip_corner"]
    for _ in range(3):
        q.sweep("numpy")
    start = q.spins.copy()
    q.stream = ForcedStream(0.0)
    n_legal = n_moves = 0
    for weights, env, flip in q._corner_tables:
        n = flip.shape[1]
        legal = np.zeros(n, dtype=bool)
        for m in range(n):  # the raster move at u = 0 accepts iff it is legal
            q.spins[...] = start
            legal[m] = q.attempt_corner_flip(*divmod(int(flip[0, m]), q.n_slices))
        q.spins[...] = start
        n_acc = op(q.spins.reshape(-1), weights, env, flip, np.zeros(n))
        assert n_acc == np.count_nonzero(legal)
        changed = (q.spins != start).reshape(-1)
        assert np.array_equal(np.flatnonzero(changed), np.sort(flip[:, legal].ravel()))
        n_legal += n_acc
        n_moves += n
    assert 0 < n_legal < n_moves


# ----------------------------------------------------------------------
# bit and byte order
# ----------------------------------------------------------------------


#: One hand-written environment: plaquette codes (6, 9, 12, 3), corner
#: c of plaquette k at position 4k + c.
HAND_SPINS = [0, 1, 1, 0,  1, 0, 0, 1,  0, 0, 1, 1,  1, 1, 0, 0]
HAND_CODE = 6 + 16 * 9 + 256 * 12 + 4096 * 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_hand_written_environment_indexes_the_documented_entry(backend):
    op = kernels.get_ops(backend)["strip_corner"]
    flat = np.array(HAND_SPINS + [0, 0, 0, 0], dtype=np.int8)
    env = np.arange(16, dtype=np.intp)[None, :]
    flip = np.array([[16], [17], [18], [19]], dtype=np.intp)
    p_old = np.zeros(1 << 16)
    p_new = np.full(1 << 16, -1.0)
    p_new[HAND_CODE] = 1.0
    assert op(flat, (p_old, p_new), env, flip, np.array([0.5])) == 1
    assert flat[16:].tolist() == [1, 1, 1, 1]
    p_new[:] = 1.0
    p_new[HAND_CODE] = -1.0  # and no other entry is read
    assert op(flat, (p_old, p_new), env, flip, np.array([0.5])) == 0
    # the product tables put that environment's weights there
    w = np.arange(1.0, 17.0)
    w[[0, 5, 10, 15]] = 0.0
    p_old, p_new = corner_products(w)
    assert p_old[HAND_CODE] == ((w[6] * w[9]) * w[12]) * w[3]
    assert p_new[HAND_CODE] == -1.0  # 12 ^ 12 = 0 is an illegal code
    other = 6 + 16 * 9 + 256 * 13 + 4096 * 7
    assert p_new[other] == ((w[6 ^ 10] * w[9 ^ 5]) * w[13 ^ 12]) * w[7 ^ 3] > 0.0
    assert CORNER_XMASK.ravel().tolist() == [10, 5, 12, 3]


def test_plaquette_codes_read_corner_c_as_bit_c():
    """The measurement's one-gather codes, on every code: plaquette k
    reads cells 4k .. 4k + 3, which hold the bits of k."""
    codes = np.arange(16)
    flat = ((codes[:, None] >> np.arange(4)) & 1).astype(np.int8).ravel()
    corners = np.arange(64, dtype=np.intp).reshape(16, 4)
    assert plaquette_codes(flat, corners).tolist() == codes.tolist()
    assert plaquette_codes(flat, corners[::-1]).tolist() == codes[::-1].tolist()


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------


def test_products_are_memoized_shared_and_read_only():
    a, b = _chain(seed=1), _chain(seed=2)
    packed = a._corner_tables[0][0]
    assert all(weights is packed for weights, *_ in a._corner_tables)
    assert b._corner_tables[0][0] is packed
    assert corner_products(a.table.weights.copy()) is packed
    for p in packed:
        assert p.shape == (1 << 16,) and p.dtype == np.float64
        assert not p.flags.writeable
    assert _chain(jz=0.3)._corner_tables[0][0] is not packed


@pytest.mark.parametrize("backend", BACKENDS)
def test_wl1d_adapters_reuse_the_tables_and_replay_the_sweep(backend):
    """The compatibility adapters drive the same ops: the sweep written
    with them, color by color on the same uniforms, is the sampler's."""
    ops = kernels.get_ops(backend)
    a, b = _chain(L=16, T=8, seed=4), _chain(L=16, T=8, seed=4)
    corner_products(a.table.weights)
    misses = chain_tables._corner_products.cache_info().misses
    L, T = a.L, a.n_slices
    logw = np.where(
        a.table.weights > 0, np.log(np.maximum(a.table.weights, 1e-300)), -np.inf
    )
    for _ in range(6):
        a.sweep(backend)  # the table sweep
        n_acc = 0
        for color in CORNER_COLORS:
            grids = [np.meshgrid(np.arange(ca, L, 4), np.arange(cb, T, 4), indexing="ij")
                     for ca, cb in color]
            i = np.concatenate([gi.ravel() for gi, _ in grids])
            t = np.concatenate([gt.ravel() for _, gt in grids])
            n_acc += ops["wl1d_corner"](
                b.spins, b.table.weights, i, t, b.stream.uniform(size=i.size))
        for parity in (0, 1):
            cols = np.arange(parity, L, 2)
            cols = cols[b.spins[cols].min(axis=1) == b.spins[cols].max(axis=1)]
            if cols.size:
                n_acc += ops["wl1d_column"](
                    b.spins, logw, cols, np.log(b.stream.uniform(size=cols.size)))
        b.n_accepted += n_acc
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.n_accepted == b.n_accepted
    assert a.n_accepted > 0
    assert chain_tables._corner_products.cache_info().misses == misses


# ----------------------------------------------------------------------
# (c) the sweep's draws
# ----------------------------------------------------------------------


class CountingStream:
    """A rank stream that records the size of every uniform draw."""

    def __init__(self, seed):
        self.generator = SeedSequenceFactory(seed).rank_stream(0).generator
        self.sizes = []

    def uniform(self, size=None):
        self.sizes.append(size)
        return self.generator.random(size)


@pytest.mark.parametrize(
    "L,T,n_warm", [(8, 8, 0), (4, 16, 17), (64, 16, 0), (64, 16, 12)])
def test_sweep_draws_once_for_corners_then_once_per_straight_class(L, T, n_warm):
    q = _chain(L=L, T=T, beta=4.0, stream=CountingStream(11))
    ref = SeedSequenceFactory(11).rank_stream(0).generator
    n_sweeps_with_bent_class = 0
    for sweep in range(n_warm + 3):
        q.stream.sizes.clear()
        q.sweep("numpy")
        sizes = q.stream.sizes
        # column flips keep straight lines straight and leave bent ones
        # alone: the lines now are the lines the column stage found
        lines = (q.spins == q.spins[:, :1]).all(axis=1)
        assert sizes[0] == L * T // 2  # every corner color, one draw
        # column classes: one block for all their straight columns, none
        # if there is none
        straight_classes = [int(lines[p::2].sum()) for p in (0, 1)]
        assert sizes[1:] == [sum(straight_classes)] * any(straight_classes)
        n_sweeps_with_bent_class += 0 in straight_classes
        # the parent's draws: eight per-class corner blocks, then one per
        # class with a straight column
        for _ in range(8):
            ref.random(L * T // 16)
        for s in straight_classes:
            if s:
                ref.random(s)
        assert q.stream.generator.bit_generator.state == ref.bit_generator.state
    if L == 4:  # the skipped draw is exercised
        assert n_sweeps_with_bent_class > 0


def test_one_draw_is_the_per_class_draws_concatenated():
    a = SeedSequenceFactory(3).rank_stream(0).generator
    b = SeedSequenceFactory(3).rank_stream(0).generator
    np.testing.assert_array_equal(
        a.random(512), np.concatenate([b.random(64) for _ in range(8)])
    )
