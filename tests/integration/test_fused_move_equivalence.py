"""The table-driven chain sweep decides every move like the scalar reference.

The vectorized sweep of :class:`WorldlineChainQmc` runs the strip ops
over index tables built once at construction.  Here each move of each
table is replayed alone, from thermalised configurations, against
``attempt_corner_flip`` / ``attempt_column_flip`` fed the same uniform:
both must take the same decision and leave the same spins.  A property
test pins the geometry: the tables tile the move set exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.kernels.chain_tables import CORNER_XMASK
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.worldline import WorldlineChainQmc

from tests.conftest import ForcedStream


def _thermalised(L, T, seed, n_sweeps):
    q = WorldlineChainQmc(
        XXZChainModel(n_sites=L, jz=0.7, periodic=True), beta=1.0, n_slices=T, seed=seed
    )
    for _ in range(n_sweeps):
        q.sweep("numpy")
    return q


def _scalar_decision(q, start, u, move, *args):
    """One scalar move from ``start`` whose only possible draw is ``u``."""
    q.spins = start.copy()
    q.stream = ForcedStream(u)
    accepted = getattr(q, move)(*args)
    return accepted, q.spins


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("T", [4, 8])
@pytest.mark.parametrize("n_sweeps", [0, 25])
def test_every_table_move_matches_the_scalar_reference(L, T, n_sweeps):
    ops = kernels.get_ops("numpy")
    q = _thermalised(L, T, seed=L * T + n_sweeps, n_sweeps=n_sweeps)
    start = q.spins.copy()
    rng = np.random.default_rng(7)
    n_corner_accepts = n_column_accepts = 0
    for *gather, flip in q._corner_tables:
        for m in range(flip.shape[1]):
            i, t = divmod(int(flip[0, m]), T)
            one = slice(m, m + 1)
            for u in rng.uniform(size=3):
                fused = start.copy()
                n_acc = ops["strip_corner"](
                    fused.reshape(-1), q.table.weights, *(g[:, one] for g in gather),
                    CORNER_XMASK, flip[:, one], np.array([u]),
                )
                accepted, spins = _scalar_decision(
                    q, start, u, "attempt_corner_flip", i, t
                )
                assert n_acc == int(accepted), (i, t, u)
                np.testing.assert_array_equal(fused, spins)
                n_corner_accepts += n_acc
    for cols, *tables in q._column_tables:
        for c, site in enumerate(cols.tolist()):
            one = slice(c, c + 1)
            for u in rng.uniform(size=3):
                fused = start.copy()
                n_straight, n_acc = ops["strip_column"](
                    fused, q._logw, cols[one], *(tab[:, one] for tab in tables),
                    np.log(np.array([u])),
                )
                accepted, spins = _scalar_decision(
                    q, start, u, "attempt_column_flip", site
                )
                assert n_straight == int(start[site].min() == start[site].max())
                assert n_acc == int(accepted), (site, u)
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
    corners = np.concatenate([flip[0] for *_, flip in q._corner_tables])
    i, t = np.divmod(np.arange(L * T), T)
    np.testing.assert_array_equal(np.sort(corners), np.flatnonzero((i + t) % 2 == 1))
    for (cols, *_), parity in zip(q._column_tables, (0, 1)):
        np.testing.assert_array_equal(cols, np.arange(parity, L, 2))
    sites = np.concatenate([cols for cols, *_ in q._column_tables])
    np.testing.assert_array_equal(np.sort(sites), np.arange(L))
