"""The straight-column move priced by a count.

A straight column touches ``n_adj`` shaded plaquettes, each diagonal,
so flipping it has the exact log ratio ``(n_adj - 2 n_anti) D`` with
``n_anti`` the plaquettes whose neighbor spin differs from the
column's.  Pinned here:

* ``column_thresholds`` refuses a weight table the count cannot price
  (asymmetric or non-positive diagonal weights);
* on random legal configurations of chains (periodic, open, odd
  Trotter number) and square lattices (a doubled 2 x 4 and a 4 x 4),
  every straight column's ``thr[n_anti]``, counted over its row's
  ``nbr``, is the raster reference's regathered plaquette log ratio.
"""

import numpy as np
import pytest

from repro.kernels.chain_tables import column_thresholds
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.plaquette import PlaquetteTable
from tests.qmc.raster_reference import RasterChainQmc, RasterSquareQmc


def _weights():
    return PlaquetteTable.build(0.7, 1.1, 0.3).weights.copy()


@pytest.mark.parametrize("changes", [
    {15: 1.5},  # W[0] != W[15]
    {10: 1.5},  # W[5] != W[10]
    {0: 0.0, 15: 0.0},
    {5: -1.0, 10: -1.0},
])
def test_thresholds_refuse_a_table_the_count_cannot_price(changes):
    w = _weights()
    for code, value in changes.items():
        w[code] = value
    with pytest.raises(ValueError, match="plaquette weight table"):
        column_thresholds(w, 8)


def test_thresholds_are_the_count_times_the_diagonal_log_ratio():
    w = _weights()
    thr = column_thresholds(w, 6)
    d = np.log(w[5]) - np.log(w[0])
    np.testing.assert_array_equal(thr, [6 * d, 4 * d, 2 * d, 0.0, -2 * d, -4 * d, -6 * d])


GEOMETRIES = {
    "chain-8x8": lambda jz, jxy, seed: RasterChainQmc(
        XXZChainModel(8, jz=jz, jxy=jxy), 1.2, 8, seed=seed),
    "chain-6x8-open": lambda jz, jxy, seed: RasterChainQmc(
        XXZChainModel(6, jz=jz, jxy=jxy, periodic=False), 1.2, 8, seed=seed),
    "chain-10x10-odd-M": lambda jz, jxy, seed: RasterChainQmc(
        XXZChainModel(10, jz=jz, jxy=jxy), 1.5, 10, seed=seed),
    "square-2x4x8": lambda jz, jxy, seed: RasterSquareQmc(
        XXZSquareModel(2, 4, jz=jz, jxy=jxy), 0.8, 8, seed=seed),
    "square-4x4x8": lambda jz, jxy, seed: RasterSquareQmc(
        XXZSquareModel(4, 4, jz=jz, jxy=jxy), 0.8, 8, seed=seed),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_threshold_of_the_count_is_the_plaquette_log_ratio(name):
    n_checked, counts = 0, set()
    for seed, (jz, jxy) in enumerate([(1.0, 1.0), (-0.7, 0.6), (0.0, 1.3), (2.0, 0.5)]):
        q = GEOMETRIES[name](jz, jxy, seed)
        T = q.n_slices
        for _ in range(12):
            q.sweep("scalar")
            q.check_invariants()
            flat = q.spins.reshape(-1)
            for thr, sites, nbr in q._column_tables:
                assert nbr.shape == (sites.size, thr.size - 1)
                for site, neighbors in zip(sites.tolist(), nbr):
                    column = q.spins[site]
                    if column.min() != column.max():
                        continue
                    n_anti = int(np.count_nonzero(flat[neighbors] != column[0]))
                    assert thr.size - 1 in (T, T // 2)
                    assert abs(thr[n_anti] - q.column_log_ratio(site)) < 1e-12, (
                        site, n_anti)
                    n_checked += 1
                    counts.add(n_anti)
    assert n_checked > 100
    assert len(counts) > 2  # not one neighborhood over and over
