"""Tests for domain decompositions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.lattice.decomposition import BlockDecomposition, StripDecomposition


class TestStripDecomposition:
    def test_covers_all_columns_once(self):
        d = StripDecomposition(17, 4)
        owned = [c for p in d.pieces for c in range(p.start, p.stop)]
        assert owned == list(range(17))

    def test_balanced_sizes(self):
        d = StripDecomposition(10, 3)
        sizes = [p.n_owned for p in d.pieces]
        assert sizes == [4, 3, 3]

    def test_neighbor_rings(self):
        d = StripDecomposition(8, 4)
        p = d.piece(0)
        assert p.left_rank == 3 and p.right_rank == 1

    def test_require_even(self):
        StripDecomposition(8, 2, require_even=True)  # 4+4 ok
        with pytest.raises(ValueError, match="odd block"):
            StripDecomposition(10, 4, require_even=True)

    def test_more_ranks_than_columns_rejected(self):
        with pytest.raises(ValueError):
            StripDecomposition(3, 4)

    def test_owner_of(self):
        d = StripDecomposition(9, 3)
        for c in range(9):
            p = d.piece(d.owner_of(c))
            assert p.start <= c < p.stop
        with pytest.raises(ValueError):
            d.owner_of(9)

    def test_scatter_gather_roundtrip(self):
        d = StripDecomposition(12, 3)
        global_arr = np.arange(12 * 5).reshape(12, 5)
        parts = [d.scatter(global_arr, r) for r in range(3)]
        np.testing.assert_array_equal(d.gather(parts), global_arr)

    def test_scatter_returns_copy(self):
        d = StripDecomposition(6, 2)
        g = np.zeros((6, 2))
        part = d.scatter(g, 0)
        part[:] = 1.0
        assert g.sum() == 0.0

    def test_gather_validates_shapes(self):
        d = StripDecomposition(6, 2)
        with pytest.raises(ValueError):
            d.gather([np.zeros((2, 1)), np.zeros((3, 1))])

    @given(st.integers(1, 16), st.integers(1, 64))
    def test_partition_property(self, n_ranks, extra):
        n_cols = n_ranks + extra
        d = StripDecomposition(n_cols, n_ranks)
        sizes = [p.n_owned for p in d.pieces]
        assert sum(sizes) == n_cols
        assert max(sizes) - min(sizes) <= 1


class TestBlockDecomposition:
    def test_covers_grid_once(self):
        d = BlockDecomposition(8, 6, 4)
        seen = np.zeros((8, 6), dtype=int)
        for p in d.pieces:
            seen[p.x_start : p.x_stop, p.y_start : p.y_stop] += 1
        assert np.all(seen == 1)

    def test_default_grid_most_square(self):
        d = BlockDecomposition(16, 16, 12)
        assert (d.px, d.py) == (3, 4)

    def test_explicit_grid(self):
        d = BlockDecomposition(16, 4, 8, process_grid=(8, 1))
        assert d.px == 8 and d.py == 1

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlockDecomposition(8, 8, 4, process_grid=(3, 2))

    def test_too_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            BlockDecomposition(2, 2, 16)

    def test_neighbors_are_toroidal(self):
        d = BlockDecomposition(8, 8, 4, process_grid=(2, 2))
        p = d.piece(0)  # process coords (0, 0)
        assert p.east == d.piece(2).rank or p.east == 2
        assert p.west == 2  # wraps to (1, 0)
        assert p.north == 1
        assert p.south == 1

    def test_owner_of(self):
        d = BlockDecomposition(8, 8, 4)
        for x in range(8):
            for y in range(8):
                p = d.piece(d.owner_of(x, y))
                assert p.x_start <= x < p.x_stop
                assert p.y_start <= y < p.y_stop

    def test_scatter_gather_roundtrip(self):
        d = BlockDecomposition(8, 6, 6, process_grid=(3, 2))
        g = np.arange(8 * 6 * 3).reshape(8, 6, 3)
        parts = [d.scatter(g, r) for r in range(6)]
        np.testing.assert_array_equal(d.gather(parts), g)

    def test_require_even(self):
        BlockDecomposition(8, 8, 4, require_even=True)
        with pytest.raises(ValueError, match="odd extents"):
            BlockDecomposition(10, 8, 4, process_grid=(4, 1), require_even=True)

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_partition_property(self, px, py):
        lx, ly = 4 * px, 4 * py
        d = BlockDecomposition(lx, ly, px * py, process_grid=(px, py))
        total = sum(p.shape[0] * p.shape[1] for p in d.pieces)
        assert total == lx * ly
