"""Tests for the shared-grid energy histogram."""

import numpy as np
import pytest

from repro.stats.histogram import EnergyHistogram


class TestGrid:
    def test_bin_geometry(self):
        h = EnergyHistogram(0.0, 10.0, 5)
        assert h.bin_width == 2.0
        np.testing.assert_allclose(h.bin_centers, [1, 3, 5, 7, 9])

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            EnergyHistogram(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            EnergyHistogram(0.0, 1.0, 0)

    def test_right_edge_belongs_to_last_bin(self):
        h = EnergyHistogram(0.0, 10.0, 5)
        assert h.bin_index(10.0)[0] == 4

    def test_out_of_range_raises_by_default(self):
        h = EnergyHistogram(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="outside histogram range"):
            h.add(2.0)

    def test_clip_mode(self):
        h = EnergyHistogram(0.0, 1.0, 4, clip=True)
        h.add(np.array([-5.0, 5.0]))
        assert h.counts[0] == 1 and h.counts[-1] == 1


class TestAccumulation:
    def test_scalar_and_vector_add(self):
        h = EnergyHistogram(0.0, 4.0, 4)
        h.add(0.5)
        h.add(np.array([1.5, 1.6, 3.9]))
        assert h.n_samples == 4
        np.testing.assert_array_equal(h.counts, [1, 2, 0, 1])

    def test_duplicate_bins_counted(self):
        # np.add.at must accumulate repeated indices (plain fancy
        # indexing would lose them).
        h = EnergyHistogram(0.0, 1.0, 2)
        h.add(np.full(100, 0.25))
        assert h.counts[0] == 100
