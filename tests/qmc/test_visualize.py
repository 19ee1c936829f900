"""Tests for world-line visualization (``examples/visualize.py``, the
helper of ``examples/worldline_gallery.py``)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.models.hamiltonians import XXZChainModel
from repro.qmc.worldline import WorldlineChainQmc

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "examples"))
from visualize import kink_positions, render_worldlines  # noqa: E402


class TestKinkPositions:
    def test_straight_lines_have_no_kinks(self):
        spins = np.repeat(np.array([[1], [0], [1]], dtype=np.int8), 6, axis=1)
        assert kink_positions(spins) == []

    def test_single_exchange_gives_paired_kinks(self):
        spins = np.zeros((2, 4), dtype=np.int8)
        spins[0, :] = 1
        spins[0, 2] = 0  # worldline hops away for one slice...
        spins[1, 2] = 1  # ...onto the neighbor
        kinks = kink_positions(spins)
        assert len(kinks) == 4  # two per site (leave + return)
        assert (0, 1) in kinks and (0, 2) in kinks

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            kink_positions(np.zeros(5))


class TestRenderWorldlines:
    def test_renders_neel_pattern(self):
        spins = np.repeat(
            np.array([[i % 2] for i in range(4)], dtype=np.int8), 4, axis=1
        )
        text = render_worldlines(spins)
        assert ".#.#" in text
        assert "0 kinks" in text

    def test_row_per_slice(self):
        spins = np.ones((3, 5), dtype=np.int8)
        lines = render_worldlines(spins).splitlines()
        assert len(lines) == 1 + 5 + 1  # header + slices + footer

    def test_cropping_noted(self):
        spins = np.ones((100, 100), dtype=np.int8)
        assert "cropped" in render_worldlines(spins)

    def test_real_configuration_roundtrip(self):
        model = XXZChainModel(n_sites=8, periodic=True)
        q = WorldlineChainQmc(model, 1.0, 16, seed=4)
        for _ in range(50):
            q.sweep()
        text = render_worldlines(q.spins)
        # kink count in the footer equals the analysis function's count.
        assert f"{len(kink_positions(q.spins))} kinks" in text
