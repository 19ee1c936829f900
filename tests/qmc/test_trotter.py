"""Tests for Trotter extrapolation."""

import numpy as np
import pytest

from repro.qmc.trotter import TrotterPoint, fit_dtau_squared, trotter_extrapolate


class TestFit:
    def test_exact_quadratic_recovered(self):
        pts = [
            TrotterPoint(dtau=d, value=3.0 + 2.0 * d * d, error=0.01)
            for d in (0.05, 0.1, 0.2, 0.4)
        ]
        v0, c = fit_dtau_squared(pts)
        assert v0 == pytest.approx(3.0, abs=1e-10)
        assert c == pytest.approx(2.0, abs=1e-9)

    def test_weighting_prefers_precise_points(self):
        # A wildly wrong point with huge error should barely matter.
        pts = [
            TrotterPoint(0.1, 1.0 + 0.5 * 0.01, 0.001),
            TrotterPoint(0.2, 1.0 + 0.5 * 0.04, 0.001),
            TrotterPoint(0.3, 1.0 + 0.5 * 0.09, 0.001),
            TrotterPoint(0.4, 50.0, 1000.0),
        ]
        v0, _ = fit_dtau_squared(pts)
        assert v0 == pytest.approx(1.0, abs=0.01)

    def test_zero_error_points_handled(self):
        pts = [
            TrotterPoint(0.1, 2.01, 0.0),
            TrotterPoint(0.2, 2.04, 0.01),
            TrotterPoint(0.3, 2.09, 0.01),
        ]
        v0, c = fit_dtau_squared(pts)
        assert np.isfinite(v0) and np.isfinite(c)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_dtau_squared([TrotterPoint(0.1, 1.0, 0.1)])

    def test_degenerate_grid_rejected(self):
        pts = [TrotterPoint(0.1, 1.0, 0.1), TrotterPoint(0.1, 1.1, 0.1)]
        with pytest.raises(ValueError, match="degenerate"):
            fit_dtau_squared(pts)


class TestExtrapolateDriver:
    def test_synthetic_sampler(self, rng):
        # Fake sampler: E(M) series ~ N(E0 + c dtau^2, sigma).
        beta, e_true, c = 2.0, -5.0, 3.0

        def run_at(m):
            dtau = beta / m
            return rng.normal(e_true + c * dtau**2, 0.01, size=256)

        v0, points = trotter_extrapolate(run_at, beta, [4, 8, 16, 32])
        assert v0 == pytest.approx(e_true, abs=0.01)
        assert len(points) == 4
        assert points[0].dtau == pytest.approx(0.5)

    def test_duplicate_trotter_numbers_rejected(self):
        with pytest.raises(ValueError):
            trotter_extrapolate(lambda m: np.zeros(10), 1.0, [8, 8])

    def test_short_series_error_fallback(self, rng):
        def run_at(m):
            return rng.normal(size=8)  # too short for binning

        v0, points = trotter_extrapolate(run_at, 1.0, [4, 8])
        assert all(p.error > 0 for p in points)


@pytest.mark.slow
class TestWorldlineTrotterExtrapolation:
    def test_energy_extrapolates_toward_exact(self):
        """The flagship systematic check: E(dtau) -> E_exact as dtau -> 0."""
        from repro.models.ed import ExactDiagonalization
        from repro.models.hamiltonians import XXZChainModel
        from repro.qmc.parallel import run_chain
        from repro.qmc.worldline import WorldlineChainQmc

        model = XXZChainModel(n_sites=4, periodic=False)
        ed = ExactDiagonalization(model.build_sparse(), 4)
        beta = 1.0
        exact = ed.thermal(beta).energy

        def run_at(m):
            q = WorldlineChainQmc(model, beta, 2 * m, seed=100 + m)
            return run_chain(q, ("energy",), 4000, n_thermalize=400)["energy"]

        v0, points = trotter_extrapolate(run_at, beta, [2, 4, 8])
        errs = np.array([p.error for p in points])
        assert v0 == pytest.approx(exact, abs=5 * errs.max() + 0.01)
