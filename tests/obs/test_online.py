"""Streaming estimators must agree with the batch ``stats`` results.

The health engine's single-pass estimators (Welford moments, streaming
logarithmic binning, moment-form Gelman-Rubin) are validated here
against NumPy and against :mod:`repro.stats.binning` /
:mod:`repro.stats.autocorr` on fixed seeded series -- same numbers, no
second pass over the data.
"""

import numpy as np
import pytest

from repro.obs.online import (
    StreamingBinning,
    Welford,
    gelman_rubin,
    gelman_rubin_from_moments,
)
from repro.stats.binning import BinningAnalysis, binning_levels


def _ar1(n: int, rho: float, seed: int) -> np.ndarray:
    """A correlated AR(1) series with a known autocorrelation scale."""
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    return x


class TestWelford:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(42)
        series = rng.standard_normal(257) * 3.0 + 1.5
        w = Welford()
        for v in series:
            w.push(float(v))
        assert w.count == 257
        assert w.mean == pytest.approx(series.mean(), rel=1e-12)
        assert w.variance == pytest.approx(series.var(ddof=1), rel=1e-12)
        assert w.std_error == pytest.approx(
            series.std(ddof=1) / np.sqrt(series.size), rel=1e-12
        )

    def test_degenerate_counts(self):
        w = Welford()
        assert w.variance == 0.0 and w.std_error == 0.0
        w.push(2.0)
        assert w.mean == 2.0 and w.variance == 0.0

    def test_moments_tuple(self):
        w = Welford()
        for v in (1.0, 2.0, 3.0):
            w.push(v)
        count, mean, var = w.moments()
        assert (count, mean) == (3, 2.0)
        assert var == pytest.approx(1.0)


class TestStreamingBinning:
    @pytest.mark.parametrize("n", [64, 100, 1000])
    def test_levels_match_batch_binning(self, n):
        series = _ar1(n, rho=0.8, seed=7)
        sb = StreamingBinning()
        for v in series:
            sb.push(float(v))
        batch = binning_levels(series, min_blocks=8)
        stream = sb.levels()
        assert [b for b, _ in stream] == [b for b, _ in batch]
        for (_, e_stream), (_, e_batch) in zip(stream, batch):
            assert e_stream == pytest.approx(e_batch, rel=1e-9)

    def test_error_and_tau_match_batch_analysis(self):
        series = _ar1(2000, rho=0.9, seed=11)
        sb = StreamingBinning()
        for v in series:
            sb.push(float(v))
        batch = BinningAnalysis.from_series(series)
        assert sb.mean == pytest.approx(batch.mean, rel=1e-12)
        assert sb.naive_error == pytest.approx(batch.naive_error, rel=1e-9)
        assert sb.error == pytest.approx(batch.error, rel=1e-9)
        assert sb.tau_int == pytest.approx(batch.tau_int, rel=1e-8)
        assert sb.is_converged() == batch.is_converged()

    def test_tau_int_tracks_correlation(self):
        """More correlated series -> larger streaming tau_int."""
        taus = []
        for rho in (0.0, 0.9):
            sb = StreamingBinning()
            for v in _ar1(4000, rho=rho, seed=3):
                sb.push(float(v))
            taus.append(sb.tau_int)
        assert taus[1] > 2 * taus[0]
        # Uncorrelated series: tau_int ~ 0.5 by construction.
        assert taus[0] == pytest.approx(0.5, abs=0.25)

    def test_summary_keys(self):
        sb = StreamingBinning()
        for v in _ar1(128, rho=0.5, seed=1):
            sb.push(float(v))
        s = sb.summary()
        assert set(s) == {
            "count", "mean", "naive_error", "error", "tau_int",
            "n_levels", "converged",
        }
        assert s["count"] == 128


class TestGelmanRubin:
    def test_identical_chains_give_unity(self):
        rng = np.random.default_rng(0)
        chain = rng.standard_normal(500)
        rhat = gelman_rubin([chain, chain.copy()])
        # B ~ 0 between identical chains: var+ < W so R-hat <= 1.
        assert rhat == pytest.approx(1.0, abs=5e-3)

    def test_shifted_chains_flag_divergence(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(400)
        b = rng.standard_normal(400) + 5.0
        assert gelman_rubin([a, b]) > 2.0

    def test_moments_form_matches_series_form(self):
        rng = np.random.default_rng(2)
        chains = [rng.standard_normal(300) + 0.1 * i for i in range(4)]
        direct = gelman_rubin(chains)
        via_moments = gelman_rubin_from_moments(
            [c.size for c in chains],
            [c.mean() for c in chains],
            [c.var(ddof=1) for c in chains],
        )
        assert via_moments == pytest.approx(direct, rel=1e-12)

    def test_unequal_chains_truncated(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(300), rng.standard_normal(200)
        assert gelman_rubin([a, b]) == gelman_rubin([a[:200], b])

    def test_needs_two_chains_and_two_samples(self):
        with pytest.raises(ValueError):
            gelman_rubin_from_moments([10], [0.0], [1.0])
        with pytest.raises(ValueError):
            gelman_rubin_from_moments([1, 1], [0.0, 0.0], [0.0, 0.0])
