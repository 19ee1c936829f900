"""Calibrated error bars: z-scores of many seeds against an exact reference.

A physics test that compares one seed to a reference within a few
sigma checks the mean, not the error bar.  Here N seeds of one spec run
as one batch (:func:`repro.run.simulation.run_batch`), and each run's
binning estimate gives ``z = (mean - reference) / error``.  With
calibrated error bars the z are (nearly) standard normal, so

* their mean lies in a normal band of width ``1 / sqrt(N)``, and
* their sample variance times ``N - 1`` lies in a chi-squared band
  with ``N - 1`` degrees of freedom,

each band two-sided at half of :data:`FALSE_ALARM`.  The seeds are
fixed, so the test is deterministic; the bands say how rarely a correct
sampler with correct error bars would fail at some other seed set.  An
error bar half its true size doubles the spread of z and fails the
width band.

Cell held here: the periodic 8-site XXZ ring, against the exact Trotter
energy at the sampler's own Trotter number.
"""

import numpy as np
import pytest
from scipy import stats

from repro.models.hamiltonians import XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.run.config import ParallelLayout, XXZRunConfig
from repro.run.simulation import run_batch

#: Chance that a calibrated sampler fails a cell, both bands together.
FALSE_ALARM = 1e-4
N_SEEDS = 64


def _bands(n: int, false_alarm: float = FALSE_ALARM):
    """``(|mean| bound, (sd low, sd high))`` of ``n`` standard normal z."""
    tail = false_alarm / 4  # two bands, two-sided each
    mean_bound = stats.norm.isf(tail) / np.sqrt(n)
    sd_band = tuple(np.sqrt(stats.chi2.ppf(q, n - 1) / (n - 1))
                    for q in (tail, 1 - tail))
    return mean_bound, sd_band


def _assert_calibrated(z: np.ndarray, label: str) -> None:
    mean_bound, (sd_low, sd_high) = _bands(z.size)
    mean, sd = float(z.mean()), float(z.std(ddof=1))
    assert abs(mean) <= mean_bound, (
        f"{label}: z mean {mean:+.3f} outside +-{mean_bound:.3f}")
    assert sd_low <= sd <= sd_high, (
        f"{label}: z sd {sd:.3f} outside [{sd_low:.3f}, {sd_high:.3f}]")


def test_ring_energy_error_bars_are_calibrated():
    beta, n_slices = 1.0, 8
    configs = [
        XXZRunConfig(n_sites=8, beta=beta, n_slices=n_slices, n_sweeps=2000,
                     n_thermalize=200, seed=seed,
                     layout=ParallelLayout(kernel="numpy"))
        for seed in range(N_SEEDS)
    ]
    reference = trotter_reference_energy(
        XXZChainModel(n_sites=8), beta, n_slices // 2)
    z = np.array([
        (est.value - reference) / est.error
        for est in (r.estimates["energy"] for r in run_batch(configs))
    ])
    _assert_calibrated(z, "8-site ring energy")


def test_bands_reject_a_halved_error_bar():
    """Standard normal z pass; the same z of error bars half their size
    (sd 2) fail the width band."""
    z = np.random.default_rng(0).standard_normal(N_SEEDS)
    _assert_calibrated(z, "standard normal")
    with pytest.raises(AssertionError, match="z sd"):
        _assert_calibrated(2 * z, "halved error bars")
