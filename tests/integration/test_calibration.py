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

Cells held here: the periodic 8-site XXZ ring against the exact
Trotter energy at the sampler's own Trotter number, as one batch of
serial chains and as solo strip runs at P = 2 on threads.  The strip's
pieces of 4 columns are thinner than its ghost depth of 10, so its
ghosts wrap around the ring into the rank's own columns: the halo
walk's deep-ghost path, one refresh a sweep.
"""

import numpy as np
import pytest
from scipy import stats

from repro.models.hamiltonians import XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.run.config import ParallelLayout, XXZRunConfig
from repro.run.simulation import Simulation, run_batch

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


#: Strip runs: each its own P = 2 thread run (~1.3 ms a sweep on the
#: 8-site ring), so the cell affords far
#: fewer runs than the chain batch -- 12 in ~3 s.  They bound the z
#: mean to +-1.17 and the z spread to [0.28, 1.93]: a halved error bar
#: (spread 2) fails, as does a bias beyond ~1.2 standard errors; error
#: bars too large pass up to ~3.5x.
N_STRIP_RUNS = 12


def test_strip_ring_energy_error_bars_are_calibrated():
    beta, n_slices = 1.0, 8
    reference = trotter_reference_energy(
        XXZChainModel(n_sites=8), beta, n_slices // 2)
    layout = ParallelLayout(strategy="strip", n_ranks=2, backend="thread",
                            kernel="numpy")
    z = []
    for seed in range(N_STRIP_RUNS):
        est = Simulation(XXZRunConfig(
            n_sites=8, beta=beta, n_slices=n_slices, n_sweeps=200,
            n_thermalize=25, seed=seed, layout=layout,
        )).run().estimates["energy"]
        z.append((est.value - reference) / est.error)
    _assert_calibrated(np.array(z), "8-site ring energy, strip P = 2")


def test_bands_reject_a_halved_error_bar():
    """Standard normal z pass; the same z of error bars half their size
    (sd 2) fail the width band."""
    z = np.random.default_rng(0).standard_normal(N_SEEDS)
    _assert_calibrated(z, "standard normal")
    with pytest.raises(AssertionError, match="z sd"):
        _assert_calibrated(2 * z, "halved error bars")
