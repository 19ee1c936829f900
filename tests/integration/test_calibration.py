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
walk's deep-ghost path, one refresh a sweep.  And the 4-site TFIM ring
as solo block runs at P = 2 on threads, against the exact energy of
its own classical lattice (a transfer matrix along imaginary time):
pieces of 2 columns, as thin as the block's ghost depth, so every
ghost plane is a whole piece of the other rank.
"""

import numpy as np
import pytest
from scipy import stats

from repro.models.hamiltonians import XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.qmc.tfim import tfim_energy_from_bond_sums
from repro.run.config import ParallelLayout, TfimRunConfig, XXZRunConfig
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


#: Strip runs: each its own P = 2 thread run (~0.9-1.1 ms a sweep on
#: the 8-site ring, 2-vCPU host), so the cell affords far
#: fewer runs than the chain batch -- 12 in ~2.5-3 s.  They bound the z
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


def tfim_transfer_energy(n_sites: int, beta: float, gamma: float,
                         n_slices: int, j: float = 1.0) -> float:
    """Mean of the TFIM energy estimator on the periodic ``n_sites`` ring
    at ``n_slices`` Trotter slices, exactly: the sampler's classical
    lattice, weight ``exp(K_x sum s s' + K_t sum s s')`` with the run's
    couplings, summed by a ``2^n_sites``-state transfer matrix along
    imaginary time.  The estimator is linear in the space and time bond
    sums, whose means are traces against that matrix's power -- no
    Trotter error between the two, unlike free fermions."""
    dtau = beta / n_slices
    kx, kt = dtau * j, -0.5 * np.log(np.tanh(dtau * gamma))
    spins = 1 - 2 * ((np.arange(2**n_sites)[:, None] >> np.arange(n_sites)) & 1)
    space = (spins * np.roll(spins, -1, axis=1)).sum(axis=1)  # a slice's bonds
    overlap = spins @ spins.T  # the time bonds between two slices
    step = np.exp(kx * space)[:, None] * np.exp(kt * overlap)
    step /= step.max()  # rescales Z and both numerators alike
    rest = np.linalg.matrix_power(step, n_slices - 1)
    z = np.trace(step @ rest)
    space_sum = n_slices * np.trace(space[:, None] * step @ rest) / z
    time_sum = n_slices * np.trace((overlap * step) @ rest) / z
    return tfim_energy_from_bond_sums(
        space_sum, time_sum, n_sites, n_slices, j, gamma, dtau)


def test_transfer_energy_converges_to_exact_diagonalization():
    """The reference carries the Trotter error of its slices and nothing
    else: against full ED of the 4-site ring it falls like dtau^2."""
    from repro.models.ed import ExactDiagonalization
    from repro.models.hamiltonians import TFIM1D

    exact = ExactDiagonalization(TFIM1D(4).build_sparse(), 4).energy(1.0)
    errors = [abs(tfim_transfer_energy(4, 1.0, 1.0, n) - exact) for n in (8, 16, 32)]
    assert errors[0] < 0.1
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


#: Block runs: each its own P = 2 thread run of the 4-site TFIM ring
#: (~0.5 ms a sweep; pieces of 2 columns), 24 in ~3 s.  They bound the z
#: mean to +-0.83 and the z spread to [0.46, 1.63]: a halved error bar
#: (spread 1.9 on these seeds) fails, as does a bias beyond ~0.8
#: standard errors; 12 longer runs would pass a halved error bar.
N_BLOCK_RUNS = 24


def test_block_tfim_energy_error_bars_are_calibrated():
    beta, gamma, n_slices = 1.0, 1.0, 8
    reference = tfim_transfer_energy(4, beta, gamma, n_slices)
    layout = ParallelLayout(strategy="block", n_ranks=2, backend="thread",
                            kernel="numpy")
    z = []
    for seed in range(N_BLOCK_RUNS):
        est = Simulation(TfimRunConfig(
            spatial_shape=(4,), beta=beta, gamma=gamma, n_slices=n_slices,
            n_sweeps=200, n_thermalize=25, seed=seed, layout=layout,
        )).run().estimates["energy"]
        z.append((est.value - reference) / est.error)
    _assert_calibrated(np.array(z), "4-site TFIM ring energy, block P = 2")


def test_bands_reject_a_halved_error_bar():
    """Standard normal z pass; the same z of error bars half their size
    (sd 2) fail the width band."""
    z = np.random.default_rng(0).standard_normal(N_SEEDS)
    _assert_calibrated(z, "standard normal")
    with pytest.raises(AssertionError, match="z sd"):
        _assert_calibrated(2 * z, "halved error bars")
