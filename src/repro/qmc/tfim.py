"""Transverse-field Ising QMC via the Suzuki--Trotter classical mapping.

The d-dimensional quantum model

    H = -J sum_<ij> sigma^z_i sigma^z_j - Gamma sum_i sigma^x_i

at inverse temperature ``beta`` with ``M`` Trotter slices maps onto a
(d+1)-dimensional anisotropic classical Ising model on the lattice
``spatial_shape + (M,)`` with reduced couplings

    K_space = dtau * J,
    K_tau   = -(1/2) ln tanh(dtau * Gamma),       dtau = beta / M,

up to the constant ``C = (sinh(2 dtau Gamma)/2)^(N M / 2)``.  The
quantum energy estimator follows from ``E = -d ln Z / d beta`` applied
to the mapped partition function::

    E = -(1/M) [ N M Gamma coth(2 dtau Gamma)
                 + J * SumSpaceBonds
                 - (Gamma/2)(coth(dtau Gamma) - tanh(dtau Gamma)) * SumTimeBonds ]

and the transverse magnetization from the per-time-bond ratio
``<sigma^x> = tanh(dtau Gamma)`` on equal neighbors, ``coth`` on
unequal ones.  Both estimators are validated against exact
diagonalization in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from repro.qmc.classical_ising import AnisotropicIsing
from repro.util.correlation import mean_circular_correlation
from repro.util.rng import RankStream

__all__ = [
    "TfimQmc",
    "tfim_energy_from_bond_sums",
    "tfim_sigma_x_from_time_bonds",
]


def tfim_energy_from_bond_sums(
    space_sum: float,
    time_sum: float,
    n_sites: int,
    n_slices: int,
    j: float,
    gamma: float,
    dtau: float,
) -> float:
    """Quantum total-energy estimator from classical bond sums.

    Shared by the serial sampler and the domain-decomposed driver (which
    measures bond sums via allreduce, and passes whole series of them:
    the arithmetic is element-wise); see the module docstring for the
    derivation from ``E = -d ln Z / d beta``.
    """
    x = dtau * gamma
    coth2 = 1.0 / math.tanh(2 * x)
    tanh = math.tanh(x)
    coth = 1.0 / tanh
    const = n_sites * n_slices * gamma * coth2
    dk_tau = -(gamma / 2.0) * (coth - tanh)
    return -(const + j * space_sum + dk_tau * time_sum) / n_slices


def tfim_sigma_x_from_time_bonds(
    time_sum: float, n_time_bonds: int, gamma: float, dtau: float
) -> float:
    """``<sigma^x>`` per site from the time-bond sum.

    ``time_sum = n_same - n_diff`` and ``n_same + n_diff = n_time_bonds``
    recover the equal/unequal counts the estimator needs.
    """
    x = dtau * gamma
    tanh = math.tanh(x)
    coth = 1.0 / tanh
    n_same = 0.5 * (n_time_bonds + time_sum)
    n_diff = n_time_bonds - n_same
    return (n_same * tanh + n_diff * coth) / n_time_bonds


class TfimQmc:
    """QMC sampler for the TFIM in 1-D (chain) or 2-D (square lattice).

    Parameters
    ----------
    spatial_shape:
        ``(L,)`` for a periodic chain, ``(Lx, Ly)`` for a periodic
        square lattice.  Extents must be even (checkerboard).
    j, gamma:
        Ising coupling and transverse field.
    beta:
        Inverse temperature.
    n_slices:
        Trotter slices M; the Trotter error is O((beta/M)^2 * energy scales).
    """

    #: Series name -> estimator method.  The Binder cumulant of the
    #: ``m_squared`` series is ``binder_cumulant(np.sqrt(m_squared))``.
    ESTIMATORS = {
        "energy": "energy_estimate",
        "sigma_x": "sigma_x_estimate",
        "magnetization": "magnetization_estimate",
        "abs_magnetization": "abs_magnetization",
        "m_squared": "m_squared",
    }

    def __init__(
        self,
        spatial_shape: tuple[int, ...],
        j: float,
        gamma: float,
        beta: float,
        n_slices: int,
        seed: int | None = 0,
        stream: RankStream | None = None,
        hot_start: bool = False,
        kernel: str = "auto",
    ):
        if gamma <= 0:
            raise ValueError(
                "the classical mapping needs Gamma > 0 (K_tau diverges at "
                "Gamma = 0; that limit is the classical Ising model)"
            )
        if beta <= 0:
            raise ValueError("beta must be positive")
        if n_slices < 2 or n_slices % 2:
            raise ValueError("n_slices must be even and >= 2")
        if len(spatial_shape) not in (1, 2):
            raise ValueError("TFIM QMC supports chains and square lattices")
        self.spatial_shape = tuple(int(x) for x in spatial_shape)
        self.j = float(j)
        self.gamma = float(gamma)
        self.beta = float(beta)
        self.n_slices = int(n_slices)
        self.dtau = beta / n_slices
        x = self.dtau * gamma
        self.k_space = self.dtau * j
        self.k_tau = -0.5 * math.log(math.tanh(x))
        couplings = [self.k_space] * len(self.spatial_shape) + [self.k_tau]
        self.classical = AnisotropicIsing(
            self.spatial_shape + (n_slices,),
            couplings,
            seed=seed,
            stream=stream,
            hot_start=hot_start,
            kernel=kernel,
        )

    @property
    def n_sites(self) -> int:
        n = 1
        for s in self.spatial_shape:
            n *= s
        return n

    @property
    def spins(self) -> np.ndarray:
        return self.classical.spins

    @property
    def n_attempted(self) -> int:
        return self.classical.n_attempted

    @property
    def n_accepted(self) -> int:
        return self.classical.n_accepted

    # ------------------------------------------------------------------
    # quantum estimators
    # ------------------------------------------------------------------
    def energy_estimate(self) -> float:
        """Total-energy estimator of the current configuration."""
        bsums = self.classical.bond_sums()
        return tfim_energy_from_bond_sums(
            space_sum=float(bsums[:-1].sum()),
            time_sum=float(bsums[-1]),
            n_sites=self.n_sites,
            n_slices=self.n_slices,
            j=self.j,
            gamma=self.gamma,
            dtau=self.dtau,
        )

    def sigma_x_estimate(self) -> float:
        """``<sigma^x>`` per site from the time-bond estimator."""
        time_sum = self.classical.bond_sum(self.classical.ndim - 1)
        n_bonds = self.classical.spins.size  # one time bond per site-slice
        return tfim_sigma_x_from_time_bonds(time_sum, n_bonds, self.gamma, self.dtau)

    def magnetization_estimate(self) -> float:
        """``<sigma^z>`` order parameter (signed, per site)."""
        return self.classical.magnetization()

    def abs_magnetization(self) -> float:
        return abs(self.magnetization_estimate())

    def m_squared(self) -> float:
        """Slice-resolved ``m^2``: the mean over slices of the squared
        spatial mean of sigma^z."""
        spatial_axes = tuple(range(len(self.spatial_shape)))
        per_slice = self.classical.spins.mean(axis=spatial_axes)
        return float(np.mean(per_slice.astype(float) ** 2))

    def spin_correlation(self, axis: int = 0, method: str = "auto") -> np.ndarray:
        """Equal-time ``<sigma^z_0 sigma^z_r>`` along one spatial axis.

        The classical lattice is periodic along every axis, so the
        default path computes all distances with a single FFT; the
        roll-loop reference survives as ``method="loop"`` for the
        agreement tests.
        """
        s = self.classical.spins.astype(float)
        extent = self.spatial_shape[axis]
        max_r = extent // 2
        if method in ("auto", "fft"):
            return mean_circular_correlation(s, axis=axis, max_lag=max_r)
        if method != "loop":
            raise ValueError(f"unknown correlation method {method!r}")
        out = np.empty(max_r + 1)
        for r in range(max_r + 1):
            out[r] = float(np.mean(s * np.roll(s, -r, axis=axis)))
        return out

    # ------------------------------------------------------------------
    def sweep(self, uniforms: np.ndarray | None = None) -> None:
        self.classical.sweep(uniforms=uniforms)

    def resolve_sweep(self, mode: str = "auto"):
        """The classical lattice's ``(kernel, sweep)``."""
        return self.classical.resolve_sweep(mode)
