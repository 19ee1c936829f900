"""Exact diagonalization: the validation oracle for every QMC estimator.

Two regimes:

* **Full spectrum** (``n_sites`` up to ~12): dense diagonalization
  gives the complete thermodynamics -- ``<E>``, specific heat,
  magnetization, uniform susceptibility, and spin--spin correlations at
  any temperature.  QMC validation tables (T4) compare against these.
* **Lanczos** (up to ~20 sites): sparse ground-state energy only, used
  to check zero-temperature extrapolations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.models.operators import site_operator, total_sz
from repro.models.operators import pauli_z

__all__ = ["ThermalExpectation", "ExactDiagonalization", "lanczos_ground_state"]


@dataclass(frozen=True)
class ThermalExpectation:
    """Canonical expectation values at one temperature."""

    beta: float
    energy: float
    energy_variance: float
    specific_heat: float
    magnetization: float  # <S^z_total>
    susceptibility: float  # beta * (<Sz^2> - <Sz>^2) / n_sites
    free_energy: float
    entropy: float


class ExactDiagonalization:
    """Full-spectrum thermodynamics of a sparse Hamiltonian.

    Parameters
    ----------
    hamiltonian:
        Sparse Hermitian matrix of dimension ``2**n_sites``.
    n_sites:
        Number of spin-1/2 sites (fixes the Hilbert-space dimension and
        the magnetization operator).
    """

    MAX_DENSE_SITES = 14

    def __init__(self, hamiltonian: sp.spmatrix, n_sites: int):
        dim = hamiltonian.shape[0]
        if hamiltonian.shape != (dim, dim):
            raise ValueError("Hamiltonian must be square")
        if dim != 2**n_sites:
            raise ValueError(f"dimension {dim} != 2**{n_sites}")
        if n_sites > self.MAX_DENSE_SITES:
            raise ValueError(
                f"full diagonalization beyond {self.MAX_DENSE_SITES} sites is "
                "impractical; use lanczos_ground_state"
            )
        self.n_sites = n_sites
        dense = np.asarray(hamiltonian.todense())
        if not np.allclose(dense, dense.conj().T, atol=1e-12):
            raise ValueError("Hamiltonian is not Hermitian")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense)
        sz_diag = np.asarray(total_sz(n_sites).todense()).diagonal()
        # <k|Sz|k> and <k|Sz^2|k> for every eigenstate k (Sz is diagonal
        # in the product basis, so this is a weighted column sum).
        probs = np.abs(self.eigenvectors) ** 2  # (basis, eigenstate)
        self.sz_k = probs.T @ sz_diag
        self.sz2_k = probs.T @ (sz_diag**2)

    @property
    def ground_state_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    def _boltzmann(self, beta: float) -> np.ndarray:
        if beta < 0:
            raise ValueError("beta must be non-negative")
        w = -beta * (self.eigenvalues - self.eigenvalues[0])
        p = np.exp(w)
        return p / p.sum()

    def log_partition(self, beta: float) -> float:
        """log Z(beta), with the true (unshifted) energy zero."""
        w = -beta * (self.eigenvalues - self.eigenvalues[0])
        return float(np.log(np.exp(w).sum()) - beta * self.eigenvalues[0])

    def thermal(self, beta: float) -> ThermalExpectation:
        """All standard canonical expectation values at inverse temperature beta."""
        p = self._boltzmann(beta)
        e = float(p @ self.eigenvalues)
        e2 = float(p @ self.eigenvalues**2)
        var = max(e2 - e * e, 0.0)
        m = float(p @ self.sz_k)
        m2 = float(p @ self.sz2_k)
        log_z = self.log_partition(beta)
        free = -log_z / beta if beta > 0 else float("-inf")
        return ThermalExpectation(
            beta=beta,
            energy=e,
            energy_variance=var,
            specific_heat=beta**2 * var,
            magnetization=m,
            susceptibility=beta * max(m2 - m * m, 0.0) / self.n_sites,
            free_energy=free,
            entropy=beta * (e - free),
        )

    def energy(self, beta: float) -> float:
        return self.thermal(beta).energy

    def imaginary_time_correlation_zz(
        self, site: int, tau: float, beta: float
    ) -> float:
        """Exact ``G(tau) = <S^z_i(tau) S^z_i(0)>`` at inverse temperature beta.

        ``G(tau) = (1/Z) sum_{m,n} e^{-(beta-tau) E_m} e^{-tau E_n}
        |<m|S^z_i|n>|^2`` from the full spectrum.  The QMC sampler's
        slice-separated correlator converges to this as dtau -> 0.
        """
        if not 0 <= tau <= beta:
            raise ValueError("need 0 <= tau <= beta")
        sz_diag = np.asarray(
            (site_operator(pauli_z(), site, self.n_sites) / 2.0).todense()
        ).diagonal()
        # Matrix elements <m|Sz|n> in the eigenbasis.
        sz_eig = self.eigenvectors.T @ (sz_diag[:, None] * self.eigenvectors)
        e = self.eigenvalues - self.eigenvalues[0]
        w = np.exp(-(beta - tau) * e)[:, None] * np.exp(-tau * e)[None, :]
        z = float(np.exp(-beta * e).sum())
        return float(np.sum(w * sz_eig**2) / z)

    def correlation_zz(self, site_a: int, site_b: int, beta: float) -> float:
        """Thermal <S^z_a S^z_b> (exact, any pair)."""
        sz = pauli_z() / 2.0
        op = (site_operator(sz, site_a, self.n_sites) @ site_operator(sz, site_b, self.n_sites))
        dense_op = np.asarray(op.todense()).diagonal()  # Sz Sz is diagonal
        probs = np.abs(self.eigenvectors) ** 2
        op_k = probs.T @ dense_op
        p = self._boltzmann(beta)
        return float(p @ op_k)


def lanczos_ground_state(
    hamiltonian: sp.spmatrix, k: int = 1, tol: float = 1e-10
) -> np.ndarray:
    """Lowest ``k`` eigenvalues of a sparse Hermitian matrix via Lanczos.

    Falls back to dense diagonalization for tiny matrices where ARPACK's
    ``k < dim - 1`` constraint bites.
    """
    dim = hamiltonian.shape[0]
    if dim <= max(16, k + 2):
        vals = np.linalg.eigvalsh(np.asarray(hamiltonian.todense()))
        return vals[:k]
    vals = spla.eigsh(hamiltonian, k=k, which="SA", tol=tol, return_eigenvectors=False)
    return np.sort(vals)
