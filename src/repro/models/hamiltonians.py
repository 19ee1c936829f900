"""Model parameter records and sparse Hamiltonian builders.

Hamiltonian conventions (spin-1/2, ``S = sigma/2``):

XXZ chain::

    H = sum_<ij> [ Jz S^z_i S^z_j + (Jxy/2)(S^+_i S^-_j + S^-_i S^+_j) ]
        - h sum_i S^z_i

``Jz = Jxy = J > 0`` is the Heisenberg antiferromagnet; ``Jxy = 0`` the
classical Ising limit; ``Jz = 0`` the XY chain.

Transverse-field Ising model (TFIM), in the Pauli convention usual for
that model::

    H = -J sum_<ij> sigma^z_i sigma^z_j - Gamma sum_i sigma^x_i

The 1-D TFIM is quantum-critical at ``Gamma = J``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lattice.lattice import Chain, SquareLattice

__all__ = ["XXZChainModel", "XXZSquareModel", "TFIM1D", "TFIM2D"]


# The parameter records are on every run's import path; the sparse
# builders serve only the exact references, so scipy.sparse and the
# operator algebra are imported where a matrix is actually built.


def _xxz_sparse(n: int, bonds, jz: float, jxy: float, field: float = 0.0):
    """``sum_bonds [Jz SzSz + (Jxy/2)(S+S- + S-S+)] - h sum_i Sz`` on n sites."""
    import numpy as np
    import scipy.sparse as sp

    from repro.models.operators import pauli_z, site_operator, two_site_operator

    sz = pauli_z() / 2.0
    sp_plus = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))  # S+ |down> = |up>
    sp_minus = sp_plus.T.tocsr()
    h = sp.csr_matrix((2**n, 2**n))
    for a, b, *_ in bonds:
        h = h + jz * two_site_operator(sz, a, sz, b, n)
        h = h + (jxy / 2.0) * (
            two_site_operator(sp_plus, a, sp_minus, b, n)
            + two_site_operator(sp_minus, a, sp_plus, b, n)
        )
    if field != 0.0:
        for i in range(n):
            h = h - field * site_operator(sz, i, n)
    return h.tocsr()


def _tfim_sparse(n: int, bonds, j: float, gamma: float):
    """``-J sum_bonds sz sz - Gamma sum_i sx`` (Pauli convention) on n sites."""
    import scipy.sparse as sp

    from repro.models.operators import pauli_x, pauli_z, site_operator, two_site_operator

    sx, sz = pauli_x(), pauli_z()
    h = sp.csr_matrix((2**n, 2**n))
    for a, b, *_ in bonds:
        h = h - j * two_site_operator(sz, a, sz, b, n)
    for i in range(n):
        h = h - gamma * site_operator(sx, i, n)
    return h.tocsr()


@dataclass(frozen=True)
class XXZChainModel:
    """Spin-1/2 XXZ chain parameters."""

    n_sites: int
    jz: float = 1.0
    jxy: float = 1.0
    field: float = 0.0
    periodic: bool = True

    def __post_init__(self):
        Chain(self.n_sites, periodic=self.periodic)  # validates geometry

    @property
    def chain(self) -> Chain:
        return Chain(self.n_sites, periodic=self.periodic)

    def build_sparse(self):
        """Full sparse (CSR) Hamiltonian in the S^z product basis."""
        return _xxz_sparse(
            self.n_sites, self.chain.bonds(), self.jz, self.jxy, self.field
        )

    @property
    def energy_scale(self) -> float:
        """Characteristic per-bond energy scale (for histogram grids)."""
        return max(abs(self.jz), abs(self.jxy)) / 4.0


@dataclass(frozen=True)
class XXZSquareModel:
    """Spin-1/2 XXZ model on an lx x ly square lattice (periodic).

    ``jz = jxy = J > 0`` is the 2-D Heisenberg antiferromagnet -- the
    flagship application of early parallel world-line QMC.
    """

    lx: int
    ly: int
    jz: float = 1.0
    jxy: float = 1.0
    periodic: bool = True

    def __post_init__(self):
        SquareLattice(self.lx, self.ly, periodic=self.periodic)  # validates

    @property
    def lattice(self) -> SquareLattice:
        return SquareLattice(self.lx, self.ly, periodic=self.periodic)

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    def build_sparse(self):
        """Full sparse (CSR) Hamiltonian in the S^z product basis."""
        n = self.n_sites
        if n > 16:
            raise ValueError(f"refusing to build a 2^{n}-dimensional Hamiltonian")
        return _xxz_sparse(n, self.lattice.bonds(), self.jz, self.jxy)


@dataclass(frozen=True)
class TFIM1D:
    """1-D transverse-field Ising chain parameters."""

    n_sites: int
    j: float = 1.0
    gamma: float = 1.0
    periodic: bool = True

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")

    def build_sparse(self):
        n = self.n_sites
        n_bonds = n if self.periodic else n - 1
        bonds = [(a, (a + 1) % n) for a in range(n_bonds)]
        return _tfim_sparse(n, bonds, self.j, self.gamma)


@dataclass(frozen=True)
class TFIM2D:
    """2-D transverse-field Ising model on an lx x ly square lattice."""

    lx: int
    ly: int
    j: float = 1.0
    gamma: float = 1.0
    periodic: bool = True

    def __post_init__(self):
        SquareLattice(self.lx, self.ly, periodic=self.periodic)  # validates

    @property
    def lattice(self) -> SquareLattice:
        return SquareLattice(self.lx, self.ly, periodic=self.periodic)

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    def build_sparse(self):
        n = self.n_sites
        if n > 20:
            raise ValueError(f"refusing to build a 2^{n} dense-dimension Hamiltonian")
        return _tfim_sparse(n, self.lattice.bonds(), self.j, self.gamma)
