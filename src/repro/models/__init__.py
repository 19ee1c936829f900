"""Model Hamiltonians and independent exact references.

* :mod:`repro.models.operators` -- sparse spin-1/2 operator algebra
  (Kronecker constructions of Pauli/spin operators on n sites).
* :mod:`repro.models.hamiltonians` -- parameter records and sparse
  builders for the XXZ/Heisenberg chain and the transverse-field Ising
  model (TFIM) in 1-D and 2-D.
* :mod:`repro.models.ed` -- exact diagonalization: full thermal
  statistics for small systems, Lanczos ground states for medium ones.
  This is the validation oracle every QMC estimator is tested against.
* :mod:`repro.models.tfim_exact` -- exact free-fermion solution of the
  1-D TFIM (Jordan--Wigner), usable at sizes far beyond ED.
* :mod:`repro.models.ising_exact` -- Onsager's exact thermodynamic-limit
  results for the 2-D classical Ising model, used to validate the
  classical sampler that underlies the TFIM mapping.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "ExactDiagonalization": "repro.models.ed",
    "ThermalExpectation": "repro.models.ed",
    "TFIM1D": "repro.models.hamiltonians",
    "TFIM2D": "repro.models.hamiltonians",
    "XXZChainModel": "repro.models.hamiltonians",
    "onsager_critical_temperature": "repro.models.ising_exact",
    "onsager_energy_per_site": "repro.models.ising_exact",
    "onsager_spontaneous_magnetization": "repro.models.ising_exact",
    "identity_on": "repro.models.operators",
    "pauli_x": "repro.models.operators",
    "pauli_y": "repro.models.operators",
    "pauli_z": "repro.models.operators",
    "site_operator": "repro.models.operators",
    "two_site_operator": "repro.models.operators",
    "tfim_finite_temperature_energy": "repro.models.tfim_exact",
    "tfim_ground_state_energy": "repro.models.tfim_exact",
    "tfim_mode_energies": "repro.models.tfim_exact",
})
