"""Quantum Monte Carlo kernels -- the paper's primary contribution.

* :mod:`repro.qmc.plaquette` -- exact Suzuki--Trotter two-site
  plaquette weights for the spin-1/2 XXZ bond Hamiltonian.
* :mod:`repro.qmc.worldline` -- world-line QMC for XXZ chains:
  checkerboard space--time lattice, local corner-flip updates,
  straight-line (magnetization) updates, one table-driven sweep over
  the kernel registry's strip ops on every geometry.
* :mod:`repro.qmc.classical_ising` -- vectorized checkerboard
  Metropolis for anisotropic classical Ising models in 2-D/3-D, the
  engine behind the TFIM mapping.
* :mod:`repro.qmc.tfim` -- transverse-field Ising QMC via the
  quantum--classical mapping, with quantum estimators.
* :mod:`repro.qmc.trotter` -- Delta-tau -> 0 extrapolation driver.
* :mod:`repro.qmc.parallel` -- the SPMD rank programs over
  :mod:`repro.vmp`: domain-decomposed drivers (strip world-line, block
  classical/TFIM) and the whole-lattice chain program of the serial and
  replica layouts, on one run loop.  The samplers are move sets plus
  estimators; ``run_chain`` runs one of them on that loop.
* :mod:`repro.qmc.two_level` -- ensemble x domain runs: independent
  strip replicas pooled over a sub-communicator.
* :mod:`repro.qmc.tempering` -- parallel tempering across ranks.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "AnisotropicIsing": "repro.qmc.classical_ising",
    "SwendsenWangIsing": "repro.qmc.cluster",
    "MulticanonicalSampler": "repro.qmc.multicanonical",
    "WangLandauResult": "repro.qmc.multicanonical",
    "WangLandauSampler": "repro.qmc.multicanonical",
    "PlaquetteTable": "repro.qmc.plaquette",
    "TfimQmc": "repro.qmc.tfim",
    "TrotterPoint": "repro.qmc.trotter",
    "trotter_extrapolate": "repro.qmc.trotter",
    "WorldlineChainQmc": "repro.qmc.worldline",
    "WorldlineSquareQmc": "repro.qmc.worldline2d",
})
