"""repro -- parallel world-line quantum Monte Carlo on a simulated MPP.

Reproduction of *"Monte Carlo simulations of Quantum systems on
massively parallel computers"* (SC 1993); see DESIGN.md for the scope
and the paper-text mismatch notice.

Quick start::

    from repro import Simulation, XXZRunConfig, ParallelLayout

    cfg = XXZRunConfig(n_sites=16, beta=1.0, n_slices=16,
                       layout=ParallelLayout("strip", 4, "Paragon"))
    print(Simulation(cfg).run().summary())

Subpackages
-----------
``repro.qmc``
    World-line XXZ sampler, TFIM sampler, parallel drivers (strip, its
    ranks optionally stacking replicas / block / tempering).
``repro.vmp``
    The virtual massively parallel machine: MPI-like communicator,
    machine models (CM-5, Paragon, Delta, nCUBE-2), topologies,
    performance model.
``repro.models``
    Hamiltonians and exact references (ED, free fermions, Onsager).
``repro.stats``
    Binning, jackknife, autocorrelation, histograms, WHAM
    (multiple-histogram reweighting), finite-size analysis.
``repro.lattice``
    Lattices and domain decompositions.
``repro.util``
    Log-space arithmetic, RNG streams, timers, table rendering.
"""

from repro._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(__name__, {
    "CampaignResult": "repro.run.campaign",
    "CampaignSpec": "repro.run.campaign",
    "load_campaign_spec": "repro.run.campaign",
    "run_campaign": "repro.run.campaign",
    "ParallelLayout": "repro.run.config",
    "TfimRunConfig": "repro.run.config",
    "XXZ2DRunConfig": "repro.run.config",
    "XXZRunConfig": "repro.run.config",
    "ObservableEstimate": "repro.run.results",
    "RunResult": "repro.run.results",
    "load_result": "repro.run.results",
    "save_result": "repro.run.results",
    "Simulation": "repro.run.simulation",
})
__all__.append("__version__")
