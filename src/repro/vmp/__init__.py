"""Virtual massively parallel machine (VMP).

This subpackage stands in for the 1993-era MPP hardware the paper ran
on.  It provides:

* :mod:`repro.vmp.topology` -- interconnect topologies (hypercube,
  2-D/3-D mesh and torus, fat-tree, crossbar) with hop-count metrics.
* :mod:`repro.vmp.machines` -- calibrated machine models (CM-5, Intel
  Paragon, Intel Delta, nCUBE-2, plus an ideal PRAM-like machine):
  per-node sustained flop rate and an alpha--beta message cost model.
* :mod:`repro.vmp.comm` -- an MPI-like communicator (send/recv,
  sendrecv, barrier, bcast, reduce, allreduce, gather, scatter,
  allgather, alltoall) whose point-to-point layer *actually moves data*
  between rank address spaces while charging modeled time.
* :mod:`repro.vmp.scheduler` -- the SPMD runner: executes one Python
  callable per rank on threads, with deterministic message matching.
* :mod:`repro.vmp.world` -- what every run returns (``SpmdResult``),
  the surrounding MPI launch read from its environment, and
  ``run_alone``: a program of one rank that sends nothing (the serial
  and replica chain layouts) run with no fabric, so it loads none of
  the transports above.
* :mod:`repro.vmp.process_backend` -- the same program API executed on
  real OS processes via :mod:`multiprocessing` (small rank counts).
* :mod:`repro.vmp.mpi_backend` -- the same program API executed under a
  real MPI launcher via mpi4py (``mpiexec -n P python -m repro ...``);
  degrades gracefully when mpi4py is absent.
* :mod:`repro.vmp.performance` -- closed-form performance model used
  for large-P scaling sweeps, cross-validated against the simulator.

The split between *executed* communication (correctness) and *modeled*
time (performance) is the key substitution documented in DESIGN.md.
The package exports its names lazily (:func:`repro._lazy.attach`): a
name loads its defining module on first access, so importing
``repro.vmp.machines`` loads no transport.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "Communicator": "repro.vmp.comm",
    "ReduceOp": "repro.vmp.comm",
    "CrashFault": "repro.vmp.faults",
    "MessageDelayFault": "repro.vmp.faults",
    "StallFault": "repro.vmp.faults",
    "FaultPlan": "repro.vmp.faults",
    "InjectedRankCrash": "repro.vmp.faults",
    "RankFailure": "repro.vmp.faults",
    "RunReport": "repro.vmp.faults",
    "MachineModel": "repro.vmp.machines",
    "MACHINES": "repro.vmp.machines",
    "CM5": "repro.vmp.machines",
    "PARAGON": "repro.vmp.machines",
    "DELTA": "repro.vmp.machines",
    "NCUBE2": "repro.vmp.machines",
    "IDEAL": "repro.vmp.machines",
    "PerformanceModel": "repro.vmp.performance",
    "WorkloadShape": "repro.vmp.performance",
    "speedup": "repro.vmp.performance",
    "efficiency": "repro.vmp.performance",
    "gustafson_scaled_speedup": "repro.vmp.performance",
    "SpmdResult": "repro.vmp.world",
    "run_spmd": "repro.vmp.scheduler",
    "MpiCommunicator": "repro.vmp.mpi_backend",
    "MpiUnavailableError": "repro.vmp.mpi_backend",
    "in_mpi_world": "repro.vmp.mpi_backend",
    "mpi_available": "repro.vmp.mpi_backend",
    "mpiexec_available": "repro.vmp.mpi_backend",
    "run_mpi_world": "repro.vmp.mpi_backend",
    "run_mpiexec": "repro.vmp.mpi_backend",
    "MessageEvent": "repro.vmp.trace",
    "render_timeline": "repro.vmp.trace",
    "summarize_traffic": "repro.vmp.trace",
    "Topology": "repro.vmp.topology",
    "Hypercube": "repro.vmp.topology",
    "Mesh2D": "repro.vmp.topology",
    "Mesh3D": "repro.vmp.topology",
    "FatTree": "repro.vmp.topology",
    "Ring": "repro.vmp.topology",
    "Crossbar": "repro.vmp.topology",
    "topology_for": "repro.vmp.topology",
})
