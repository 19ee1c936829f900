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
* :mod:`repro.vmp.process_backend` -- the same program API executed on
  real OS processes via :mod:`multiprocessing` (small rank counts).
* :mod:`repro.vmp.mpi_backend` -- the same program API executed under a
  real MPI launcher via mpi4py (``mpiexec -n P python -m repro ...``);
  degrades gracefully when mpi4py is absent.
* :mod:`repro.vmp.performance` -- closed-form performance model used
  for large-P scaling sweeps, cross-validated against the simulator.

The split between *executed* communication (correctness) and *modeled*
time (performance) is the key substitution documented in DESIGN.md.
"""

from repro.vmp.comm import Communicator, ReduceOp
from repro.vmp.faults import (
    CrashFault,
    FaultPlan,
    InjectedRankCrash,
    MessageDelayFault,
    RankFailure,
    RunReport,
    StallFault,
)
from repro.vmp.machines import (
    CM5,
    DELTA,
    IDEAL,
    MACHINES,
    NCUBE2,
    PARAGON,
    MachineModel,
)
from repro.vmp.mpi_backend import (
    MpiCommunicator,
    MpiUnavailableError,
    in_mpi_world,
    mpi_available,
    mpiexec_available,
    run_mpi_world,
    run_mpiexec,
)
from repro.vmp.performance import (
    PerformanceModel,
    WorkloadShape,
    efficiency,
    gustafson_scaled_speedup,
    speedup,
)
from repro.vmp.scheduler import SpmdResult, run_spmd
from repro.vmp.trace import MessageEvent, render_timeline, summarize_traffic
from repro.vmp.topology import (
    Crossbar,
    FatTree,
    Hypercube,
    Mesh2D,
    Mesh3D,
    Ring,
    Topology,
    topology_for,
)

__all__ = [
    "Communicator",
    "ReduceOp",
    "CrashFault",
    "MessageDelayFault",
    "StallFault",
    "FaultPlan",
    "InjectedRankCrash",
    "RankFailure",
    "RunReport",
    "MachineModel",
    "MACHINES",
    "CM5",
    "PARAGON",
    "DELTA",
    "NCUBE2",
    "IDEAL",
    "PerformanceModel",
    "WorkloadShape",
    "speedup",
    "efficiency",
    "gustafson_scaled_speedup",
    "SpmdResult",
    "run_spmd",
    "MpiCommunicator",
    "MpiUnavailableError",
    "in_mpi_world",
    "mpi_available",
    "mpiexec_available",
    "run_mpi_world",
    "run_mpiexec",
    "MessageEvent",
    "render_timeline",
    "summarize_traffic",
    "Topology",
    "Hypercube",
    "Mesh2D",
    "Mesh3D",
    "FatTree",
    "Ring",
    "Crossbar",
    "topology_for",
]
