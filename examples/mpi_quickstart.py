"""Quickstart for the real-MPI backend: run a rank program under mpiexec.

The VMP subpackage executes the *same* rank programs on three backends:
cooperative threads (default), OS processes, and — this example — real
MPI via mpi4py.  The program below is the stock strip-decomposed
world-line driver from :mod:`repro.qmc.parallel`, unchanged; only the
transport differs, and the trajectory is bit-identical across backends
at the same seed.

Run it two ways:

1. Launched under mpiexec (each MPI process becomes one rank)::

       mpiexec -n 4 python examples/mpi_quickstart.py

2. As a plain process (the script falls back to the thread backend and
   prints the same numbers)::

       python examples/mpi_quickstart.py

The equivalent CLI invocation::

    mpiexec -n 4 python -m repro run-xxz --sites 16 --beta 1.0 \
        --slices 16 --sweeps 200 --strategy strip --ranks 4 \
        --machine Paragon --backend mpi

Requires mpi4py plus an MPI runtime (e.g. ``apt install libopenmpi-dev
openmpi-bin && pip install mpi4py``) for the mpiexec path.
"""

import numpy as np

from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
from repro.vmp import MACHINES, run_spmd
from repro.vmp.mpi_backend import in_mpi_world, run_mpi_world
from repro.vmp.world import world_rank_hint, world_size_hint


def main() -> None:
    n_ranks = world_size_hint() if in_mpi_world() else 4
    cfg = WorldlineStripConfig(
        n_sites=16,
        jz=1.0,
        jxy=1.0,
        beta=1.0,
        n_slices=16,
        n_sweeps=200,
        n_thermalize=50,
    )
    machine = MACHINES["Paragon"]

    if in_mpi_world():
        result = run_mpi_world(
            worldline_strip_program, machine=machine, seed=7, args=(cfg, None)
        )
        backend = "mpi"
        if world_rank_hint() != 0:  # all ranks hold the result; rank 0 reports
            return
        values, makespan = result.values, max(result.model_times)
    else:
        result = run_spmd(
            worldline_strip_program, n_ranks, machine=machine, seed=7, args=(cfg, None)
        )
        backend = "thread"
        values, makespan = result.values, result.elapsed_model_time

    energy = values[0]["energy"]  # identical on every rank (allreduced)
    print(f"backend          : {backend} ({n_ranks} ranks on {machine.name})")
    print(f"modeled makespan : {makespan * 1e3:.3f} ms")
    print(f"<E> per site     : {np.mean(energy) / cfg.n_sites:+.6f}")
    print("trajectory hash  :", hash(energy.tobytes()))


if __name__ == "__main__":
    main()
