"""Rank entry point of the mpiexec launcher: one process per MPI rank.

Started by :func:`repro.vmp.mpi_backend.run_mpiexec` as

    mpiexec -n P python -m repro.vmp.mpi_worker payload.pkl result.pkl

Every rank loads the pickled run request (program object, machine
model, topology, seed, args), executes the rank program collectively
through :func:`~repro.vmp.mpi_backend.run_mpi_world`, and rank 0
writes the gathered :class:`~repro.vmp.scheduler.BackendRunResult` to
``result.pkl`` (atomically, via a rename) for the launching process to
collect.  Program exceptions abort the whole job inside
``run_mpi_world``; the launcher turns the nonzero exit status into a
structured :class:`~repro.vmp.faults.RankFailure`.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

from repro.vmp.mpi_backend import run_mpi_world


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(
            "usage: python -m repro.vmp.mpi_worker payload.pkl result.pkl",
            file=sys.stderr,
        )
        return 2
    payload_path, result_path = Path(argv[0]), Path(argv[1])
    payload = pickle.loads(payload_path.read_bytes())
    result = run_mpi_world(
        payload["program"],
        machine=payload["machine"],
        topology=payload["topology"],
        seed=payload["seed"],
        args=payload["args"],
        recv_timeout=payload["recv_timeout"],
    )
    from mpi4py import MPI

    if MPI.COMM_WORLD.Get_rank() == 0:
        tmp = result_path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        tmp.replace(result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
