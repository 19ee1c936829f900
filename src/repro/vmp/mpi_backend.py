"""Real MPI execution of SPMD rank programs via mpi4py.

Third execution backend, after the thread-per-rank scheduler
(:mod:`repro.vmp.scheduler`) and the multiprocessing backend
(:mod:`repro.vmp.process_backend`): the *unchanged* rank programs --
the strip/block world-line drivers, :func:`~repro.qmc.tempering.
tempering_program`, every collective -- run under a real MPI launcher,

    mpiexec -n 4 python -m repro run-xxz --sites 64 --beta 1.0 \\
        --strategy strip --ranks 4 --backend mpi

which is exactly how the 1993 genre paper's codes executed.
:class:`MpiCommunicator` is a :class:`~repro.vmp.comm.Communicator`
(which states the cost convention, the ``Request`` contract, matching
order and the collectives once) whose three transport hooks run over
``MPI.COMM_WORLD``:

* **Transport.**  Every point-to-point message travels as one mpi4py
  lowercase (pickle) message carrying ``(src, logical_tag, arrival,
  payload)`` under a single wire-level MPI tag.  Folding the logical
  tag in-band -- matched from a rank-local stash exactly like the
  multiprocessing backend -- keeps the repository's unbounded tag space
  (collectives use tags above ``1 << 20``) independent of the MPI
  implementation's ``MPI_TAG_UB``.  Per-pair ordering is preserved (MPI
  guarantees it on one communicator/tag), so message matching is
  deterministic wherever it is deterministic on the other backends.
* **Buffered sends.**  ``send`` issues ``MPI.Comm.isend`` and parks the
  request on a pending list that is reaped opportunistically and
  drained at finalize, so sends never rendezvous-block and the
  :class:`~repro.vmp.comm.Request` contract (send handles complete on
  return) holds identically to the thread and mp backends.
* **Modeled time.**  The sender's modeled arrival stamp travels with
  each message, so the shared accounting yields the same trajectories
  *and* modeled makespans as the other two backends.  Wall-clock
  throughput comes from the real hardware.
* **Failure handling.**  A rank whose program raises prints the
  traceback and calls ``MPI.COMM_WORLD.Abort`` (the standard MPI
  idiom); the launcher surfaces a structured
  :class:`~repro.vmp.faults.RankFailure` from the exit status.
  Deterministic *fault injection* (FaultPlan) is a thread/mp-only
  feature: an injected crash under real MPI would abort the whole job
  rather than exercise recovery paths, so the backend dispatcher
  rejects fault plans up front.

When mpi4py is not installed everything here degrades gracefully:
:func:`mpi_available` is False, the backends raise
:class:`MpiUnavailableError` with an actionable message, and the test
suite skips its MPI legs.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.util.rng import SeedSequenceFactory
from repro.vmp.comm import Communicator, _copy_payload, _Stash, recv_timeout_failure
from repro.vmp.faults import RankFailure, RunReport
from repro.vmp.machines import IDEAL, MachineModel
from repro.vmp.scheduler import BackendRunResult
from repro.vmp.topology import Topology
from repro.vmp.world import world_size_hint

__all__ = [
    "MpiUnavailableError",
    "MpiCommunicator",
    "mpi_available",
    "mpiexec_available",
    "in_mpi_world",
    "run_mpi_world",
    "run_mpiexec",
]

#: The single wire-level MPI tag; logical tags travel in-band (see the
#: module docstring for why).
_WIRE_TAG = 7

#: Default wall-clock bound on the whole mpiexec subprocess.
_DEFAULT_LAUNCH_TIMEOUT_S = 600.0


class MpiUnavailableError(RuntimeError):
    """Raised when the mpi backend is requested but mpi4py/mpiexec is absent."""


def mpi_available() -> bool:
    """True when :mod:`mpi4py` is importable (without initializing MPI)."""
    try:
        import importlib.util

        return importlib.util.find_spec("mpi4py") is not None
    except (ImportError, ValueError):
        return False


def mpiexec_available() -> bool:
    """True when an ``mpiexec`` launcher is on PATH."""
    return shutil.which("mpiexec") is not None


def in_mpi_world() -> bool:
    """True when this process was started by an MPI launcher."""
    return world_size_hint() > 1


def _require_mpi():
    """Import and return :mod:`mpi4py.MPI`, or raise MpiUnavailableError."""
    try:
        from mpi4py import MPI
    except ImportError as exc:
        raise MpiUnavailableError(
            "the mpi backend needs mpi4py (pip install mpi4py) and an MPI "
            "runtime (e.g. OpenMPI); use backend='thread' or 'mp' otherwise"
        ) from exc
    return MPI


class MpiCommunicator(Communicator):
    """One rank's endpoint over a real mpi4py communicator.

    The cost convention, ``Request`` semantics and collectives are
    :class:`~repro.vmp.comm.Communicator`'s; this class is the
    transport: eager ``isend`` with opportunistic reaping, a probe/recv
    drain into the stash and :meth:`finalize`.  ``recv_timeout`` bounds blocking
    receives in wall-clock seconds (None: wait forever, like the thread
    backend's default).  Fault injection is thread/mp-only (see the
    module docstring), so ``fault_state`` is always ``None`` here.
    """

    def __init__(
        self,
        mpi_comm,
        machine: MachineModel,
        topology: Topology,
        stream,
        recv_timeout: float | None = None,
    ):
        self._MPI = _require_mpi()
        self._mpi = mpi_comm
        self._init_endpoint(mpi_comm.Get_rank(), mpi_comm.Get_size(), machine,
                            topology, stream, recv_timeout)
        #: Wire messages received but not yet matched.
        self._stash = _Stash()
        #: Outstanding MPI isend requests (reaped opportunistically).
        self._pending_sends: list = []

    # -- transport hooks ---------------------------------------------------
    def _reap_sends(self) -> None:
        """Drop completed isend requests without blocking."""
        if self._pending_sends:
            self._pending_sends = [
                req for req in self._pending_sends if not req.Test()
            ]

    def _deliver(self, dest, tag, arrival, obj, nbytes, t_send, drop) -> None:
        # The isend really is eager here, so an offloaded send overlaps
        # physically as well as in the model.
        if dest == self.rank:
            # Self-delivery never touches MPI; copy to preserve the
            # disjoint-address-space semantics of the other backends.
            self._stash.add((self.rank, tag, arrival, _copy_payload(obj)))
            return
        self._pending_sends.append(
            self._mpi.isend((self.rank, tag, arrival, obj), dest=dest, tag=_WIRE_TAG)
        )
        self._reap_sends()

    def _stash_wire(self) -> None:
        """Receive one wire message (blocking) into the stash."""
        self._stash.add(self._mpi.recv(source=self._MPI.ANY_SOURCE, tag=_WIRE_TAG))

    def _drain_inbox(self) -> bool:
        """Move every already-arrived wire message into the stash."""
        got_any = False
        while self._mpi.iprobe(source=self._MPI.ANY_SOURCE, tag=_WIRE_TAG):
            self._stash_wire()
            got_any = True
        return got_any

    def _try_collect(self, source: int, tag):
        match = self._stash.pop(source, tag)
        if match is not None:
            return match
        self._reap_sends()
        self._drain_inbox()
        return self._stash.pop(source, tag)

    def _collect(self, source: int, tag):
        deadline = (
            None
            if self.recv_timeout is None
            else time.monotonic() + self.recv_timeout
        )
        wait = 0.0005
        while True:
            match = self._stash.pop(source, tag)
            if match is not None:
                return match
            self._reap_sends()
            if deadline is None:
                # Nothing stashed matches: block on the wire.  Any
                # message unblocks us; non-matching ones are stashed
                # and the loop re-scans.
                self._stash_wire()
                continue
            if self._drain_inbox():
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise recv_timeout_failure(
                    self.rank, source, tag, self.recv_timeout,
                    f"stash {self._stash.describe()}",
                )
            # Exponential backoff (0.5 ms doubling to 50 ms): prompt
            # matching without busy-spinning the MPI progress engine.
            time.sleep(min(wait, remaining))
            wait = min(wait * 2, 0.05)

    def finalize(self) -> None:
        """Complete every outstanding send (call after the program returns)."""
        if self._pending_sends:
            self._MPI.Request.Waitall(self._pending_sends)
            self._pending_sends = []


def run_mpi_world(
    program: Callable[..., Any],
    n_ranks: int | None = None,
    machine: MachineModel = IDEAL,
    topology: Topology | None = None,
    seed: int = 0,
    args: Sequence[Any] = (),
    recv_timeout: float | None = None,
) -> BackendRunResult:
    """Run ``program(comm, *args)`` on every rank of ``MPI.COMM_WORLD``.

    Must be called collectively from a process already launched by
    ``mpiexec`` (every rank executes it, ordinary SPMD style).  Returns
    the same :class:`~repro.vmp.scheduler.BackendRunResult` -- with *all* ranks' values,
    modeled clocks, breakdowns and comm stats -- on every rank, so the
    calling code (the Simulation facade, the CLI) runs identically
    everywhere and only output needs a rank-0 guard.

    ``n_ranks`` asserts the expected world size; a mismatch means the
    user forgot ``-n`` or asked for a different ``--ranks``.
    """
    MPI = _require_mpi()
    world = MPI.COMM_WORLD
    size = world.Get_size()
    if n_ranks is not None and n_ranks != size:
        raise ValueError(
            f"MPI world has {size} rank(s) but the run asked for "
            f"{n_ranks}; launch with: mpiexec -n {n_ranks} python ..."
        )
    if size > machine.max_nodes:
        raise ValueError(
            f"{machine.name} supports at most {machine.max_nodes} nodes, "
            f"asked for {size}"
        )
    topo = topology if topology is not None else machine.topology(size)
    if topo.size != size:
        raise ValueError(f"topology size {topo.size} != world size {size}")
    stream = SeedSequenceFactory(seed).rank_stream(world.Get_rank())
    comm = MpiCommunicator(
        world, machine, topo, stream, recv_timeout=recv_timeout
    )
    try:
        value = program(comm, *args)
        comm.finalize()
    except BaseException:
        # The standard MPI idiom: a failed rank takes the job down.
        # Graceful per-rank failure reporting (poison pills, dead-rank
        # registry) is a thread/mp feature; see DESIGN.md.
        traceback.print_exc()
        sys.stderr.flush()
        world.Abort(13)
        raise  # unreachable; keeps static analysis honest
    outcomes = world.allgather(
        (value, comm.clock.now, comm.clock.breakdown(), comm.stats)
    )
    report = RunReport(n_ranks=size)
    report.completed = list(range(size))
    return BackendRunResult(
        values=[o[0] for o in outcomes],
        model_times=[o[1] for o in outcomes],
        breakdowns=[o[2] for o in outcomes],
        stats=[o[3] for o in outcomes],
        report=report,
    )


def _mpiexec_cmd(
    mpiexec: str, n_ranks: int, worker_args: list[str], oversubscribe: bool
) -> list[str]:
    cmd = [mpiexec, "-n", str(n_ranks)]
    if oversubscribe:
        cmd.append("--oversubscribe")
    return cmd + [sys.executable, "-m", "repro.vmp.mpi_worker", *worker_args]


def run_mpiexec(
    program: Callable[..., Any],
    n_ranks: int,
    machine: MachineModel = IDEAL,
    topology: Topology | None = None,
    seed: int = 0,
    args: Sequence[Any] = (),
    recv_timeout: float | None = None,
    launch_timeout: float = _DEFAULT_LAUNCH_TIMEOUT_S,
    mpiexec: str = "mpiexec",
) -> BackendRunResult:
    """Launch ``mpiexec -n P python -m repro.vmp.mpi_worker`` and collect.

    For callers *not* already under an MPI launcher (pytest, the
    cross-backend agreement suite): the run request -- program object,
    machine model, topology, seed, args -- is pickled to a scratch
    file, ``mpiexec`` starts ``n_ranks`` fresh interpreters running
    :mod:`repro.vmp.mpi_worker`, rank 0 writes the gathered
    :class:`~repro.vmp.scheduler.BackendRunResult` back, and this process
    loads and returns it.
    ``program`` must be picklable (defined at module top level), the
    same constraint the multiprocessing backend imposes.

    Raises :class:`MpiUnavailableError` when mpi4py or ``mpiexec`` is
    missing, and :class:`~repro.vmp.faults.RankFailure` (via
    ``"mpiexec"``) when the job exits nonzero.
    """
    if not mpi_available():
        raise MpiUnavailableError(
            "mpi4py is not installed; the mpi backend cannot run "
            "(pip install mpi4py, plus an MPI runtime such as OpenMPI)"
        )
    if shutil.which(mpiexec) is None:
        raise MpiUnavailableError(
            f"no {mpiexec!r} launcher on PATH; install an MPI runtime "
            f"(e.g. OpenMPI) or run under an existing MPI world"
        )
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    payload = {
        "program": program,
        "machine": machine,
        "topology": topology,
        "seed": seed,
        "args": tuple(args),
        "recv_timeout": recv_timeout,
    }
    env = dict(os.environ)
    # The workers must import repro from the same tree as this process.
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    with tempfile.TemporaryDirectory(prefix="vmp-mpi-") as tmp:
        payload_path = Path(tmp) / "payload.pkl"
        result_path = Path(tmp) / "result.pkl"
        payload_path.write_bytes(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        worker_args = [str(payload_path), str(result_path)]
        proc = subprocess.run(
            _mpiexec_cmd(mpiexec, n_ranks, worker_args, oversubscribe=False),
            capture_output=True,
            text=True,
            timeout=launch_timeout,
            env=env,
        )
        if proc.returncode != 0 and "not enough slots" in (
            proc.stderr + proc.stdout
        ):
            # OpenMPI refuses P > cores by default; retry oversubscribed
            # (QMC ranks are compute-light at test sizes).
            proc = subprocess.run(
                _mpiexec_cmd(mpiexec, n_ranks, worker_args, oversubscribe=True),
                capture_output=True,
                text=True,
                timeout=launch_timeout,
                env=env,
            )
        if proc.returncode != 0:
            tail = "\n".join(
                (proc.stderr or proc.stdout or "").strip().splitlines()[-12:]
            )
            raise RankFailure(
                failed_rank=None,
                detected_by=-1,
                via="mpiexec",
                detail=(
                    f"mpiexec exited with status {proc.returncode}; "
                    f"output tail:\n{tail}"
                ),
            )
        if not result_path.exists():
            raise RankFailure(
                failed_rank=None,
                detected_by=-1,
                via="mpiexec",
                detail="mpiexec exited cleanly but rank 0 wrote no result",
            )
        return pickle.loads(result_path.read_bytes())
