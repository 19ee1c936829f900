"""Cell server: import the run path once, fork one OS process per cell.

``python -m repro.run.cell_server`` is the child a campaign scheduler
(:class:`repro.run.campaign.CellServer`) starts once.  It speaks JSON
lines: a request ``{"id", "argv", "stderr"}`` on stdin is answered on
stdout by ``{"id", "pid"}`` at the fork and ``{"id", "returncode"}`` once
the cell is reaped; on stdin EOF the live cells' groups are killed and
the server exits.  ``argv`` is the cell's recorded ``python -m repro
run-<kind> ...`` command line.  A cell is its own process, session and
process group, forked from an image that has run no simulation, so
nothing a cell does reaches the next one and one ``killpg`` takes it and
every rank process it started (DESIGN.md, "Scheduler & retry policy").
"""

from __future__ import annotations

import importlib
import json
import os
import select
import signal
import sys
import traceback

__all__ = ["serve", "kill_cell"]

#: What a ``run-*`` cell imports, at module level or inside the functions
#: it calls (``scipy``: the manifest records its version, no subpackage
#: loads).  A module missing here costs its import in every cell, no more.
_PRELOAD = (
    "repro.cli", "repro.run.simulation", "repro.run.reporting",
    "repro.run.checkpoint", "repro.obs.manifest", "repro.obs.sinks",
    "repro.kernels.numpy_backend", "repro.vmp.process_backend", "scipy",
)


def kill_cell(pid: int) -> None:
    """SIGKILL a cell's whole process group (or the cell, before ``setsid``)."""
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, signal.SIGKILL)
            return
        except ProcessLookupError:
            continue


def _run_cell(argv: list[str], stderr_path: str):
    """The body of a forked cell; never returns into the server's loop."""
    code = 1
    try:
        os.setsid()
        null = os.open(os.devnull, os.O_RDWR)
        err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, target in ((null, 0), (null, 1), (err, 2)):
            os.dup2(fd, target)
        os.close(null)
        os.close(err)
        from repro.cli import main

        code = main(argv[3:])
    except SystemExit as exc:  # argparse: 2 on a malformed argv
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:  # what an interpreter does with an uncaught error
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def serve() -> int:
    """Preload, announce ``{"ready": pid}``, then serve requests until EOF."""
    for name in _PRELOAD:
        importlib.import_module(name)

    def reply(msg: dict) -> None:
        os.write(1, (json.dumps(msg) + "\n").encode())

    # SIGCHLD has to wake the select() below: a Python-level handler
    # (even an empty one) is what makes the wakeup fd fire.
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    signal.set_wakeup_fd(wake_w)

    live: dict[int, int] = {}  # cell pid -> request id
    pending = b""
    reply({"ready": os.getpid()})
    while True:
        readable, _, _ = select.select([0, wake_r], [], [])
        if wake_r in readable:
            os.read(wake_r, 4096)
            for pid in list(live):
                reaped, status = os.waitpid(pid, os.WNOHANG)
                if reaped:
                    reply({"id": live.pop(pid),
                           "returncode": os.waitstatus_to_exitcode(status)})
        if 0 in readable:
            chunk = os.read(0, 65536)
            if not chunk:
                break
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                request = json.loads(line)
                pid = os.fork()
                if pid == 0:
                    signal.set_wakeup_fd(-1)
                    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                    os.close(wake_r)
                    os.close(wake_w)
                    _run_cell(request["argv"], request["stderr"])
                live[pid] = request["id"]
                reply({"id": request["id"], "pid": pid})
    # The scheduler is gone (closed cleanly, or killed): so are its cells.
    for pid in live:
        kill_cell(pid)
        os.waitpid(pid, 0)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
