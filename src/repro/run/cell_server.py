"""Cell server: a fork of the scheduler that forks one OS process per cell.

:func:`fork_server` is how a campaign scheduler
(:class:`repro.run.campaign.CellServer`) starts it: a ``fork()`` of the
caller's own process, which has already paid for the interpreter's
start-up, NumPy and the campaign's imports, so only the run path is left
to import.  It speaks JSON lines: a request ``{"id", "argvs", "stderr"}``
on fd 0 is answered on fd 1 by ``{"id", "pid"}`` at the fork and
``{"id", "returncode"}`` once the cell is reaped; on EOF the live cells'
groups are killed and the server exits.  Before it announces itself
ready, the server imports what its campaign's cells will run: the
runner's own import step (:func:`repro.run.simulation.load_run_modules`)
on the config of each command line it was forked with, so a cell
imports nothing the server has not.  ``argvs`` are recorded
``python -m repro run-<kind> ...`` command lines: one is a campaign
cell's, several are cells that run as one batch
(:func:`repro.cli.main_batch`) in one process.  A cell is its own
process, session and process group, forked from an image that has run
no simulation since the server started, so nothing a cell does reaches
the next one and one ``killpg`` takes it and every rank process it
started (DESIGN.md, "Scheduler & retry policy").
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import select
import signal
import sys
import traceback
from typing import Callable, NoReturn

__all__ = ["fork_server", "serve", "kill_cell"]

#: A forked server's references to the caller's stream objects, which
#: it must never flush or finalize: its fds 0 / 1 are the pipes now.
_CALLER_STREAMS: list = []


def kill_cell(pid: int) -> None:
    """SIGKILL a cell's whole process group (or the cell, before ``setsid``)."""
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, signal.SIGKILL)
            return
        except ProcessLookupError:
            continue


def _exit_after(body: Callable[[], int]) -> NoReturn:
    """Run a forked child's ``body`` and leave through ``os._exit``.

    Nothing the child inherited is finalized on the way out: no
    ``atexit`` hook, no buffered stream of the parent's.
    """
    code = 1
    try:
        code = body()
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


def _run_cell(argvs: list[list[str]], stderr_path: str) -> NoReturn:
    """The body of a forked cell; never returns into the server's loop."""

    def body() -> int:
        os.setsid()
        null = os.open(os.devnull, os.O_RDWR)
        err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, target in ((null, 0), (null, 1), (err, 2)):
            os.dup2(fd, target)
        os.close(null)
        os.close(err)
        from repro.cli import main, main_batch

        if len(argvs) == 1:
            return main(argvs[0][3:])
        return main_batch([argv[3:] for argv in argvs])

    _exit_after(body)


def _become_server(request_r: int, reply_w: int) -> None:
    """Turn a fork of the scheduler into a server's bare process."""
    # The caller's objects are frozen out of the collector: a file object
    # of theirs finalized here would close or flush a descriptor number
    # that now belongs to someone else.
    gc.freeze()
    os.setsid()  # a terminal's ^C stops the scheduler only
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)
    os.dup2(request_r, 0)
    os.dup2(reply_w, 1)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    # Fresh streams over fds 0-2: the caller's may be replaced objects
    # (pytest capture) or hold unflushed text.
    _CALLER_STREAMS.extend((sys.stdin, sys.stdout, sys.stderr))
    sys.stdin = open(0, closefd=False)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", buffering=1, errors="backslashreplace",
                      closefd=False)


def fork_server(argvs) -> tuple[int, int, int]:
    """Fork a cell server off this process: ``(pid, request fd, reply fd)``.

    The child leads its own session, keeps the two pipes as fds 0 / 1
    and the caller's fd 2, and closes every other descriptor, so no pipe
    or file of the caller's is held open by the server or its cells.  It
    never returns: it runs :func:`serve` on ``argvs``, the command lines
    of the cells it will fork, and leaves through ``os._exit``.
    """
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            _become_server(request_r, reply_w)
        except BaseException:  # no stream of its own yet to report on
            os._exit(1)
        _exit_after(lambda: serve(argvs))
    os.close(request_r)
    os.close(reply_w)
    return pid, request_w, reply_r


def _preload(argvs) -> None:
    """Import what the cells of ``argvs`` (recorded ``python -m repro
    run-<kind> ...`` command lines) import: the CLI, and per command line
    the runner's import step on its config; then compute the manifest's
    per-process constants, once for every cell.  A command line that
    does not parse or configure is skipped, silently: its cell reports
    that itself."""
    from repro.cli import _parser, config_from_args
    from repro.obs.manifest import environment_info, git_revision
    from repro.run.simulation import load_run_modules

    parser = _parser()
    for argv in argvs:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cfg = config_from_args(parser.parse_args(argv[3:]))
            load_run_modules(cfg)
        except (Exception, SystemExit):
            continue
    git_revision()
    environment_info()


def serve(argvs) -> int:
    """Preload ``argvs``' modules (:func:`_preload`), announce ``{"ready":
    pid}``, then serve fd 0 until EOF."""
    _preload(argvs)

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
                    _run_cell(request["argvs"], request["stderr"])
                live[pid] = request["id"]
                reply({"id": request["id"], "pid": pid})
    # The scheduler is gone (closed cleanly, or killed): so are its cells.
    for pid in live:
        kill_cell(pid)
        os.waitpid(pid, 0)
    return 0
