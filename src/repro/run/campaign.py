"""Campaign service layer: sweep-spec-driven multi-run scheduling.

Weigel's first tier of Monte Carlo parallelism -- and the production
reality of every QMC group -- is the embarrassingly parallel *outer*
loop: many independent runs over a parameter grid, farmed out to
whatever processors are free, restarted after crashes, and never
recomputed once finished.  This module composes the primitives built by
the earlier PRs (run manifests with ``config_hash``, per-rank
checkpoint bundles, JSONL metrics, health events, the ``repro report``
dashboard) into that serving layer:

* :class:`CampaignSpec` -- a validated sweep specification, normally
  loaded from a TOML file (:func:`load_campaign_spec`, through the
  stdlib :mod:`tomllib`; on Python 3.10, where it is absent, pass the
  same document as ``.json``, which is accepted everywhere).  ``[base]`` holds the run
  parameters shared by every run, ``[sweep]`` maps field names to value
  lists; their cartesian product is the campaign grid.
* :func:`expand_grid` -- the grid as a list of :class:`CampaignRun`
  records, each with a stable ``run_id``, its merged parameter dict,
  and its **cache key**: :func:`repro.obs.manifest.config_hash` over
  ``{"kind": ..., "params": ...}``.  The key is a pure function of the
  spec contents, so it is stable across process restarts and machines.
* :func:`run_campaign` -- the async scheduler.  Runs fan out as at
  most ``jobs`` concurrent *cells*: OS processes forked by one
  :class:`CellServer` per campaign -- itself a fork of the calling
  process, taken at the first cell that is not a cache hit -- each
  running the recorded ``python -m repro run-<kind> ...`` command line
  of its run without paying an interpreter start-up or the caller's
  imports, with a per-run wall-clock timeout,
  retry-with-backoff on transient failures (a surfaced
  :class:`~repro.vmp.faults.RankFailure`, a timeout, or any non-config
  crash), and a ``fail-fast`` | ``keep-going`` policy.  Completed runs
  write an atomic ``campaign_run.json`` status document keyed by the
  cache key; on ``resume=True`` those runs are **cache hits** and are
  skipped, interrupted checkpointed runs restart from their bundles,
  and a stale status/checkpoint (cache key mismatch after a spec edit)
  is rejected and the run re-executed from scratch.
* :func:`plan_batches` -- which cells share a cell: chain cells
  (serial or replica, of every kind) that differ only in ``seed`` run
  as batches, one process holding all their chains
  (:func:`repro.run.simulation.run_batch`), each cell still with its
  own directory, status document, solo command line, cache key and
  attempts; a failed batch retries its cells solo.

Every run directory contains the full artifact set the rest of the
stack already understands (``result.json``/``result.npz``,
``metrics.jsonl``, ``manifest.json``), so ``repro report <campaign
dir>`` renders the whole campaign; the campaign itself adds a
``campaign.json`` manifest with per-run statuses and the campaign
counters (completed / cached / retried / failed, aggregate sweeps/s),
which also flow through a :class:`repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.obs.manifest import config_hash
from repro.obs.metrics import MetricsRegistry
from repro.run.cell_server import fork_server, kill_cell
from repro.run.config import RUN_KINDS, RunField
from repro.vmp.faults import RankFailure

__all__ = [
    "CAMPAIGN_VERSION",
    "CampaignSpec",
    "CampaignRun",
    "RunAttempt",
    "RunOutcome",
    "CampaignResult",
    "load_campaign_spec",
    "parse_spec_dict",
    "expand_grid",
    "plan_batches",
    "run_campaign",
]

#: Schema version stamped on ``campaign.json`` and ``campaign_run.json``.
CAMPAIGN_VERSION = 1

#: CLI exit code the run commands use for configuration errors
#: (ValueError / unknown kernel); such failures are permanent -- no
#: retry can fix a bad parameter.
_CONFIG_ERROR_EXIT = 2


def _spec_fields(kind: str) -> dict[str, RunField]:
    """The rows of ``kind``'s field table a spec may set, by spec field."""
    return {row.spec: row for row in RUN_KINDS[kind].run_fields() if row.spec}


# ======================================================================
# spec parsing
# ======================================================================


def _load_toml(path: Path) -> dict:
    try:
        import tomllib
    except ImportError:  # Python 3.10: stdlib tomllib landed in 3.11
        raise ValueError(
            f"cannot read campaign spec {path}: TOML specs need Python >= "
            f"3.11; pass the same document as .json"
        ) from None
    return tomllib.loads(path.read_text())


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: shared run parameters plus sweep axes.

    ``base`` maps spec fields to scalar values shared by every run;
    ``sweep`` maps spec fields to value lists whose cartesian product
    (in declaration order) defines the grid.  A field may appear in
    either, not both.
    """

    kind: str
    name: str = "campaign"
    base: Mapping[str, Any] = field(default_factory=dict)
    sweep: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    jobs: int = 2
    timeout: float = 600.0
    retries: int = 2
    backoff: float = 0.5
    policy: str = "keep-going"
    output_dir: str | None = None

    def __post_init__(self):
        if self.kind not in RUN_KINDS:
            raise ValueError(
                f"unknown campaign kind {self.kind!r}; expected one of "
                f"{', '.join(RUN_KINDS)}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.timeout < 0:
            raise ValueError("timeout must be >= 0 (0: no per-run timeout)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.policy not in ("fail-fast", "keep-going"):
            raise ValueError(
                f"unknown policy {self.policy!r}; expected 'fail-fast' or "
                f"'keep-going'"
            )
        allowed = _spec_fields(self.kind)
        for source, mapping in (("base", self.base), ("sweep", self.sweep)):
            for key in mapping:
                if key not in allowed:
                    raise ValueError(
                        f"[{source}] field {key!r} is not a {self.kind} run "
                        f"parameter; allowed: {', '.join(sorted(allowed))}"
                    )
        for key, values in self.sweep.items():
            if key in self.base:
                raise ValueError(
                    f"field {key!r} appears in both [base] and [sweep]"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"[sweep] field {key!r} must be a non-empty value list"
                )
        present = set(self.base) | set(self.sweep)
        missing = [
            name for name, row in allowed.items()
            if row.required and name not in present
        ]
        if missing:
            raise ValueError(
                f"{self.kind} campaign is missing required field(s): "
                f"{', '.join(missing)}"
            )

    @staticmethod
    def allowed_fields(kind: str) -> set[str]:
        return set(_spec_fields(kind))

    @property
    def n_runs(self) -> int:
        n = 1
        for values in self.sweep.values():
            n *= len(values)
        return n


def parse_spec_dict(doc: Mapping[str, Any], name_hint: str = "campaign"
                    ) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a parsed spec document."""
    if "campaign" not in doc:
        raise ValueError("spec has no [campaign] table")
    head = dict(doc["campaign"])
    kind = head.pop("kind", None)
    if kind is None:
        raise ValueError(
            f"[campaign] table needs a 'kind' ({'/'.join(RUN_KINDS)})"
        )
    known = {"name", "jobs", "timeout", "retries", "backoff", "policy",
             "output_dir"}
    unknown = set(head) - known
    if unknown:
        raise ValueError(
            f"unknown [campaign] key(s): {', '.join(sorted(unknown))}; "
            f"allowed: kind, {', '.join(sorted(known))}"
        )
    extra_tables = set(doc) - {"campaign", "base", "sweep"}
    if extra_tables:
        raise ValueError(
            f"unknown spec table(s): {', '.join(sorted(extra_tables))}; "
            f"expected [campaign], [base], [sweep]"
        )
    return CampaignSpec(
        kind=str(kind),
        name=str(head.get("name", name_hint)),
        base=dict(doc.get("base", {})),
        sweep={k: list(v) for k, v in dict(doc.get("sweep", {})).items()},
        jobs=int(head.get("jobs", 2)),
        timeout=float(head.get("timeout", 600.0)),
        retries=int(head.get("retries", 2)),
        backoff=float(head.get("backoff", 0.5)),
        policy=str(head.get("policy", "keep-going")),
        output_dir=head.get("output_dir"),
    )


def load_campaign_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` (or ``.json``) file."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"campaign spec {path} does not exist")
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
    else:
        doc = _load_toml(path)
    return parse_spec_dict(doc, name_hint=path.stem)


# ======================================================================
# grid expansion + cache keys
# ======================================================================


@dataclass(frozen=True)
class CampaignRun:
    """One cell of the campaign grid."""

    run_id: str
    index: int
    kind: str
    params: Mapping[str, Any]  # merged base + swept values
    swept: Mapping[str, Any]  # just this run's swept values
    cache_key: str


def _slug(value: Any) -> str:
    s = str(value)
    return "".join(ch if (ch.isalnum() or ch in ".-") else "_" for ch in s)


def run_cache_key(kind: str, params: Mapping[str, Any]) -> str:
    """The campaign result-cache key of one run.

    This is the manifest machinery's :func:`config_hash` (sha256 over
    canonical JSON) applied to the run's *spec-level* identity -- its
    kind plus every parameter the spec sets.  Fields the spec does not
    mention fall to the CLI defaults and deliberately do not enter the
    key: adding a default explicitly to a spec *does* change the key,
    which errs on the side of recomputing rather than serving a stale
    result.
    """
    return config_hash({"kind": kind, "params": dict(params)})


def expand_grid(spec: CampaignSpec) -> list[CampaignRun]:
    """Expand the sweep axes into the ordered list of campaign runs."""
    axes = list(spec.sweep.items())
    names = [name for name, _values in axes]
    runs: list[CampaignRun] = []
    for index, combo in enumerate(
        itertools.product(*[values for _name, values in axes])
    ):
        swept = dict(zip(names, combo))
        params = {**spec.base, **swept}
        label = "-".join(f"{k}{_slug(v)}" for k, v in swept.items())
        run_id = f"r{index:04d}" + (f"-{label}" if label else "")
        runs.append(
            CampaignRun(
                run_id=run_id,
                index=index,
                kind=spec.kind,
                params=params,
                swept=swept,
                cache_key=run_cache_key(spec.kind, params),
            )
        )
    return runs


def build_run_argv(run: CampaignRun, run_dir: Path, resume: bool = False
                   ) -> list[str]:
    """The backend-process command line of one run.

    Every run writes the standard artifact set into its own directory:
    ``result.json``/``.npz`` (``--output``), ``metrics.jsonl`` +
    ``manifest.json`` (``--metrics-out``).  ``checkpoint_every`` is
    handled out of band: ``> 0`` adds per-rank checkpoint bundles under
    the run's own ``checkpoints/`` (it needs ``--checkpoint-dir`` too);
    ``resume`` restarts from them.
    """
    argv = [sys.executable, "-m", "repro", f"run-{run.kind}"]
    rows = _spec_fields(run.kind)
    checkpoint_every = 0
    for name, value in run.params.items():
        row = rows[name]
        if name == "checkpoint_every":
            checkpoint_every = int(value)
        elif row.type is bool:  # a switch away from its default
            if bool(value) != row.default:
                argv.append(row.flag)
        else:
            argv += [row.flag, str(value)]
    argv += ["--output", str(run_dir / "result")]
    argv += ["--metrics-out", str(run_dir / "metrics.jsonl")]
    if checkpoint_every > 0:
        argv += ["--checkpoint-every", str(checkpoint_every),
                 "--checkpoint-dir", str(run_dir / "checkpoints")]
        if resume:
            argv.append("--resume")
    argv.append("--quiet")
    return argv


# ======================================================================
# per-run status documents (the result cache)
# ======================================================================


def _status_path(run_dir: Path) -> Path:
    return run_dir / "campaign_run.json"


def _write_json_atomic(path: Path, doc: dict) -> None:
    """Write JSON via tmp+rename so a mid-flight kill cannot corrupt it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    os.replace(tmp, path)


def _read_status(run_dir: Path) -> dict | None:
    path = _status_path(run_dir)
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _run_manifest(run_dir: Path) -> dict | None:
    path = run_dir / "manifest.json"
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _is_cache_hit(run: CampaignRun, run_dir: Path) -> bool:
    """Whether a prior completed run can be served from the cache.

    A hit needs all of: a completed status document whose cache key
    matches the fresh spec's key, the run's own ``manifest.json`` with
    the ``config_hash`` recorded at completion (a run whose artifacts
    were regenerated by different code/config is stale), and the
    ``result.json`` payload itself.
    """
    status = _read_status(run_dir)
    if status is None or status.get("status") != "completed":
        return False
    if status.get("cache_key") != run.cache_key:
        return False
    if not (run_dir / "result.json").is_file():
        return False
    manifest = _run_manifest(run_dir)
    if manifest is None:
        return False
    recorded = status.get("manifest_config_hash")
    return recorded is not None and manifest.get("config_hash") == recorded


def _prepare_run_dir(run: CampaignRun, run_dir: Path, resume: bool
                     ) -> tuple[bool, bool]:
    """Classify one run against its directory: (cache_hit, resume_flag).

    Without ``resume`` any previous artifacts are cleared -- a fresh
    campaign invocation recomputes everything.  With it, a completed
    matching run is a cache hit; an interrupted matching run restarts
    from its checkpoint bundles when it has any; and a *stale* status
    or checkpoint set (cache-key mismatch: the spec changed under the
    directory) is rejected and purged so the run re-executes cleanly.
    """
    status = _read_status(run_dir)
    if not resume:
        if run_dir.exists():
            shutil.rmtree(run_dir)
        return False, False
    if _is_cache_hit(run, run_dir):
        return True, False
    if status is not None and status.get("cache_key") != run.cache_key:
        # Stale: written by a different configuration.  Everything in
        # the directory (checkpoints included) describes another run.
        shutil.rmtree(run_dir)
        return False, False
    checkpoints = run_dir / "checkpoints"
    has_bundles = checkpoints.is_dir() and any(checkpoints.glob("rank*.npz"))
    wants_checkpointing = int(run.params.get("checkpoint_every", 0) or 0) > 0
    return False, bool(has_bundles and wants_checkpointing)


# ======================================================================
# the async scheduler
# ======================================================================


@dataclass
class RunAttempt:
    """What one execution attempt of one run produced."""

    returncode: int
    wall_seconds: float
    stderr_tail: str = ""
    transient: bool | None = None  # None: classify from code/stderr


@dataclass
class RunOutcome:
    """Final state of one run after scheduling."""

    run: CampaignRun
    status: str  # "completed" | "cached" | "failed" | "skipped"
    cached: bool = False
    attempts: int = 0
    wall_seconds: float = 0.0
    sweeps_per_second: float = 0.0
    n_sweeps: float = 0.0
    resumed_from_checkpoint: bool = False
    error: str | None = None
    batch: str | None = None  # the batch it completed in, if any


@dataclass
class CampaignResult:
    """Outcome of one campaign invocation."""

    spec: CampaignSpec
    out_dir: Path
    outcomes: list[RunOutcome]
    wall_seconds: float
    counters: dict[str, int]
    aggregate: dict[str, float]
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.interrupted and all(
            o.status in ("completed", "cached") for o in self.outcomes
        )

    def summary_table(self) -> str:
        from repro.util.tables import Table

        t = Table(
            f"campaign {self.spec.name!r}: "
            f"{self.counters['completed']} fresh, "
            f"{self.counters['cached']} cached, "
            f"{self.counters['failed']} failed, "
            f"{self.counters['retried']} retries "
            f"({self.wall_seconds:.2f} s wall, "
            f"{self.aggregate['sweeps_per_second']:.1f} sweeps/s aggregate)",
            ["run", "status", "attempts", "wall[s]", "sweeps/s"],
        )
        for o in self.outcomes:
            t.add_row(
                [
                    o.run.run_id,
                    o.status + (" (resumed)" if o.resumed_from_checkpoint else ""),
                    o.attempts,
                    round(o.wall_seconds, 3),
                    round(o.sweeps_per_second, 1),
                ]
            )
        return t.render()


Executor = Callable[[CampaignRun, Sequence[str], int], Awaitable[RunAttempt]]


@dataclass
class _Server:
    """A forked cell server as the scheduler holds it."""

    pid: int
    requests: asyncio.WriteTransport


class _Cell:
    """One in-flight cell: the two replies its server owes the scheduler."""

    def __init__(self, server: _Server):
        self.server = server  # the server that forked it
        loop = asyncio.get_running_loop()
        self.pid: asyncio.Future = loop.create_future()  # None: never forked
        self.exited: asyncio.Future = loop.create_future()  # None: server died


class CellServer:
    """The default executor: cells forked from one fork of this process.

    ``execute`` (one run) / ``execute_batch`` (several, one cell) forks
    the cell server off the calling process on first use
    (:func:`repro.run.cell_server.fork_server`; an all-cache-hit resume
    forks none) and sends it one request per attempt; see
    :mod:`repro.run.cell_server` for the protocol.  Each cell leads its
    own session, so a timeout, a cancelled campaign
    (``KeyboardInterrupt`` / a ``fail-fast`` abort) or a dead server
    kills the whole rank tree a run may have spawned.  A dead server's
    cells fail as transient and the retry forks a new server.  Use as
    ``async with CellServer(timeout, argvs)`` or call :meth:`close`: on EOF of
    its request pipe -- also what a killed scheduler leaves -- the
    server kills the cells still alive and exits.
    """

    def __init__(self, timeout: float, argvs: Sequence[Sequence[str]]):
        self.timeout = timeout
        #: The command lines of the cells to come, whose modules a
        #: server imports before it forks any
        #: (:func:`repro.run.cell_server.fork_server`).
        self.argvs = [list(argv) for argv in argvs]
        #: Fork -> first server ready; 0.0 while none was needed.
        self.start_seconds = 0.0
        self._server: _Server | None = None
        self._reader: asyncio.Task | None = None
        self._lock = asyncio.Lock()
        self._cells: dict[int, _Cell] = {}
        self._ids = itertools.count()
        self._stderr_dir: str | None = None

    async def __aenter__(self) -> "CellServer":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def _ensure_started(self) -> None:
        async with self._lock:
            if self._server is not None:
                return
            if self._reader is not None:
                await self._reader  # the dead server's, about to be replaced
            if self._stderr_dir is None:
                self._stderr_dir = tempfile.mkdtemp(prefix="repro-cells-")
            loop = asyncio.get_running_loop()
            forked = time.perf_counter()
            pid, request_fd, reply_fd = fork_server(self.argvs)
            replies = asyncio.StreamReader()
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(replies), open(reply_fd, "rb", 0)
            )
            requests, _ = await loop.connect_write_pipe(
                asyncio.Protocol, open(request_fd, "wb", 0)
            )
            # Requests queue in the pipe while the server preloads.
            server = self._server = _Server(pid, requests)
            self._reader = asyncio.create_task(
                self._read_replies(server, replies, forked)
            )

    async def _read_replies(self, server: _Server, replies: asyncio.StreamReader,
                            forked: float) -> None:
        async for line in replies:
            msg = json.loads(line)
            if "ready" in msg:
                if not self.start_seconds:
                    self.start_seconds = time.perf_counter() - forked
                continue
            cell = self._cells.get(msg["id"])
            if cell is None:  # its attempt was cancelled twice and left
                continue
            if "pid" in msg:
                cell.pid.set_result(msg["pid"])
            else:
                cell.exited.set_result(msg["returncode"])
        # EOF: the server is gone.  Cells it forked are orphans now, not
        # dead -- kill them before their attempts are retried.
        if self._server is server:
            self._server = None
        for cell in self._cells.values():
            if cell.server is not server or cell.exited.done():
                continue
            if cell.pid.done():
                kill_cell(cell.pid.result())
            else:
                cell.pid.set_result(None)
            cell.exited.set_result(None)
        server.requests.close()
        # Its end of the reply pipe closed with its exit: reaping it
        # cannot block the loop.
        os.waitpid(server.pid, 0)

    async def execute(self, run: CampaignRun, argv: Sequence[str],
                      attempt: int) -> RunAttempt:
        return await self.execute_batch([run], [argv], attempt)

    async def execute_batch(self, runs: Sequence[CampaignRun],
                            argvs: Sequence[Sequence[str]], attempt: int
                            ) -> RunAttempt:
        """One attempt of ``runs`` as one cell, each by its own ``argv``
        (several: one :func:`repro.cli.main_batch` process), under a
        deadline of ``timeout`` per run."""
        t0 = time.perf_counter()
        await self._ensure_started()
        cell_id = next(self._ids)
        cell = self._cells[cell_id] = _Cell(self._server)
        stderr_path = Path(self._stderr_dir) / f"{cell_id}.stderr"
        request = {"id": cell_id, "argvs": [list(argv) for argv in argvs],
                   "stderr": str(stderr_path)}
        cell.server.requests.write((json.dumps(request) + "\n").encode())
        timeout = self.timeout * len(runs)
        try:
            await asyncio.wait({cell.exited}, timeout=timeout if timeout > 0 else None)
            failure = None
            if not cell.exited.done():
                await self._kill(cell)
                failure = f"timed out after {timeout:.1f} s"
            elif cell.exited.result() is None:
                failure = "cell server died"
            wall = time.perf_counter() - t0
            if failure is not None:
                return RunAttempt(-1, wall, failure, transient=True)
            tail = ""
            if stderr_path.exists():
                tail = stderr_path.read_text(errors="replace")[-2000:]
            return RunAttempt(cell.exited.result(), wall, tail)
        except asyncio.CancelledError:
            await self._kill(cell)
            raise
        finally:
            del self._cells[cell_id]
            stderr_path.unlink(missing_ok=True)

    async def _kill(self, cell: _Cell) -> None:
        """Kill a cell's process group and wait until its server reaped it.

        Shielded: a second cancellation must end this wait, not cancel
        the futures the reply reader still has to resolve (the cell is
        then killed by the server itself when :meth:`close` hangs up).
        """
        pid = await asyncio.shield(cell.pid)
        if pid is not None and not cell.exited.done():
            kill_cell(pid)
        await asyncio.shield(cell.exited)

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.requests.close()  # EOF: the server kills live cells and exits
        if self._reader is not None:
            await self._reader
        if self._stderr_dir is not None:
            shutil.rmtree(self._stderr_dir, ignore_errors=True)


def _is_transient(attempt: RunAttempt) -> bool:
    """Whether an attempt's failure is worth retrying.

    Config errors (exit 2: a bad parameter will fail identically every
    time) are permanent; everything else -- a surfaced
    :class:`RankFailure`, a timeout, a crash/signal -- is transient,
    matching the farm-style production assumption that node loss is
    routine and configs are vetted.
    """
    if attempt.transient is not None:
        return attempt.transient
    return attempt.returncode != _CONFIG_ERROR_EXIT


def _write_status(run: CampaignRun, run_dir: Path, argv: Sequence[str],
                  status: str, **fields) -> None:
    # ``argv`` is the cell's whole command line: running it by hand
    # reproduces the run, whatever executed it here (a batch included).
    _write_json_atomic(
        _status_path(run_dir),
        {
            "campaign_run_version": CAMPAIGN_VERSION,
            "run_id": run.run_id,
            "cache_key": run.cache_key,
            "status": status,
            "params": dict(run.params),
            "argv": list(argv),
            **fields,
        },
    )


def _complete(outcome: RunOutcome, run_dir: Path, argv: Sequence[str],
              wall_seconds: float) -> RunOutcome:
    """Record a run whose cell exited 0: its outcome and status doc."""
    manifest = _run_manifest(run_dir)
    runtime = (manifest or {}).get("runtime", {})
    outcome.status = "completed"
    outcome.wall_seconds = wall_seconds
    outcome.sweeps_per_second = float(runtime.get("sweeps_per_second", 0.0) or 0.0)
    outcome.n_sweeps = float(runtime.get("n_sweeps", 0.0) or 0.0)
    _write_status(
        outcome.run, run_dir, argv, "completed",
        attempts=outcome.attempts,
        wall_seconds=outcome.wall_seconds,
        sweeps_per_second=outcome.sweeps_per_second,
        n_sweeps=outcome.n_sweeps,
        resumed_from_checkpoint=outcome.resumed_from_checkpoint,
        manifest_config_hash=(manifest or {}).get("config_hash"),
    )
    return outcome


def _attempt_error(attempt: RunAttempt) -> str:
    tail = attempt.stderr_tail.strip()
    return f"exit {attempt.returncode}" + (f": {tail.splitlines()[-1]}" if tail else "")


async def _run_one(
    run: CampaignRun,
    run_dir: Path,
    spec: CampaignSpec,
    resume_from_checkpoint: bool,
    executor: Executor,
    first_attempt: int = 0,
) -> RunOutcome:
    """Execute one run to completion, retrying transient failures
    (attempts ``first_attempt + 1`` onwards: a failed batch's cells
    retry from 1)."""
    outcome = RunOutcome(run=run, status="failed")
    t0 = time.perf_counter()
    for attempt_no in range(first_attempt, spec.retries + 1):
        run_dir.mkdir(parents=True, exist_ok=True)
        argv = build_run_argv(run, run_dir, resume=resume_from_checkpoint)
        _write_status(run, run_dir, argv, "running", attempt=attempt_no + 1)
        outcome.attempts = attempt_no + 1
        t_attempt = time.perf_counter()
        try:
            attempt = await executor(run, argv, attempt_no)
        except RankFailure as exc:
            # In-process executors surface the structured error
            # directly; treat it exactly like a cell that died with a
            # RankFailure on stderr.
            attempt = RunAttempt(
                returncode=1,
                wall_seconds=time.perf_counter() - t_attempt,
                stderr_tail=f"RankFailure: {exc}",
                transient=True,
            )
        if attempt.returncode == 0:
            outcome.resumed_from_checkpoint = resume_from_checkpoint
            return _complete(outcome, run_dir, argv, time.perf_counter() - t0)
        outcome.error = _attempt_error(attempt)
        if not _is_transient(attempt) or attempt_no == spec.retries:
            break
        # A failed attempt may have left partial checkpoints behind; a
        # matching cache key means they are still this configuration's,
        # so the retry may resume from them when checkpointing is on.
        checkpoints = run_dir / "checkpoints"
        resume_from_checkpoint = bool(
            int(run.params.get("checkpoint_every", 0) or 0) > 0
            and checkpoints.is_dir()
            and any(checkpoints.glob("rank*.npz"))
        )
        await asyncio.sleep(spec.backoff * (2 ** attempt_no))
    outcome.wall_seconds = time.perf_counter() - t0
    _write_status(run, run_dir, argv, "failed", attempts=outcome.attempts,
                  error=outcome.error)
    return outcome


async def _run_batch(
    batch_id: str,
    runs: Sequence[CampaignRun],
    runs_root: Path,
    spec: CampaignSpec,
    server: CellServer,
) -> list[RunOutcome]:
    """Execute the first attempt of ``runs`` as one batch cell.

    Every run keeps its own directory, status doc, solo ``argv`` and
    attempt count.  A completed batch's runs share its wall time evenly;
    a failed one's runs retry solo under the retry policy, from attempt
    2, after the backoff of attempt 1.
    """
    dirs = [runs_root / run.run_id for run in runs]
    argvs = [build_run_argv(run, run_dir) for run, run_dir in zip(runs, dirs)]
    for run, run_dir, argv in zip(runs, dirs, argvs):
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_status(run, run_dir, argv, "running", attempt=1)
    t0 = time.perf_counter()
    attempt = await server.execute_batch(runs, argvs, 0)
    if attempt.returncode == 0:
        share = (time.perf_counter() - t0) / len(runs)
        return [
            _complete(RunOutcome(run, "failed", attempts=1, batch=batch_id),
                      run_dir, argv, share)
            for run, run_dir, argv in zip(runs, dirs, argvs)
        ]
    if not _is_transient(attempt) or spec.retries == 0:
        error = _attempt_error(attempt)
        for run, run_dir, argv in zip(runs, dirs, argvs):
            _write_status(run, run_dir, argv, "failed", attempts=1, error=error)
        return [RunOutcome(run, "failed", attempts=1, error=error,
                           wall_seconds=time.perf_counter() - t0) for run in runs]
    await asyncio.sleep(spec.backoff)
    return [
        await _run_one(run, run_dir, spec, False, server.execute, first_attempt=1)
        for run, run_dir in zip(runs, dirs)
    ]


def _batch_group(run: CampaignRun) -> str | None:
    """The key of the cells ``run`` may share a batch with, or None.

    Batchable are the chain cells (``serial`` / ``replica``, of every
    kind) that do not checkpoint -- health, trace and events output are
    not spec fields, so no cell asks for them -- and their key is their
    kind and parameters but the seed: exactly what a batch's runs share
    (:func:`repro.run.simulation.run_batch`).
    """
    params = dict(run.params)
    strategy = params.get("strategy", _spec_fields(run.kind)["strategy"].default)
    if (strategy not in ("serial", "replica")
            or int(params.get("checkpoint_every", 0) or 0) > 0):
        return None
    params.pop("seed", None)
    return run_cache_key(run.kind, params)


def plan_batches(runs: Sequence[CampaignRun], jobs: int) -> list[list[CampaignRun]]:
    """The cells ``runs`` as batches, each one cell process.

    Batchable cells with equal batch groups (:func:`_batch_group`) share
    batches: with ``B = ceil(batchable cells / jobs)``, each group is cut
    into consecutive batches of at most ``B`` cells, in grid order, so a
    seed sweep fills the ``jobs`` slots with ``jobs`` batches.  Every
    other cell is a batch of one.  Batches come in the grid order of
    their first cells.  A pure function of ``(runs, jobs)``.
    """
    groups = [_batch_group(run) for run in runs]
    size = max(1, -(-sum(g is not None for g in groups) // jobs))
    batches: list[list[CampaignRun]] = []
    filling: dict[str, list[CampaignRun]] = {}
    for run, group in zip(runs, groups):
        batch = filling.get(group) if group is not None else None
        if batch is None or len(batch) == size:
            batch = []
            batches.append(batch)
            if group is not None:
                filling[group] = batch
        batch.append(run)
    return batches


async def _run_campaign_async(
    spec: CampaignSpec,
    out_dir: Path,
    resume: bool,
    executor: Executor | None,
    progress: Callable[[str], None] | None,
) -> CampaignResult:
    runs = expand_grid(spec)
    runs_root = out_dir / "runs"
    say = progress or (lambda _msg: None)

    outcomes: dict[int, RunOutcome] = {}
    retried = 0
    abort = asyncio.Event()
    semaphore = asyncio.Semaphore(spec.jobs)
    t0 = time.perf_counter()

    to_run, resume_ckpt = [], {}
    for run in runs:
        run_dir = runs_root / run.run_id
        cached, resume_ckpt[run.index] = _prepare_run_dir(run, run_dir, resume)
        if not cached:
            to_run.append(run)
            continue
        status = _read_status(run_dir) or {}
        outcomes[run.index] = RunOutcome(
            run=run,
            status="cached",
            cached=True,
            attempts=0,
            wall_seconds=0.0,
            sweeps_per_second=float(status.get("sweeps_per_second", 0.0) or 0.0),
            n_sweeps=0.0,  # nothing recomputed
        )
        say(f"[campaign] {run.run_id}: cache hit ({run.cache_key[:12]})")
    server = None
    if executor is None:
        server = CellServer(spec.timeout, [
            build_run_argv(run, runs_root / run.run_id, resume=resume_ckpt[run.index])
            for run in to_run])
        executor = server.execute
    # Only the cell server runs a batch; an injected executor takes one
    # run at a time.
    if server is not None:
        batches = plan_batches(to_run, spec.jobs)
    else:
        batches = [[run] for run in to_run]

    def record(outcome: RunOutcome) -> None:
        nonlocal retried
        run = outcome.run
        outcomes[run.index] = outcome
        retried += max(0, outcome.attempts - 1)
        if outcome.status == "failed":
            say(f"[campaign] {run.run_id}: FAILED after "
                f"{outcome.attempts} attempt(s) ({outcome.error})")
            if spec.policy == "fail-fast":
                abort.set()
        else:
            say(f"[campaign] {run.run_id}: {outcome.status} in "
                f"{outcome.wall_seconds:.2f} s")

    async def _task(number: int, batch: list[CampaignRun]) -> None:
        async with semaphore:
            if abort.is_set():
                for run in batch:
                    outcomes[run.index] = RunOutcome(run=run, status="skipped")
                return
            if len(batch) > 1:
                batch_id = f"b{number:04d}"
                say(f"[campaign] {batch_id}: running "
                    + ", ".join(run.run_id for run in batch))
                for outcome in await _run_batch(batch_id, batch, runs_root, spec, server):
                    record(outcome)
                return
            (run,) = batch
            resume_run = resume_ckpt[run.index]
            say(f"[campaign] {run.run_id}: running"
                + (" (resuming from checkpoints)" if resume_run else ""))
            record(await _run_one(run, runs_root / run.run_id, spec, resume_run,
                                  executor))

    tasks = [asyncio.create_task(_task(k, batch)) for k, batch in enumerate(batches)]
    try:
        await asyncio.gather(*tasks)
        interrupted = False
    except asyncio.CancelledError:
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        interrupted = True
    finally:
        if server is not None:
            await server.close()
    wall = time.perf_counter() - t0

    ordered = [
        outcomes.get(run.index, RunOutcome(run=run, status="skipped"))
        for run in runs
    ]
    counters = {
        "completed": sum(1 for o in ordered if o.status == "completed"),
        "cached": sum(1 for o in ordered if o.status == "cached"),
        "failed": sum(1 for o in ordered if o.status == "failed"),
        "skipped": sum(1 for o in ordered if o.status == "skipped"),
        "retried": retried,
    }
    total_sweeps = sum(o.n_sweeps for o in ordered)
    aggregate = {
        "wall_seconds": wall,
        "total_sweeps": total_sweeps,
        "sweeps_per_second": total_sweeps / wall if wall > 0 else 0.0,
        "server_start_seconds": server.start_seconds if server else 0.0,
    }
    result = CampaignResult(
        spec=spec,
        out_dir=out_dir,
        outcomes=ordered,
        wall_seconds=wall,
        counters=counters,
        aggregate=aggregate,
        interrupted=interrupted,
    )
    _write_campaign_manifest(result)
    return result


def _campaign_metrics(result: CampaignResult) -> dict:
    """Fold the campaign counters through a MetricsRegistry summary.

    The campaign is "rank 0" of its own one-node registry, so the
    counters surface with the same summary schema every other telemetry
    consumer in :mod:`repro.obs` understands.
    """
    registry = MetricsRegistry(namespace="campaign")
    scope = registry.scope(0)
    for name, value in result.counters.items():
        scope.count(f"campaign.runs_{name}", value)
    scope.count("campaign.sweeps", result.aggregate["total_sweeps"])
    scope.set_gauge(
        "campaign.sweeps_per_second", result.aggregate["sweeps_per_second"]
    )
    scope.set_gauge("campaign.wall_seconds", result.wall_seconds)
    return {str(r): v for r, v in registry.summary().items()}


def _write_campaign_manifest(result: CampaignResult) -> Path:
    from datetime import datetime, timezone

    spec = result.spec
    doc = {
        "campaign_version": CAMPAIGN_VERSION,
        "name": spec.name,
        "kind": spec.kind,
        "n_runs": len(result.outcomes),
        "jobs": spec.jobs,
        "policy": spec.policy,
        "base": dict(spec.base),
        "sweep": {k: list(v) for k, v in spec.sweep.items()},
        "counters": dict(result.counters),
        "aggregate": dict(result.aggregate),
        "interrupted": result.interrupted,
        "metrics": _campaign_metrics(result),
        "runs": [
            {
                "run_id": o.run.run_id,
                "cache_key": o.run.cache_key,
                "status": o.status,
                "cached": o.cached,
                "attempts": o.attempts,
                "wall_seconds": o.wall_seconds,
                "sweeps_per_second": o.sweeps_per_second,
                "resumed_from_checkpoint": o.resumed_from_checkpoint,
                "error": o.error,
                "batch": o.batch,
                "swept": dict(o.run.swept),
                "dir": str(Path("runs") / o.run.run_id),
                "manifest": str(Path("runs") / o.run.run_id / "manifest.json"),
            }
            for o in result.outcomes
        ],
        "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path = result.out_dir / "campaign.json"
    _write_json_atomic(path, doc)
    return path


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path | None = None,
    jobs: int | None = None,
    resume: bool = False,
    timeout: float | None = None,
    retries: int | None = None,
    policy: str | None = None,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Run (or resume) a campaign; returns the :class:`CampaignResult`.

    Keyword overrides (``jobs``/``timeout``/``retries``/``policy``)
    replace the spec's values for this invocation only -- they do not
    enter any cache key.  ``executor`` replaces the :class:`CellServer`
    (tests inject failures through it); ``progress`` receives one
    human-readable line per scheduling event.
    """
    import dataclasses

    overrides = {}
    if jobs is not None:
        overrides["jobs"] = jobs
    if timeout is not None:
        overrides["timeout"] = timeout
    if retries is not None:
        overrides["retries"] = retries
    if policy is not None:
        overrides["policy"] = policy
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    if out_dir is None:
        out_dir = spec.output_dir or f"{spec.name}_campaign"
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return asyncio.run(
        _run_campaign_async(spec, out_dir, resume, executor, progress)
    )
