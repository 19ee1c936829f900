"""The high-level Simulation facade.

One entry point ties together samplers, parallel drivers, virtual
machine and error analysis::

    from repro import Simulation, XXZRunConfig, ParallelLayout

    cfg = XXZRunConfig(n_sites=16, beta=1.0, n_slices=16,
                       layout=ParallelLayout("strip", 4, "Paragon"))
    result = Simulation(cfg).run()
    print(result.summary())

Every estimate carries a binning-analysis error bar and integrated
autocorrelation time; parallel runs also report the virtual machine's
modeled makespan and communication fraction.

:func:`run_batch` (which :meth:`Simulation.run` calls with one config)
is one skeleton for every run kind and every layout: import the run's
modules and resolve the kernel (:func:`load_run_modules`) -> ``params``
-> the layout's rank program, run once -> runtime -> health ->
artifacts -> estimates.  Every layout is a rank program over one run
loop (:func:`repro.qmc.chains._run_decomposed`): a serial or replica
run is one rank holding its chains
(:func:`~repro.qmc.chains.chain_program`), run alone with no fabric
(:func:`~repro.vmp.world.run_alone`); a strip / block run is the kind's
domain-decomposed driver (:mod:`repro.qmc.parallel`) under one
``run_spmd`` call -- so sweep telemetry and in-loop health are the same
on all of them.  A kind
(``_XXZ`` / ``_XXZ2D`` / ``_Tfim`` below, keyed by its config's
``kind``) supplies only the hooks the skeleton calls:

``params(cfg, kernel)``
    The result's ``parameters``.  Their keys are frozen: the manifest
    ``config_hash`` is taken over them, and campaign caches compare it.
``sampler(cfg, stream, mode)``
    The whole-lattice sampler of a serial / replica chain, built on
    ``stream``: a move set plus estimators, with no run loop of its own.
    Each chain measures the sampler's ``chain_series`` estimators, its
    sweep resolved from ``mode`` -- as in every serial run of the
    benchmarks and examples (:func:`~repro.qmc.chains.run_chain`).
``decomposed(cfg, kernel, checkpoint, rules)``
    ``(program, args, n_ranks)`` of the kind's domain-decomposed driver,
    whose rank states the driver builds; only kinds whose config names a
    ``decomposed`` strategy have it, with ``decomposed_series(cfg,
    values)`` turning its rank values into the run's named series
    (chains' series are concatenated in chain order).
``estimates(cfg, series)``
    The observable estimates; ``stored`` names the series the result
    keeps.

A kind's ``modules`` name what its hooks import beyond this module's own
imports; the hooks import them where they use them, after
:func:`load_run_modules` has loaded them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.obs.metrics import MetricsFanout
from repro.qmc.chains import ChainConfig, _chain_values, chain_program
from repro.qmc.worldline import WorldlineChainQmc
from repro.run.config import RunConfig
from repro.run.results import ObservableEstimate, RunResult
from repro.stats.autocorr import integrated_autocorr_time
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import susceptibility
from repro.stats.jackknife import jackknife
from repro.vmp.machines import MACHINES
from repro.vmp.world import run_alone, world_rank_hint

__all__ = ["Simulation", "run_batch", "load_run_modules"]


#: The transport of a decomposed layout's non-thread backend.
_BACKEND_MODULES = {"mp": "repro.vmp.process_backend",
                    "mpi": "repro.vmp.mpi_backend"}


def _run_modules(cfg) -> list[str]:
    """The modules a run of ``cfg`` executes that this module does not
    import: its kind's sampler, its layout's driver, launcher and
    backend, and what its checkpoint, health and artifact switches turn
    on.  A chain layout runs alone (:func:`~repro.vmp.world.run_alone`)
    and loads no launcher."""
    layout = cfg.layout
    names = list(_KINDS[cfg.kind].modules)
    if layout.strategy == cfg.decomposed:
        names += ["repro.qmc.parallel", "repro.vmp.scheduler"]
    if layout.backend in _BACKEND_MODULES:
        names.append(_BACKEND_MODULES[layout.backend])
    if cfg.checkpoint_every > 0 or cfg.resume:
        names.append("repro.run.checkpoint")
    if cfg.health:
        names.append("repro.obs.health")
    if cfg.trace_out is not None:
        names.append("repro.obs.chrome_trace")
    if cfg.health or cfg.trace_out is not None:
        names.append("repro.obs.events")
    if cfg.metrics_out is not None:
        names.append("repro.obs.sinks")
    if cfg.metrics_out or cfg.trace_out or cfg.events_out:
        names.append("repro.obs.manifest")
    return names


def load_run_modules(cfg) -> str:
    """Import everything a run of ``cfg`` executes, before it starts: the
    kernel backend's op table and :func:`_run_modules`.  Returns the
    resolved kernel name (a :class:`~repro.kernels.KernelUnavailableError`
    if it cannot run here).

    :func:`run_batch` calls it before its wall clock starts, so no
    import lands in a timed region; a campaign's cell server calls it on
    its runs' configs before it forks a cell, so a cell imports nothing
    the server has not (DESIGN.md, "Import surface")."""
    # Resolved to a concrete registered backend *before* any rank
    # program spawns, so a run requesting an uninstalled backend
    # (``--kernel numba`` without numba) fails fast instead of dying
    # inside a worker.
    kernel = kernels.resolve_kernel(cfg.layout.kernel)
    kernels.get_ops(kernel)
    for name in _run_modules(cfg):
        importlib.import_module(name)
    return kernel


def _warm_plans(driver_cfg, layout) -> None:
    """Build every rank's plan of a decomposed run here, once: threads
    share the memo and forked ranks inherit it, so no rank builds its
    own.  An mpi rank is a process of its own and builds only its own."""
    from repro.qmc.parallel import rank_plans

    if layout.backend in ("thread", "mp"):
        rank_plans(driver_cfg, layout.n_ranks)


def _checkpoint_config(cfg):
    """The run's CheckpointConfig, or None when checkpointing is off."""
    if cfg.checkpoint_every <= 0 and not cfg.resume:
        return None
    from repro.run.checkpoint import CheckpointConfig

    return CheckpointConfig(
        directory=cfg.checkpoint_dir,
        every=cfg.checkpoint_every,
        resume=cfg.resume,
    )


def _obs_registry(cfg):
    """The run's MetricsRegistry, or None when telemetry is off."""
    if cfg.metrics_out is None and cfg.trace_out is None:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry(interval=cfg.obs_interval)


def _health_rules(cfg):
    """The run's HealthRules, or None when ``--health`` is off.

    ``--health-rules FILE`` overrides the defaults; ``--obs-interval``,
    when set, overrides the check cadence so health checks and metric
    snapshots land on the same sweeps.
    """
    if not cfg.health:
        return None
    from repro.obs.health import HealthRules, load_health_rules

    rules = (
        load_health_rules(cfg.health_rules)
        if cfg.health_rules is not None
        else HealthRules()
    )
    if cfg.obs_interval > 0 and rules.interval != cfg.obs_interval:
        rules = dataclasses.replace(rules, interval=cfg.obs_interval)
    return rules


def _collect_health(rules, result, values):
    """Merge a run's per-rank (or per-chain) health into one view.

    Every value carries its monitor's ``health_events`` /
    ``health_summary``.  Stores the aggregate verdict in
    ``result.runtime['health']`` and returns ``{"events": [...],
    "summary": {...}, "rank_summaries": [...]}`` for the sinks, or None
    when health is off.
    """
    if rules is None:
        return None
    from repro.obs.events import events_summary, sort_events

    events = sort_events(e for value in values for e in value["health_events"])
    summary = events_summary(events)
    summary["rules"] = rules.to_doc()
    result.runtime["health"] = summary
    rank_summaries = [value["health_summary"] for value in values]
    return {"events": events, "summary": summary, "rank_summaries": rank_summaries}


def _report_summary(report) -> dict:
    """Compact JSON view of a RunReport for runtime/CLI output."""
    return {
        "n_ranks": report.n_ranks,
        "n_completed": len(report.completed),
        "n_failed": len(report.failures),
        "n_aborted": len(report.aborted),
    }


def _emit_observability(kind, cfg, params, registry, spmd, runtime, health):
    """Write the requested metrics/events JSONL / Chrome trace / manifest.

    Merges ``{key: path}`` of everything written into ``runtime`` so the
    CLI summary can point at the files.  ``spmd`` is the run's result,
    ``health`` the :func:`_collect_health` bundle (or None).  Under an
    MPI launch every rank computes the same result; only world rank 0
    writes files, so mpiexec runs do not race on the output paths.
    """
    if world_rank_hint() != 0:
        return
    outputs: dict[str, str] = {}
    if cfg.metrics_out is not None and registry is not None:
        from repro.obs.sinks import write_metrics_jsonl

        outputs["metrics_out"] = str(write_metrics_jsonl(cfg.metrics_out, registry))
    if cfg.trace_out is not None and spmd.spans is not None:
        outputs["trace_out"] = str(
            spmd.write_chrome_trace(cfg.trace_out, metadata={"kind": kind, **params})
        )
    if cfg.events_out is not None and health is not None:
        from repro.obs.events import write_events_jsonl

        outputs["events_out"] = str(
            write_events_jsonl(cfg.events_out, health["events"])
        )
    anchor = cfg.metrics_out or cfg.trace_out or cfg.events_out
    if anchor is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        # The comm fraction the report shows rides in the runtime.
        extra = {"outputs": dict(outputs),
                 "runtime": {**runtime, "comm_fraction": spmd.comm_fraction()}}
        if health is not None:
            extra["health"] = {
                "summary": health["summary"],
                "rank_summaries": health["rank_summaries"],
            }
        manifest = build_manifest(
            kind,
            params,
            seed=cfg.seed,
            registry=registry,
            report=spmd.report,
            extra=extra,
        )
        outputs["manifest"] = str(
            write_manifest(Path(anchor).parent / "manifest.json", manifest)
        )
    runtime.update(outputs)


def _record_spmd(result: RunResult, spmd, layout) -> None:
    """Fold a decomposed SPMD run's modeled costs into ``result``.

    Shared by the strip (replicas included) and block layouts: modeled
    makespan and comm fraction, the halo traffic totals, the phase
    report, and the overlap fact -- ``requested`` is the layout knob,
    ``active`` whether every rank charged the overlapped schedule (thin
    subdomains fall back to lockstep with a warning an mp/mpi child's
    stderr may swallow).  A replica strip adds its replica count.
    """
    result.model_time = spmd.elapsed_model_time
    result.comm_fraction = spmd.comm_fraction()
    result.runtime.update(
        halo_bytes=spmd.total_bytes,
        halo_messages=spmd.total_messages,
        report=_report_summary(spmd.report),
        overlap={
            "requested": layout.overlap,
            "active": all(v["overlap_active"] for v in spmd.values),
        },
    )
    if layout.replicas > 1:
        result.runtime["replicas"] = layout.replicas


def _estimate(name: str, series: np.ndarray) -> ObservableEstimate:
    """Binning-analysis point estimate of a time series."""
    series = np.asarray(series, dtype=float)
    if series.size >= 16:
        ba = BinningAnalysis.from_series(series)
        tau = integrated_autocorr_time(series) if series.size >= 32 else ba.tau_int
        return ObservableEstimate(name, ba.mean, ba.error, tau)
    err = float(series.std(ddof=1) / np.sqrt(series.size)) if series.size > 1 else 0.0
    return ObservableEstimate(name, float(series.mean()), err)


def _xxz_estimates(series, beta: float, n_sites: int) -> dict:
    """Energy, energy per site and fluctuation susceptibility of an XXZ run."""
    energy, mag = series["energy"], series["magnetization"]
    return {
        "energy": _estimate("energy", energy),
        "energy_per_site": _estimate("energy_per_site", energy / n_sites),
        "susceptibility": ObservableEstimate(
            "susceptibility",
            susceptibility(mag, beta, n_sites),
            _susceptibility_error(mag, beta, n_sites),
        ),
    }


class _Kind:
    """A run kind's hooks; the module docstring says what each supplies."""

    #: The series a result keeps (the health monitor tracks the same).
    stored: tuple[str, ...]
    #: What a chain measures: ``stored`` plus what only estimates use.
    chain_series: tuple[str, ...]
    #: The modules of its sampler and estimators beyond the world-line
    #: chain's, which the run loop itself imports.
    modules: tuple[str, ...] = ()

    @classmethod
    def program(cls, cfg, kernel, checkpoint, rules, streams):
        """``(program, args, n_ranks)`` of the run's layout: the kind's
        decomposed driver, or one rank holding a chain per stream."""
        layout = cfg.layout
        if layout.strategy == cfg.decomposed:
            return cls.decomposed(cfg, kernel, checkpoint, rules)
        chain_cfg = ChainConfig(
            build=functools.partial(cls.sampler, cfg),
            series=cls.chain_series,
            health_series=cls.stored,
            n_sweeps=cfg.n_sweeps,
            n_thermalize=cfg.n_thermalize,
            measure_every=cfg.measure_every,
            # "auto" keeps the samplers' geometry gate (the scalar
            # reference on off-grid lattices); explicit backends are
            # passed through.
            mode="auto" if layout.kernel == "auto" else kernel,
            streams=tuple(streams),
        )
        return chain_program, (chain_cfg, rules), 1

    @classmethod
    def series(cls, cfg, values):
        if cfg.layout.strategy == cfg.decomposed:
            return cls.decomposed_series(cfg, values)
        return {
            name: np.concatenate([v[name] for v in values])
            for name in cls.chain_series
        }


class _XXZ(_Kind):
    """World-line XXZ chain: serial / replica chains, strip driver (its
    ranks stacking ``layout.replicas`` chains)."""

    stored = chain_series = ("energy", "magnetization")

    @staticmethod
    def params(cfg, kernel):
        layout = cfg.layout
        return {
            "n_sites": cfg.n_sites,
            "beta": cfg.beta,
            "jz": cfg.jz,
            "jxy": cfg.jxy,
            "n_slices": cfg.n_slices,
            "periodic": cfg.periodic,
            "strategy": layout.strategy,
            "n_ranks": layout.n_ranks,
            "machine": layout.machine,
            "backend": layout.backend,
            "kernel": kernel,
            "replicas": layout.replicas,
        }

    @staticmethod
    def sampler(cfg, stream, mode):
        model = XXZChainModel(
            n_sites=cfg.n_sites, jz=cfg.jz, jxy=cfg.jxy, periodic=cfg.periodic
        )
        return WorldlineChainQmc(model, cfg.beta, cfg.n_slices, stream=stream)

    @staticmethod
    def decomposed(cfg, kernel, checkpoint, rules):
        from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program

        layout = cfg.layout
        wl_cfg = WorldlineStripConfig(
            n_sites=cfg.n_sites,
            jz=cfg.jz,
            jxy=cfg.jxy,
            beta=cfg.beta,
            n_slices=cfg.n_slices,
            n_sweeps=cfg.n_sweeps,
            n_thermalize=cfg.n_thermalize,
            measure_every=cfg.measure_every,
            sweep_seed=cfg.seed,
            overlap=layout.overlap,
            mode=kernel,
            replicas=layout.replicas,
        )
        _warm_plans(wl_cfg, layout)
        return worldline_strip_program, (wl_cfg, checkpoint, rules), layout.n_ranks

    @staticmethod
    def decomposed_series(cfg, values):
        # The replicas' mean series (one replica's series are its own);
        # the values are replica-major, so replica r's rank 0 is
        # values[r * P].
        replicas = values[:: len(values) // cfg.layout.replicas]
        return {name: np.mean([v[name] for v in replicas], axis=0)
                for name in _XXZ.stored}

    @staticmethod
    def estimates(cfg, series):
        return _xxz_estimates(series, cfg.beta, cfg.n_sites)


class _XXZ2D(_Kind):
    """World-line XXZ on the square lattice: serial / replica chains only."""

    stored = ("energy", "magnetization")
    chain_series = stored + ("m_stag_sq",)
    modules = ("repro.qmc.worldline2d",)

    @staticmethod
    def params(cfg, kernel):
        return {
            "lx": cfg.lx,
            "ly": cfg.ly,
            "beta": cfg.beta,
            "jz": cfg.jz,
            "jxy": cfg.jxy,
            "n_slices": cfg.n_slices,
            "strategy": cfg.layout.strategy,
            "n_ranks": cfg.layout.n_ranks,
            "kernel": kernel,
        }

    @staticmethod
    def sampler(cfg, stream, mode):
        from repro.qmc.worldline2d import WorldlineSquareQmc

        model = XXZSquareModel(lx=cfg.lx, ly=cfg.ly, jz=cfg.jz, jxy=cfg.jxy)
        return WorldlineSquareQmc(model, cfg.beta, cfg.n_slices, stream=stream)

    @staticmethod
    def estimates(cfg, series):
        n_sites = cfg.lx * cfg.ly
        estimates = _xxz_estimates(series, cfg.beta, n_sites)
        estimates["staggered_structure_factor"] = _estimate(
            "staggered_structure_factor", n_sites * series["m_stag_sq"]
        )
        return estimates


class _Tfim(_Kind):
    """TFIM via the classical mapping: serial / replica chains, block driver."""

    stored = chain_series = ("energy", "sigma_x", "abs_magnetization")
    modules = ("repro.qmc.tfim",)

    @staticmethod
    def params(cfg, kernel):
        layout = cfg.layout
        return {
            "spatial_shape": list(cfg.spatial_shape),
            "beta": cfg.beta,
            "j": cfg.j,
            "gamma": cfg.gamma,
            "n_slices": cfg.n_slices,
            "strategy": layout.strategy,
            "n_ranks": layout.n_ranks,
            "machine": layout.machine,
            "backend": layout.backend,
            "kernel": kernel,
        }

    @staticmethod
    def sampler(cfg, stream, mode):
        from repro.qmc.tfim import TfimQmc

        # The Ising-based samplers take their kernel at construction.
        return TfimQmc(
            cfg.spatial_shape,
            j=cfg.j,
            gamma=cfg.gamma,
            beta=cfg.beta,
            n_slices=cfg.n_slices,
            stream=stream,
            kernel=mode,
        )

    @staticmethod
    def _couplings(cfg):
        """(dtau, K_space, K_tau) of the classical mapping."""
        dtau = cfg.beta / cfg.n_slices
        return dtau, dtau * cfg.j, -0.5 * math.log(math.tanh(dtau * cfg.gamma))

    @staticmethod
    def decomposed(cfg, kernel, checkpoint, rules):
        from repro.qmc.parallel import IsingBlockConfig, ising_block_program

        _dtau, k_space, k_tau = _Tfim._couplings(cfg)
        if len(cfg.spatial_shape) == 1:
            lx, ly, ky = cfg.spatial_shape[0], 1, 0.0
        else:
            (lx, ly), ky = cfg.spatial_shape, k_space
        block_cfg = IsingBlockConfig(
            lx=lx,
            ly=ly,
            lt=cfg.n_slices,
            kx=k_space,
            ky=ky,
            kt=k_tau,
            n_sweeps=cfg.n_sweeps,
            n_thermalize=cfg.n_thermalize,
            measure_every=cfg.measure_every,
            sweep_seed=cfg.seed,
            overlap=cfg.layout.overlap,
            mode=kernel,
        )
        _warm_plans(block_cfg, cfg.layout)
        return ising_block_program, (block_cfg, checkpoint, rules), cfg.layout.n_ranks

    @staticmethod
    def decomposed_series(cfg, values):
        from repro.qmc.tfim import tfim_energy_from_bond_sums, tfim_sigma_x_from_time_bonds

        out = values[0]
        dtau = _Tfim._couplings(cfg)[0]
        n_sites = int(np.prod(cfg.spatial_shape))
        bonds = out["bond_sums"]  # (n_meas, 3): x, y, t
        space_sum = bonds[:, 0] + (bonds[:, 1] if len(cfg.spatial_shape) == 2 else 0.0)
        time_sum = bonds[:, 2]
        # The estimators are plain arithmetic: element-wise over the series.
        return {
            "energy": tfim_energy_from_bond_sums(
                space_sum, time_sum, n_sites, cfg.n_slices, cfg.j, cfg.gamma, dtau
            ),
            "sigma_x": tfim_sigma_x_from_time_bonds(
                time_sum, n_sites * cfg.n_slices, cfg.gamma, dtau
            ),
            "abs_magnetization": np.abs(out["magnetization"]),
        }

    @staticmethod
    def estimates(cfg, series):
        n_sites = int(np.prod(cfg.spatial_shape))
        return {
            "energy": _estimate("energy", series["energy"]),
            "energy_per_site": _estimate(
                "energy_per_site", series["energy"] / n_sites
            ),
            "sigma_x": _estimate("sigma_x", series["sigma_x"]),
            "abs_magnetization": _estimate(
                "abs_magnetization", series["abs_magnetization"]
            ),
        }


_KINDS = {"xxz": _XXZ, "xxz2d": _XXZ2D, "tfim": _Tfim}


class Simulation:
    """Configured simulation ready to run; see the module docstring."""

    def __init__(self, config: RunConfig):
        if not isinstance(config, RunConfig):
            raise TypeError(f"unsupported config type {type(config).__name__}")
        self.config = config
        self.kind = config.kind

    def run(self) -> RunResult:
        return run_batch([self.config])[0]


def _check_batch(configs) -> None:
    """The rules of a batch of more than one run (:func:`run_batch`)."""
    cfg = configs[0]
    if cfg.layout.strategy == cfg.decomposed:
        raise ValueError("a batch runs chains (strategy serial / replica), "
                         f"not {cfg.layout.strategy!r}")

    def shared(c):
        # Everything but the seed and where the artifacts go.
        return dataclasses.replace(
            c, seed=0, metrics_out=None if c.metrics_out is None else "",
            events_out=None if c.events_out is None else "",
        )

    if any(shared(c) != shared(cfg) for c in configs[1:]):
        raise ValueError("the runs of a batch may differ only in seed and "
                         "output paths")


def run_batch(configs) -> list[RunResult]:
    """Run configs as one batch: each result equals its solo run's.

    One skeleton for every run kind and layout: import the run's modules
    and resolve the kernel -> ``params`` -> the layout's rank program,
    run once (alone for a chain layout, under ``run_spmd`` for a
    decomposed one) -> runtime -> health -> artifacts -> estimates.  A
    single config is an ordinary run (:meth:`Simulation.run`).  Several
    are serial or replica runs that may differ only in ``seed`` and
    output paths: one ``chain_program`` rank holds all their chains,
    each on the stream its solo run has.  Every result then equals its solo run's --
    series, estimates, parameters, counters, health -- with
    ``runtime["batch"] = {"size": R, "position": i}``, the batch's wall
    time split evenly over its runs (``wall_seconds``,
    ``sweeps_per_second``, the ``sweep.*`` wall counters), and its own
    artifacts with the solo run's keys and counts.
    """
    configs = list(configs)
    cfg = configs[0]
    if len(configs) > 1:
        _check_batch(configs)
    n_runs = len(configs)
    kind = _KINDS[cfg.kind]
    layout = cfg.layout
    kernel = load_run_modules(cfg)
    params = kind.params(cfg, kernel)
    registries = [_obs_registry(c) for c in configs]
    rules = _health_rules(cfg)
    decomposed = layout.strategy == cfg.decomposed
    # A chain layout's chains as (run, stream index): chain i of a run
    # draws from the i-th child stream of its seed (DESIGN.md, "Replica
    # stream rule"), so chain 0 is the serial run at that seed.
    chains = [(k, i) for k in range(n_runs) for i in range(layout.n_ranks)]
    t0_wall = time.perf_counter()
    program, args, n_ranks = kind.program(
        cfg, kernel, _checkpoint_config(cfg), rules,
        streams=[(configs[k].seed, i) for k, i in chains],
    )
    metrics = registries[0]
    if not decomposed and metrics is not None:
        # Each chain records into its run's registry, as its rank there.
        metrics = MetricsFanout([(registries[k], i) for k, i in chains])
    if decomposed:
        from repro.vmp.scheduler import run_spmd

        spmd = run_spmd(
            program,
            n_ranks,
            machine=MACHINES[layout.machine],
            seed=cfg.seed,
            args=args,
            metrics=metrics,
            spans=cfg.trace_out is not None,
            trace=cfg.trace_out is not None,
            backend=layout.backend,
        )
    else:
        # Chains exchange nothing and model no time: their one rank runs
        # alone on the ideal machine, whatever sizes ``layout.machine``
        # (recorded in the parameters only) could be built for.
        spmd = run_alone(program, args, metrics)
    # The always-on throughput numbers: a batch's runs share its wall.
    wall = (time.perf_counter() - t0_wall) / n_runs
    if layout.replicas > 1:
        # A replica strip's ranks hold every replica: split them into
        # the replicas' ranks, replica after replica.
        per_rank = [_chain_values(v, kind.stored, "owned_spins") for v in spmd.values]
        runs = [[chains[r] for r in range(layout.replicas) for chains in per_rank]]
    elif decomposed:
        runs = [spmd.values]
    else:
        per_chain = _chain_values(spmd.values[0], kind.chain_series)
        runs = [per_chain[k * layout.n_ranks:(k + 1) * layout.n_ranks]
                for k in range(n_runs)]
    results = []
    for i, (run_cfg, registry, values) in enumerate(zip(configs, registries, runs)):
        result = RunResult(kind=cfg.kind, parameters=dict(params))
        result.runtime.update(
            # The kernel that ran: under "auto" a sampler's geometry
            # gate may have picked the scalar reference.
            kernel=values[0]["kernel"],
            n_attempted=sum(v["n_attempted"] for v in values),
            n_accepted=sum(v["n_accepted"] for v in values),
        )
        if decomposed:
            _record_spmd(result, spmd, layout)
        # Chain sweeps: a replica strip's replicas count as a replica
        # run's chains do.
        n_sweeps_run = (layout.replicas if decomposed else len(values)) * (
            cfg.n_sweeps + cfg.n_thermalize)
        result.runtime.update(
            wall_seconds=wall,
            n_sweeps=n_sweeps_run,
            sweeps_per_second=n_sweeps_run / wall if wall > 0 else 0.0,
        )
        if n_runs > 1:
            result.runtime["batch"] = {"size": n_runs, "position": i}
        if registry is not None:
            result.rank_summaries = {
                str(r): v for r, v in registry.summary().items()
            }
        health = _collect_health(rules, result, values)
        _emit_observability(
            cfg.kind, run_cfg, result.parameters, registry, spmd,
            result.runtime, health,
        )
        series = kind.series(run_cfg, values)
        result.estimates.update(kind.estimates(run_cfg, series))
        for name in kind.stored:
            result.add_series(name, series[name])
        results.append(result)
    return results


def _susceptibility_error(mag: np.ndarray, beta: float, n_sites: int) -> float:
    """Jackknife error of the fluctuation susceptibility."""
    if mag.size < 40:
        return 0.0
    _, err = jackknife(
        lambda m: susceptibility(m, beta, n_sites), mag, n_blocks=20
    )
    return err
