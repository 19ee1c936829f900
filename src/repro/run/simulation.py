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

:meth:`Simulation.run` is one skeleton for every run kind and every
layout: resolve the kernel -> ``params`` -> the layout's rank program
under ONE ``run_spmd`` call -> runtime -> health -> artifacts ->
estimates.  Every layout is a rank program over the drivers' one run
loop (:func:`repro.qmc.parallel._run_decomposed`): a serial run is one
rank holding the whole lattice, a replica run ``n_ranks`` of them
(:func:`~repro.qmc.parallel.chain_program`), a strip / block run the
kind's domain-decomposed driver -- so sweep telemetry and in-loop health
are the same on all of them.  A kind (``_XXZ`` / ``_XXZ2D`` / ``_Tfim``
below, keyed by its config's ``kind``) supplies only the hooks the
skeleton calls:

``params(cfg, kernel)``
    The result's ``parameters``.  Their keys are frozen: the manifest
    ``config_hash`` is taken over them, and campaign caches compare it.
``sampler(cfg, stream, mode)``
    The whole-lattice sampler of the serial / replica layouts, built on
    ``stream``: a move set plus estimators, with no run loop of its own.
    Each chain measures the sampler's ``chain_series`` estimators, its
    sweep resolved from ``mode`` -- as in every serial run of the
    benchmarks and examples (:func:`~repro.qmc.parallel.run_chain`).
``decomposed(cfg, kernel, checkpoint, rules)``
    ``(program, args, n_ranks)`` of the kind's domain-decomposed driver,
    whose rank states the driver builds; only kinds whose config names a
    ``decomposed`` strategy have it, with ``decomposed_series(cfg,
    values)`` turning its rank values into the run's named series
    (chains' series are concatenated in chain order).
``estimates(cfg, series)``
    The observable estimates; ``stored`` names the series the result
    keeps.
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.parallel import (
    ChainConfig,
    IsingBlockConfig,
    WorldlineStripConfig,
    chain_program,
    ising_block_program,
    worldline_strip_program,
)
from repro.qmc.tfim import (
    TfimQmc,
    tfim_energy_from_bond_sums,
    tfim_sigma_x_from_time_bonds,
)
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.run.config import RunConfig
from repro.run.results import ObservableEstimate, RunResult
from repro.stats.autocorr import integrated_autocorr_time
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import susceptibility
from repro.vmp.machines import IDEAL, MACHINES
from repro.vmp.scheduler import run_spmd

__all__ = ["Simulation"]


def _checkpoint_config(cfg):
    """The run's CheckpointConfig, or None when checkpointing is off."""
    from repro.run.checkpoint import CheckpointConfig

    if cfg.checkpoint_every <= 0 and not cfg.resume:
        return None
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
    import dataclasses

    from repro.obs.health import HealthRules, load_health_rules

    rules = (
        load_health_rules(cfg.health_rules)
        if cfg.health_rules is not None
        else HealthRules()
    )
    if cfg.obs_interval > 0 and rules.interval != cfg.obs_interval:
        rules = dataclasses.replace(rules, interval=cfg.obs_interval)
    return rules


def _collect_health(rules, result, spmd):
    """Merge per-rank health output into one run-level view.

    Every rank program returns its monitor's ``health_events`` /
    ``health_summary``.  Stores the aggregate verdict in
    ``result.runtime['health']`` and returns ``{"events": [...],
    "summary": {...}, "rank_summaries": [...]}`` for the sinks, or None
    when health is off.
    """
    if rules is None:
        return None
    from repro.obs.events import events_summary

    events = spmd.health_events()
    summary = events_summary(events)
    summary["rules"] = rules.to_doc()
    result.runtime["health"] = summary
    rank_summaries = [value["health_summary"] for value in spmd.values]
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
    from repro.obs import build_manifest, write_manifest, write_metrics_jsonl
    from repro.vmp.mpi_backend import world_rank_hint

    if world_rank_hint() != 0:
        return
    outputs: dict[str, str] = {}
    if cfg.metrics_out is not None and registry is not None:
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
        extra = {"outputs": dict(outputs), "runtime": dict(runtime)}
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

    Shared by the strip (incl. two-level) and block layouts: modeled
    makespan and comm fraction, the halo traffic totals, the phase
    report, and the overlap fact -- ``requested`` is the layout knob,
    ``active`` whether every rank charged the overlapped schedule (thin
    subdomains fall back to lockstep with a warning an mp/mpi child's
    stderr may swallow).  A two-level run adds its ensemble facts.
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
        result.runtime.update(
            replicas=layout.replicas,
            domain_ranks=layout.n_ranks,
            comm_fraction_by_level=spmd.comm_fraction_by_level(),
            ensemble_degraded=bool(spmd.values[0]["ensemble_degraded"]),
        )


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

    @classmethod
    def program(cls, cfg, kernel, checkpoint, rules):
        """``(program, args, n_ranks)`` of the run's layout."""
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
        )
        return chain_program, (chain_cfg, rules), layout.n_ranks

    @classmethod
    def series(cls, cfg, values):
        if cfg.layout.strategy == cfg.decomposed:
            return cls.decomposed_series(cfg, values)
        return {
            name: np.concatenate([v[name] for v in values])
            for name in cls.chain_series
        }


class _XXZ(_Kind):
    """World-line XXZ chain: serial / replica chains, strip (two-level) driver."""

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
        )
        if layout.replicas == 1:
            return worldline_strip_program, (wl_cfg, checkpoint, rules), layout.n_ranks
        from repro.qmc.two_level import TwoLevelConfig, two_level_program

        tl_cfg = TwoLevelConfig(
            replicas=layout.replicas, domain_ranks=layout.n_ranks, base=wl_cfg
        )
        return two_level_program, (tl_cfg, checkpoint, rules), tl_cfg.n_ranks

    @staticmethod
    def decomposed_series(cfg, values):
        out0 = values[0]
        # A two-level run reports the pooled ensemble-mean series; the
        # per-replica series stay available in the rank values.
        pooled = cfg.layout.replicas > 1 and out0["ensemble_energy"] is not None
        prefix = "ensemble_" if pooled else ""
        return {name: out0[prefix + name] for name in _XXZ.stored}

    @staticmethod
    def estimates(cfg, series):
        return _xxz_estimates(series, cfg.beta, cfg.n_sites)


class _XXZ2D(_Kind):
    """World-line XXZ on the square lattice: serial / replica chains only."""

    stored = ("energy", "magnetization")
    chain_series = stored + ("m_stag_sq",)

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
        return ising_block_program, (block_cfg, checkpoint, rules), cfg.layout.n_ranks

    @staticmethod
    def decomposed_series(cfg, values):
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
        cfg, kind = self.config, _KINDS[self.kind]
        layout = cfg.layout
        # Resolved to a concrete registered backend *before*
        # any rank program spawns, so a run requesting an uninstalled
        # backend (``--kernel numba`` without numba) fails fast with a
        # KernelUnavailableError instead of dying inside a worker.
        kernel = kernels.resolve_kernel(layout.kernel)
        params = kind.params(cfg, kernel)
        result = RunResult(kind=self.kind, parameters=params)
        registry = _obs_registry(cfg)
        rules = _health_rules(cfg)
        decomposed = layout.strategy == cfg.decomposed
        t0_wall = time.perf_counter()
        program, args, n_ranks = kind.program(
            cfg, kernel, _checkpoint_config(cfg), rules
        )
        # Rank i's stream is the i-th child stream of the root seed, so
        # chain 0 of a replica run is the serial run at that seed.
        # (Offsetting the seed by the chain index instead would make
        # replica runs at neighbouring seeds share all but one chain.)
        spmd = run_spmd(
            program,
            n_ranks,
            # Chains exchange nothing and model no time: they run on the
            # ideal machine, whatever sizes ``layout.machine`` (recorded
            # in the parameters only) could be built for.
            machine=MACHINES[layout.machine] if decomposed else IDEAL,
            seed=cfg.seed,
            args=args,
            metrics=registry,
            spans=cfg.trace_out is not None,
            trace=cfg.trace_out is not None,
            backend=layout.backend,
        )
        values = spmd.values
        result.runtime.update(
            # The kernel that ran: under "auto" a sampler's geometry
            # gate may have picked the scalar reference.
            kernel=values[0]["kernel"],
            n_attempted=sum(v["n_attempted"] for v in values),
            n_accepted=sum(v["n_accepted"] for v in values),
        )
        if decomposed:
            _record_spmd(result, spmd, layout)

        # The always-on throughput numbers and metric summaries.
        wall = time.perf_counter() - t0_wall
        n_chains = n_ranks if layout.strategy == "replica" else 1
        n_sweeps_run = n_chains * (cfg.n_sweeps + cfg.n_thermalize)
        result.runtime.update(
            wall_seconds=wall,
            n_sweeps=n_sweeps_run,
            sweeps_per_second=n_sweeps_run / wall if wall > 0 else 0.0,
        )
        if registry is not None:
            result.rank_summaries = {
                str(r): v for r, v in registry.summary().items()
            }
        health = _collect_health(rules, result, spmd)
        _emit_observability(
            self.kind, cfg, params, registry, spmd, result.runtime, health
        )

        series = kind.series(cfg, values)
        result.estimates.update(kind.estimates(cfg, series))
        for name in kind.stored:
            result.add_series(name, series[name])
        return result


def _susceptibility_error(mag: np.ndarray, beta: float, n_sites: int) -> float:
    """Jackknife error of the fluctuation susceptibility."""
    from repro.stats.jackknife import jackknife

    if mag.size < 40:
        return 0.0
    _, err = jackknife(
        lambda m: susceptibility(m, beta, n_sites), mag, n_blocks=20
    )
    return err
